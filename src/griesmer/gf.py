"""Exact arithmetic in GF(q) for prime powers q = p^h.

Field elements are encoded as integers in [0, q): the polynomial-basis
element c_0 + c_1*x + ... + c_{h-1}*x^{h-1} is packed as sum(c_i * p**i),
so for h = 1 the encoding is the residue itself.  The reduction modulus is
the monic degree-h irreducible polynomial over GF(p) whose packed encoding
(including the leading 1) is smallest, and alpha is the smallest-encoded
element of multiplicative order q - 1.  Both choices are deterministic
functions of q alone, which makes every file this package writes
reproducible bit for bit given q.

One walk over an element's powers (_powers) decides whether it has order
q - 1 and, for alpha, is the antilog table itself.  Field builds all of
its arithmetic from it once, when it is made: the q x q addition
(digitwise mod p) and multiplication (log sums) tables, the inverses and
the negatives, read-only numpy arrays in the smallest unsigned dtype that
holds q - 1.  The scalar operations are one gather each from those arrays,
and the array code (pg's incidence kernel and elimination, mcode's
codeword oracle) gathers from the same ones, so every computation over
GF(q) is an exact integer lookup.  Only pow and alpha_power read the
log/antilog lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotAPrimePower, TooLarge

# the cell bound of a field's q x q tables and of pg's transform over
# GF(q)^k, whose peak is four q^k-cell arrays (134 MB in int32 at the cap)
MAX_TRANSFORM_CELLS = 1 << 23


def _check_tables(q: int) -> None:
    if q * q > MAX_TRANSFORM_CELLS:
        raise TooLarge(f"GF({q}) needs {q * q} table cells, above the bound {MAX_TRANSFORM_CELLS}")


@dataclass(frozen=True)
class FieldSpec:
    """Defining data of one GF(p^h): deterministic given q."""

    p: int
    h: int
    q: int
    modulus: tuple[int, ...]  # little-endian coefficients, length h+1, monic
    alpha: int  # encoding of the chosen primitive element


def _prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise NotAPrimePower(f"field size must be at least 2, got {q}")
    for p in range(2, math.isqrt(q) + 1):
        if q % p == 0:
            h, m = 0, q
            while m % p == 0:
                m //= p
                h += 1
            if m != 1:
                raise NotAPrimePower(f"{q} is divisible by {p} but is not a power of it")
            return p, h
    return q, 1


def _digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    # b monic is all we ever divide by
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db:
        lead = a[-1]
        shift = len(a) - 1 - db
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - lead * bi) % p
        _poly_trim(a)
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for low in range(p**d):
            g = _digits(low, p, d) + [1]
            if not _poly_rem(f, g, p):
                return False
    return True


def _mul(a: int, b: int, p: int, h: int, modulus) -> int:
    """Product of two packed encodings, reduced by the monic modulus."""
    poly = _poly_rem(_poly_mul(_digits(a, p, h), _digits(b, p, h), p), modulus, p)
    return sum(c * p**i for i, c in enumerate(poly))


@lru_cache(maxsize=1)
def _powers(a: int, p: int, h: int, modulus) -> list[int] | None:
    """a^0, ..., a^(q-2) when a has multiplicative order exactly q - 1, else
    None: the walk stops at the first early return to 1, or after q - 1
    steps.  Cached, read-only: Field reuses field_create's last walk."""
    q = p**h
    powers, x = [1], _mul(1, a, p, h, modulus)
    while x != 1 and len(powers) < q - 1:
        powers.append(x)
        x = _mul(x, a, p, h, modulus)
    return powers if x == 1 and len(powers) == q - 1 else None


def field_create(q: int) -> FieldSpec:
    """Build the canonical FieldSpec for GF(q).

    The modulus is the smallest-encoded monic irreducible of degree h over
    GF(p) (trial division suffices at these sizes) and alpha the
    smallest-encoded element of multiplicative order exactly q - 1.
    """
    _check_tables(q)
    p, h = _prime_power(q)

    # an irreducible exists for every degree, and GF(q)* is cyclic
    monic = (tuple(_digits(low, p, h)) + (1,) for low in range(p**h))
    modulus = next(f for f in monic if _is_irreducible(list(f), p))
    alpha = next(a for a in range(1, q) if _powers(a, p, h, modulus))
    return FieldSpec(p=p, h=h, q=q, modulus=modulus, alpha=alpha)


class Field:
    """Arithmetic context for one FieldSpec: its tables, all built here and
    read-only."""

    def __init__(self, spec: FieldSpec):
        _check_tables(spec.q)
        p, h, q = spec.p, spec.h, spec.q
        if q != p**h:
            raise NotAPrimePower(f"FieldSpec has q={q}, but p^h = {p}^{h} = {p**h}")
        self.spec = spec
        self.p, self.h, self.q = p, h, q

        exp = _powers(spec.alpha, p, h, tuple(spec.modulus))
        if exp is None:
            raise NotAPrimePower(f"alpha={spec.alpha} does not have order {q - 1}")
        log = [-1] * q
        for i, x in enumerate(exp):
            log[x] = i
        self._exp = exp
        self._log = log

        dt = np.min_scalar_type(q - 1)
        # addition is digitwise mod p; int32 holds every partial sum
        add = np.zeros((q, q), dtype=np.int32)
        for i in range(h):
            d = np.arange(q, dtype=np.int32) // p**i % p
            add += np.add.outer(d, d) % p * p**i
        # a * b = alpha^(log a + log b) and 1/a = alpha^(-log a) for nonzero a, b
        antilog, logs = np.array(exp, dtype=dt), np.array(log[1:], dtype=np.int32)
        mul = np.zeros((q, q), dtype=dt)
        mul[1:, 1:] = antilog[np.add.outer(logs, logs) % (q - 1)]
        inv = np.zeros(q, dtype=dt)
        inv[1:] = antilog[-logs % (q - 1)]
        self.tables = (add.astype(dt), mul)  # add[a, b] == a + b, mul[a, b] == a * b
        self.inverses = inv  # inv[a] == 1/a for a != 0, inv[0] == 0
        self.negatives = mul[p - 1]  # -a == (-1) * a, and -1 is encoded as p - 1
        for table in (*self.tables, self.inverses, self.negatives):
            table.setflags(write=False)

    def __repr__(self) -> str:
        return f"Field(GF({self.q}))"

    def _element(self, a) -> int:
        """a as pg.as_elements reads an entry: a Python or numpy integer in
        [0, q), not a bool or a float; a table gather would wrap a negative
        index and read a bool as a mask."""
        if isinstance(a, np.generic):
            a = a.item()
        if type(a) is int and 0 <= a < self.q:
            return a
        raise ValueError(f"{a!r} is not an element of GF({self.q})")

    def add(self, a: int, b: int) -> int:
        return int(self.tables[0][self._element(a), self._element(b)])

    def neg(self, a: int) -> int:
        return int(self.negatives[self._element(a)])

    def sub(self, a: int, b: int) -> int:
        return int(self.tables[0][self._element(a), self.negatives[self._element(b)]])

    def mul(self, a: int, b: int) -> int:
        return int(self.tables[1][self._element(a), self._element(b)])

    def inv(self, a: int) -> int:
        if (a := self._element(a)) == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        return int(self.inverses[a])

    def pow(self, a: int, e: int) -> int:
        if (a := self._element(a)) == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of 0 in GF(q)")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def alpha_power(self, i: int) -> int:
        """alpha^i with the exponent reduced mod q-1; alpha_power(0) == 1."""
        return self._exp[i % (self.q - 1)]


@lru_cache(maxsize=None)
def field(q: int) -> Field:
    """Memoized canonical Field for GF(q)."""
    return Field(field_create(q))
