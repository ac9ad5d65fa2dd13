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
q - 1 and, for alpha, is the antilog table itself.  Multiplication and
inversion run on that table and the log table read off it, built once per
field; addition is digitwise mod p.  Array code (pg's incidence kernel and
mcode's codeword oracle) reads Field.tables instead: the full q x q
addition and multiplication tables, built on first use with numpy from
the same digit and log/antilog lists, in the smallest unsigned dtype that
holds q - 1, and Field.inverses, the matching table of inverses.  Every
array computation over GF(q) is thus an exact integer gather.
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
    """Arithmetic context for one FieldSpec; immutable after construction."""

    def __init__(self, spec: FieldSpec):
        _check_tables(spec.q)
        self.spec = spec
        self.p, self.h, self.q = spec.p, spec.h, spec.q
        p, h, q = self.p, self.h, self.q

        self._ppow = [p**i for i in range(h)]
        self._dig = [tuple(_digits(a, p, h)) for a in range(q)]

        exp = _powers(spec.alpha, p, h, tuple(spec.modulus))
        if exp is None:
            raise NotAPrimePower(f"alpha={spec.alpha} does not have order {q - 1}")
        log = [-1] * q
        for i, x in enumerate(exp):
            log[x] = i
        self._exp = exp
        self._log = log
        # set here, not by functools.cached_property: writing to the
        # instance __dict__ later slows every scalar operation's attribute
        # reads (measured 1.8x per mul on CPython 3.11)
        self._tables: tuple[np.ndarray, np.ndarray] | None = None
        self._inverses: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"Field(GF({self.q}))"

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.h == 1:
            return (a + b) % p
        da, db = self._dig[a], self._dig[b]
        return sum(((x + y) % p) * w for x, y, w in zip(da, db, self._ppow))

    def neg(self, a: int) -> int:
        p = self.p
        if self.h == 1:
            return (-a) % p
        return sum(((-x) % p) * w for x, w in zip(self._dig[a], self._ppow))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of 0 in GF(q)")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def alpha_power(self, i: int) -> int:
        """alpha^i with the exponent reduced mod q-1; alpha_power(0) == 1."""
        return self._exp[i % (self.q - 1)]

    @property
    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(add, mul) with add[a, b] == a + b and mul[a, b] == a * b.

        q^2 cells each, built once per field, read-only.
        """
        if self._tables is None:
            p, q, dt = self.p, self.q, np.min_scalar_type(self.q - 1)
            # addition is digitwise mod p; int32 holds every partial sum
            digits = np.array(self._dig, dtype=np.int32).reshape(q, self.h)
            add = np.zeros((q, q), dtype=np.int32)
            for i, w in enumerate(self._ppow):
                d = digits[:, i]
                add += np.add.outer(d, d) % p * w
            # a * b = alpha^(log a + log b) for nonzero a, b
            log = np.array(self._log[1:], dtype=np.int32)
            mul = np.zeros((q, q), dtype=dt)
            mul[1:, 1:] = np.array(self._exp, dtype=dt)[np.add.outer(log, log) % (q - 1)]
            self._tables = (add.astype(dt), mul)
            for table in self._tables:
                table.setflags(write=False)
        return self._tables

    @property
    def inverses(self) -> np.ndarray:
        """inv with inv[a] == 1/a for a != 0 and inv[0] == 0, in the
        tables' dtype; built once per field from the log/antilog lists,
        read-only."""
        if self._inverses is None:
            q, dt = self.q, np.min_scalar_type(self.q - 1)
            log = np.array(self._log[1:], dtype=np.int64)
            inv = np.zeros(q, dtype=dt)
            inv[1:] = np.array(self._exp, dtype=dt)[-log % (q - 1)]
            inv.setflags(write=False)
            self._inverses = inv
        return self._inverses


@lru_cache(maxsize=None)
def field(q: int) -> Field:
    """Memoized canonical Field for GF(q)."""
    return Field(field_create(q))
