"""A codeword referee that shares no code with the certifier.

It reads the text that

    griesmer export --in CODE.ms --out CODE.gm

writes (a "q k n" line, then k rows of n entries), multiplies every one of
the q^k messages by the generator matrix G, and reports the length, the
dimension of the row space and the minimum nonzero weight.  A certified
[n, k, d]_q code must get (n, k, d) back.

Its arithmetic is its own.  Over a prime field it works mod q.  Over
GF(p^h) an element is the polynomial c_0 + c_1*x + ... + c_{h-1}*x^{h-1}
packed as sum(c_i * p**i), and products are polynomial products reduced
by the modulus in MODULI, data that the tier-1 suite checks once against
gf.field_create.  Nothing here imports the package: only the block under
__main__ does, to build the codes it referees.

Every codeword is the sum of a prefix codeword (a combination of the first
rows of G) and a suffix codeword (of the others), so it is zero exactly
where the prefix codeword equals the suffix codeword's negative.  The
prefix codewords are one array; each suffix codeword is compared with all
of them at once.

Run from the repository root to referee every row of the catalogue tables
with q^k <= 2^15:

    PYTHONPATH=src python tests/referee.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

# GF(p^h) for h > 1: the modulus's coefficients, constant term first,
# with the leading 1
MODULI = {4: (1, 1, 1), 8: (1, 1, 0, 1)}

# the catalogue tables refereed: q^k at most this many messages
MAX_MESSAGES = 1 << 15

# cells of the prefix codeword array
_BLOCK_CELLS = 1 << 23


def arithmetic(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(add, neg, mul) tables of GF(q): add[a, b] = a + b, neg[a] = -a,
    mul[a, b] = a * b."""
    p = next(f for f in range(2, q + 1) if q % f == 0)
    if p == q:
        elements = np.arange(q)
        return (np.add.outer(elements, elements) % q, -elements % q,
                np.multiply.outer(elements, elements) % q)
    modulus = MODULI[q]
    h = len(modulus) - 1

    def digits(a: int) -> list[int]:
        return [a // p**i % p for i in range(h)]

    def pack(c: list[int]) -> int:
        return sum(x * p**i for i, x in enumerate(c))

    def product(a: int, b: int) -> int:
        c = [0] * (2 * h - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                c[i + j] = (c[i + j] + x * y) % p
        for top in range(2 * h - 2, h - 1, -1):  # subtract c[top] x^(top-h) * modulus
            lead = c[top]
            for i, m in enumerate(modulus):
                c[top - h + i] = (c[top - h + i] - lead * m) % p
        return pack(c[:h])

    add = np.array([[pack([(x + y) % p for x, y in zip(digits(a), digits(b))])
                     for b in range(q)] for a in range(q)])
    neg = np.array([pack([-x % p for x in digits(a)]) for a in range(q)])
    mul = np.array([[product(a, b) for b in range(q)] for a in range(q)])
    return add, neg, mul


def read_matrix(text: str) -> tuple[int, np.ndarray]:
    """q and the k x n matrix G of export's generator-matrix text."""
    tokens = text.split()
    q, k, n = map(int, tokens[:3])
    if len(tokens) != 3 + k * n:
        raise ValueError(f"expected {k} x {n} entries, found {len(tokens) - 3}")
    return q, np.array(tokens[3:], dtype=np.int64).reshape(k, n)


def _codewords(rows: np.ndarray, add: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """Every combination of the rows, one codeword a row."""
    words = np.zeros((1, rows.shape[1]), dtype=add.dtype)
    for g in rows:
        # every word so far plus c * g, for every scalar c
        words = add[words[None, :, :], mul[:, g][:, None, :]].reshape(-1, rows.shape[1])
    return words


def referee(q: int, G: np.ndarray) -> tuple[int, int, int]:
    """(n, k, d) of the code that G generates over GF(q): its length, the
    dimension of its row space and its minimum nonzero weight (0 when
    every codeword is zero)."""
    add, neg, mul = (table.astype(np.uint8) for table in arithmetic(q))
    k, n = G.shape
    split = k
    while split and q**split * n > _BLOCK_CELLS:
        split -= 1
    prefix = _codewords(G[:split], add, mul)
    zeros, d = 0, n + 1
    for suffix in _codewords(G[split:], add, mul):
        weights = n - np.count_nonzero(prefix == neg[suffix], axis=1)
        zeros += int(np.count_nonzero(weights == 0))
        if (nonzero := weights[weights > 0]).size:
            d = min(d, int(nonzero.min()))
    # the messages that give the zero codeword are a subspace of size q^(k - rank)
    rank = k
    while zeros > 1:
        zeros //= q
        rank -= 1
    return n, rank, d if d <= n else 0


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    import catalogue
    from griesmer.mcode import code_params, write_gmatrix

    t0, bad, count = time.perf_counter(), [], 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "code.gm"
        for entry in catalogue.entries(MAX_MESSAGES):
            theorem, q, k = entry["theorem"], entry["q"], entry["k"]
            for d, M in catalogue.row_codes(theorem, q, k):
                write_gmatrix(M, path)  # the bytes export writes
                p = code_params(M)
                got = referee(*read_matrix(path.read_text()))
                count += 1
                if got != (p.n, p.k, p.d):
                    bad.append(f"({theorem}, {q}, {k}) d={d}: certified "
                               f"[{p.n},{p.k},{p.d}], referee {list(got)}")
    for line in bad:
        print(line)
    print(f"{count} rows refereed in {time.perf_counter() - t0:.1f} s, {len(bad)} mismatches")
    sys.exit(1 if bad else 0)
