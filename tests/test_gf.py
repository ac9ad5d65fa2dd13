import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from griesmer import gf, pg
from griesmer.errors import NotAPrimePower, TooLarge
from griesmer.gf import Field, FieldSpec, field, field_create

SMALL_Q = [2, 3, 4, 5, 7, 8, 9]


def test_field_create_gf5():
    spec = field_create(5)
    assert (spec.p, spec.h, spec.q) == (5, 1, 5)
    # 2 generates (Z/5)*: 2, 4, 3, 1
    assert spec.alpha == 2


def test_field_create_gf4():
    spec = field_create(4)
    assert (spec.p, spec.h) == (2, 2)
    # x^2 + x + 1 is the only irreducible monic quadratic over GF(2)
    assert spec.modulus == (1, 1, 1)
    assert spec.alpha == 2  # the element x


def test_field_create_gf9():
    # over GF(3) the lowest-encoded irreducible quadratic is x^2 + 1;
    # x then has order 4, and x + 1 (encoding 4) is the first generator
    spec = field_create(9)
    assert spec.modulus == (1, 0, 1)
    assert spec.alpha == 4


@pytest.mark.parametrize("q", [0, 1, 6, 12, 100])
def test_field_create_rejects_non_prime_powers(q):
    with pytest.raises(NotAPrimePower):
        field_create(q)


def test_field_create_respects_size_bound():
    with pytest.raises(TooLarge):
        field_create(2**17)
    field_create(2**10)  # within the default bound


def test_the_field_tables_are_the_fields_one_bound():
    # 2887 is the largest prime power q with q x q cells within the bound
    assert 2887**2 <= gf.MAX_TRANSFORM_CELLS < 2897**2
    assert pg.MAX_TRANSFORM_CELLS is gf.MAX_TRANSFORM_CELLS
    assert field_create(2887).q == 2887


@pytest.mark.parametrize("make", [
    lambda: field_create(2897),
    lambda: field_create(65536),
    lambda: Field(FieldSpec(p=2897, h=1, q=2897, modulus=(0, 1), alpha=3)),
], ids=["field_create-2897", "field_create-65536", "Field-2897"])
def test_a_field_past_the_bound_is_refused_before_any_work(make, monkeypatch):
    # no trial division, no power walk and no table: the refusal is arithmetic
    done = []
    for name in ("_prime_power", "_is_irreducible", "_powers", "_mul"):
        monkeypatch.setattr(gf, name, lambda *args, name=name: done.append(name))
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match=r"^GF\(\d+\) needs \d+ table cells, above the bound 8388608$"):
            make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert done == []
    assert peak < 64 * 1024


@pytest.mark.parametrize("q", [4, 5])
def test_field_tables_are_read_only(q):
    # the field is cached per process: one write would change every later
    # product, so the arrays refuse it
    add, mul = field(q).tables
    for table, at in ((add, (1, 3)), (mul, (3, 3)), (field(q).inverses, 3), (field(q).negatives, 1)):
        before = table[at]
        with pytest.raises(ValueError, match="read-only"):
            table[at] = 0
        assert table[at] == before


def test_gf4_products_and_sums():
    F = field(4)
    # x * (x+1) = x^2 + x = 1 mod x^2+x+1
    assert F.mul(2, 3) == 1
    assert F.add(2, 3) == 1
    # x^2 = x + 1
    assert F.alpha_power(2) == 3


def test_gf5_inverse():
    F = field(5)
    assert F.inv(2) == 3


def test_alpha_power_boundaries():
    F = field(5)
    assert F.alpha_power(0) == 1
    assert F.alpha_power(4) == 1
    assert F.alpha_power(-1) == F.inv(F.spec.alpha)


def test_inverse_of_zero_raises():
    F = field(7)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -2)
    assert F.pow(0, 0) == 1 and F.pow(0, 3) == 0


@pytest.mark.parametrize("q", SMALL_Q)
def test_field_axioms_exhaustive(q):
    F = field(q)
    elems = range(q)
    for a in elems:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
        for b in elems:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in elems:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", SMALL_Q)
def test_alpha_powers_enumerate_nonzero_elements(q):
    F = field(q)
    seen = {F.alpha_power(i) for i in range(q - 1)}
    assert seen == set(range(1, q))
    for i in range(1, q - 1):
        assert F.alpha_power(i) != 1
    assert F.alpha_power(q - 1) == 1


@pytest.mark.parametrize("q", SMALL_Q)
def test_modulus_irreducible_by_trial_division(q):
    spec = field_create(q)
    p, h = spec.p, spec.h
    assert q == p**h
    assert len(spec.modulus) == h + 1 and spec.modulus[-1] == 1
    # no root in GF(p) unless degree 1 (cheap independent sanity check)
    if h > 1:
        for x in range(p):
            val = sum(c * x**i for i, c in enumerate(spec.modulus)) % p
            assert val != 0


@pytest.mark.parametrize("q", [4, 8, 9])
def test_pow_matches_repeated_multiplication(q):
    F = field(q)
    for a in range(1, q):
        acc = 1
        for e in range(2 * q):
            assert F.pow(a, e) == acc
            acc = F.mul(acc, a)


def test_field_arith_from_spec():
    spec = field_create(8)
    F = Field(spec)
    assert F.mul(2, F.inv(2)) == 1
    # q = 8: x^3 = x + 1 under the modulus x^3 + x + 1
    assert spec.modulus == (1, 1, 0, 1)
    assert F.alpha_power(3) == 3


@pytest.mark.parametrize("spec", [
    FieldSpec(5, 1, 5, (0, 1), 4),  # order 2: 4 * 4 = 1
    FieldSpec(3, 1, 3, (0, 1), 1),  # order 1
    FieldSpec(3, 2, 9, (1, 0, 1), 3),  # x, of order 4 under x^2 + 1
    FieldSpec(5, 1, 5, (0, 1), 0),  # no power of 0 is 1
])
def test_field_refuses_an_alpha_of_lower_order(spec):
    # a smaller order would give log/antilog tables that miss elements
    with pytest.raises(NotAPrimePower, match=rf"^alpha={spec.alpha} does not have order {spec.q - 1}$"):
        Field(spec)


@pytest.mark.parametrize("q", SMALL_Q + [16, 27, 256])
def test_tables_match_scalar_arithmetic(q):
    # Field builds its tables from the log/antilog lists; the reference is
    # field_create's packed polynomial product and sums of digits mod p.
    # Every row up to q = 27, a fixed sample of 16 rows at 256
    F, spec = field(q), field_create(q)
    p, h = spec.p, spec.h
    add, mul = F.tables
    assert add.shape == mul.shape == (q, q)
    assert add.dtype == mul.dtype == F.inverses.dtype == F.negatives.dtype == np.uint8

    def digits(a):
        return [a // p**i % p for i in range(h)]

    def digit_sum(a, b):
        return sum((x + y) % p * p**i for i, (x, y) in enumerate(zip(digits(a), digits(b))))

    for a in range(q) if q <= 27 else range(0, q, 17):
        assert add[a].tolist() == [digit_sum(a, b) for b in range(q)]
        assert mul[a].tolist() == [gf._mul(a, b, p, h, spec.modulus) for b in range(q)]
        assert [F.add(a, b) for b in range(q)] == add[a].tolist()
        assert [F.mul(a, b) for b in range(q)] == mul[a].tolist()
    assert F.inverses[0] == 0
    assert all(gf._mul(a, int(F.inverses[a]), p, h, spec.modulus) == 1 for a in range(1, q))
    assert all(digit_sum(a, int(F.negatives[a])) == 0 for a in range(q))
    assert [F.neg(a) for a in range(q)] == F.negatives.tolist()


@pytest.mark.parametrize("bad", [-1, 4, 10**30, 1.0, True, np.int64(-1), np.bool_(True), None],
                         ids=repr)
def test_scalar_operations_refuse_non_elements(bad):
    # the operations are table gathers: a negative index would wrap, one
    # of q or more fail bare, and a bool would index as a mask
    F = field(4)
    calls = [
        lambda: F.add(bad, 0), lambda: F.add(0, bad), lambda: F.neg(bad),
        lambda: F.sub(bad, 0), lambda: F.sub(0, bad), lambda: F.mul(bad, 1),
        lambda: F.mul(1, bad), lambda: F.inv(bad), lambda: F.pow(bad, 2),
    ]
    shown = repr(bad.item() if isinstance(bad, np.generic) else bad)
    for call in calls:
        with pytest.raises(ValueError, match=rf"^{re.escape(shown)} is not an element of GF\(4\)$"):
            call()


def test_scalar_operations_take_numpy_integers_and_return_ints():
    F = field(5)
    with pytest.raises(ValueError, match=r"^1\.0 is not an element of GF\(5\)$"):
        F.mul(1.0, 2)
    results = [F.add(np.uint8(3), np.int64(4)), F.sub(np.int32(1), 2), F.neg(np.uint8(1)),
               F.mul(np.int64(3), np.uint8(4)), F.inv(np.int64(2)), F.pow(np.uint8(2), 3)]
    assert results == [2, 4, 4, 2, 3, 3]
    assert all(type(x) is int for x in results)


def test_field_refuses_a_spec_whose_q_is_not_p_to_the_h(monkeypatch):
    walked = []
    monkeypatch.setattr(gf, "_powers", lambda *args: walked.append(args))
    with pytest.raises(NotAPrimePower, match=r"^FieldSpec has q=5, but p\^h = 2\^2 = 4$"):
        Field(FieldSpec(p=2, h=2, q=5, modulus=(1, 1, 1), alpha=2))
    assert walked == []


def test_gcd_of_q_minus_one_orders():
    # the order of alpha_power(i) is (q-1)/gcd(i, q-1)
    F = field(9)
    for i in range(1, 8):
        e = F.alpha_power(i)
        order = 1
        acc = e
        while acc != 1:
            acc = F.mul(acc, e)
            order += 1
        assert order == 8 // math.gcd(i, 8)


# sha256 of the canonical (q, modulus, alpha) and (q, alpha powers) of
# every field up to 1024, pinned from an earlier release: the files this
# package writes depend on both
PINNED_SPECS = "c27d3e22758aa2e2edbbf986b4c7c5bbc4d857335b5d14a1ef463afbf660106e"
PINNED_ALPHA_POWERS = "2c8b422003bce1ce9320ee5709768a210a882432e83d6deacf4fc53a503e3f43"


def test_field_specs_and_alpha_powers_are_pinned():
    specs = []
    for q in range(2, 1025):
        try:
            specs.append(field_create(q))
        except NotAPrimePower:
            pass
    assert len(specs) == 198

    def digest(value) -> str:
        return hashlib.sha256(repr(value).encode()).hexdigest()

    assert digest([(s.q, s.modulus, s.alpha) for s in specs]) == PINNED_SPECS
    powers = [(s.q, tuple(gf._powers(s.alpha, s.p, s.h, s.modulus))) for s in specs]
    assert digest(powers) == PINNED_ALPHA_POWERS


def test_field_reuses_the_walk_that_picked_alpha(monkeypatch):
    # field_create's last power walk is alpha's; Field reads the same list
    calls = []
    mul = gf._mul
    monkeypatch.setattr(gf, "_mul", lambda *args: calls.append(None) or mul(*args))
    gf._powers.cache_clear()
    field_create(9)
    alone = len(calls)
    calls.clear()
    gf._powers.cache_clear()
    Field(field_create(9))
    assert alone and len(calls) == alone
