"""Length-optimal code chains: plan, execute, certify.

For each of the two divisible-code families the pipeline is identical:
build the family code, take its projective dual, then walk down in
distance by removing s pairwise disjoint support lines followed by j
single points.  Each removal is a t-flat (t = 1 or 0) and costs exactly
theta(t) in length and q^t in distance.  Every target distance d in a
family's range decomposes as d_top - s*q - j, and by construction each
resulting length meets the Griesmer bound sum(ceil(d/q^i)) exactly.

One walker does every removal: it yields the code, its parameters and its
provenance before the first removal and after each one, re-verifying each
step against its puncture's record.  build_chain keeps the walker's last
code; reproduce_table walks the line removals once and, from every line
prefix, the point removals that reach the rows of that prefix.

Closed forms are never trusted: the dual is recomputed and compared, each
removal step is re-verified, and a row only enters a table after its
parameters are certified.  The dual's hyperplane vector is read off an
incidence identity and each removal walks it through one incidence
update, so neither makes a kernel call; every step's incidence vector
must hold exactly the theta(k-t-2) hyperplanes through its t-flat.  A
fresh kernel call then checks the walked vector where walks end:
build_chain's last code, even after an empty walk at d = d_top, and in
reproduce_table the end of the line walk and of the last point walk that
removes anything.  A table thus costs three kernel calls whatever q is,
the family code's included.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from . import pg
from .constructs import code_c1, code_c2
from .errors import CertificationFailed, InputError, OutOfScope, PlanInfeasible
from .gf import field
from .mcode import PointMultiset, code_params, hyperplane_spectrum
from .transforms import (
    find_disjoint_lines,
    projective_dual,
    puncture_flat,
    puncture_point,
    recheck_hyperplanes,
    simple_point,
)


def griesmer_bound(q: int, k: int, d: int) -> int:
    """Minimum possible length of a k-dimensional distance-d code over GF(q)."""
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    return sum(-(-d // q**i) for i in range(k))


def _family_tops(theorem: int, q: int, k: int) -> tuple[int, int]:
    """(n_top, d_top) of the dual code heading the family's chains."""
    t_count = pg.theta(k - 1, q)
    if theorem == 1:
        n_top = 2 * q ** (k - 1) - q ** (k - 2) + 1 + (k - 5) * t_count
        d_top = (k - 3) * q ** (k - 1) - 3 * q ** (k - 2) + q ** (k - 3)
    else:
        n_top = 3 * q ** (k - 1) - 2 * q ** (k - 2) + 1 + (k - 5) * t_count
        d_top = (k - 2) * q ** (k - 1) - 5 * q ** (k - 2) + 2 * q ** (k - 3)
    return n_top, d_top


def theorem_range(theorem: int, q: int, k: int) -> tuple[int, int]:
    """Inclusive distance range (d_min, d_max) covered by a family at
    k >= 5: theorem 1 needs q >= k-2, theorem 2 q >= max(5, k-2), and q
    a prime power (NotAPrimePower)."""
    if theorem not in (1, 2):
        raise OutOfScope(f"theorem must be 1 or 2, got {theorem}")
    if k < 5:
        raise OutOfScope(f"need k >= 5, got {k}")
    q_min = k - 2 if theorem == 1 else max(5, k - 2)
    if q < q_min:
        raise OutOfScope(f"theorem {theorem} needs q >= {q_min} at k={k}, got {q}")
    # before q^(k-1), which a huge k makes slow to compute
    pg.check_space(q, k)
    field(q)  # NotAPrimePower: no range for a field that does not exist
    _, d_top = _family_tops(theorem, q, k)
    return d_top - q * q + q, d_top


@dataclass(frozen=True)
class ChainPlan:
    """Recipe for one [g_q(k,d), k, d]_q code: s line and j point removals."""

    theorem: int
    q: int
    k: int
    d_target: int
    s: int
    j: int
    n_predicted: int
    d_top: int
    n_top: int


def plan_chain(theorem: int, q: int, k: int, d: int) -> ChainPlan:
    d_min, d_max = theorem_range(theorem, q, k)
    if not d_min <= d <= d_max:
        raise OutOfScope(f"d={d} outside the covered range [{d_min}, {d_max}]")
    n_top, d_top = _family_tops(theorem, q, k)
    s, j = divmod(d_top - d, q)
    n_predicted = n_top - s * (q + 1) - j
    # build_chain compares the chain's (n, k, d) with this plan, so this
    # test also puts every code it returns on the Griesmer bound
    if n_predicted != griesmer_bound(q, k, d):
        raise PlanInfeasible(
            f"stepping down to d={d} would give n={n_predicted}, "
            f"but the length bound is {griesmer_bound(q, k, d)}"
        )
    return ChainPlan(
        theorem=theorem, q=q, k=k, d_target=d, s=s, j=j,
        n_predicted=n_predicted, d_top=d_top, n_top=n_top,
    )


@dataclass(frozen=True)
class VerificationReport:
    """Certified parameters of one built code plus how it was built."""

    q: int
    k: int
    n: int
    d: int
    divisor: int
    gamma0: int
    spectrum: tuple[tuple[int, int], ...]
    griesmer_n: int
    is_griesmer: bool
    provenance: tuple[dict, ...]

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["spectrum"] = [list(pair) for pair in self.spectrum]
        # shared, not copied: mcode._json_text spells each step once
        out["provenance"] = list(self.provenance)
        return out


def _report(M: PointMultiset, provenance: list[dict]) -> VerificationReport:
    p = code_params(M)
    g = griesmer_bound(M.q, p.k, p.d)
    spectrum = tuple(hyperplane_spectrum(M).items())  # ascending in i
    return VerificationReport(
        q=M.q, k=p.k, n=p.n, d=p.d, divisor=p.divisor, gamma0=p.gamma0,
        spectrum=spectrum, griesmer_n=g, is_griesmer=(p.n == g),
        provenance=tuple(provenance),
    )


def _family_dual(theorem: int, q: int, k: int) -> tuple[PointMultiset, list[dict]]:
    """The family code's dual, checked against the closed forms, plus its
    construct and dual provenance steps."""
    top = code_c1(k, q) if theorem == 1 else code_c2(k, q)
    tp = code_params(top)
    dual = projective_dual(top, q)
    dp = code_params(dual)
    n_top, d_top = _family_tops(theorem, q, k)
    if (dp.n, dp.d) != (n_top, d_top):
        raise CertificationFailed(
            f"dual is [{dp.n},{k},{dp.d}]_{q}, closed forms give [{n_top},{k},{d_top}]_{q}"
        )
    record = dual.meta["transform"]
    steps = [
        {"op": "construct", "family": record["source_family"],
         "q": q, "k": k, "n": tp.n, "d": tp.d},
        {"op": "dual", "m": record["m"], "t": record["t"], "n": dp.n, "d": dp.d},
    ]
    return dual, steps


def _walk(code: PointMultiset, steps: list[dict], removals: list[pg.Flat | None]):
    """Yield (code, params, steps) before any removal and after each one.

    A removal is a support line (a Flat) or None, the smallest
    multiplicity-1 point.  The step is its puncture's record (the last of
    meta["history"], a line's op named puncture_line) with n and d for t;
    the t-flat must cost exactly (theta(t), q^t) in (n, d) and leave a code
    on the length bound.  A refused puncture (InputError) is a
    CertificationFailed too.  Removals walk the hyperplane vector; the
    caller checks the codes it ends on with recheck_hyperplanes.  The
    yielded steps list grows as the walk goes on, so a caller that keeps
    it copies it.
    """
    q, k = code.q, code.k
    params = code_params(code)
    steps = list(steps)
    yield code, params, steps
    for i, removal in enumerate(removals, start=1):
        try:
            if removal is None:
                code = puncture_point(code, simple_point(code))
            else:
                code = puncture_flat(code, removal)
        except InputError as exc:  # the walk chose the removal, so it is not bad input
            raise CertificationFailed(f"removal {i} failed: {exc}") from exc
        step = dict(code.meta["history"][-1])
        t = step.pop("t", 0)
        if t == 1:
            step["op"] = "puncture_line"
        cost = (pg.theta(t, q), q**t)
        new = code_params(code)
        if (params.n - new.n, params.d - new.d) != cost:
            raise CertificationFailed(
                f"removal changed (n, d) by ({params.n - new.n}, {params.d - new.d}), "
                f"expected {cost}"
            )
        if new.n != griesmer_bound(q, k, new.d):
            raise CertificationFailed(
                f"intermediate [{new.n},{k},{new.d}]_{q} misses the length bound "
                f"{griesmer_bound(q, k, new.d)}"
            )
        step.update(n=new.n, d=new.d)
        steps.append(step)
        params = new
        yield code, params, steps


def build_chain(plan: ChainPlan) -> tuple[PointMultiset, VerificationReport]:
    """Execute a plan and certify the resulting [g_q(k,d), k, d]_q code."""
    q, k = plan.q, plan.k
    dual, steps = _family_dual(plan.theorem, q, k)
    lines = find_disjoint_lines(dual, plan.s) if plan.s else []
    for code, params, steps in _walk(dual, steps, lines + [None] * plan.j):
        pass
    recheck_hyperplanes(code)
    if (params.n, params.k, params.d) != (plan.n_predicted, k, plan.d_target):
        raise CertificationFailed(
            f"chain produced [{params.n},{params.k},{params.d}]_{q}, "
            f"planned [{plan.n_predicted},{k},{plan.d_target}]_{q}"
        )
    return code, _report(code, steps)


def reproduce_table(theorem: int, q: int, k: int) -> list[VerificationReport]:
    """One certified report per distance in the family range, descending.

    The q-1 line prefixes are walked once; each prefix then walks its own
    point removals, bounded up front so no removal goes past d_min.  The
    kernel rechecks the end of the line walk and of the last point walk
    that removes anything.
    """
    d_min, d_max = theorem_range(theorem, q, k)
    dual, steps = _family_dual(theorem, q, k)
    line_walk = _walk(dual, steps, find_disjoint_lines(dual, q - 1))
    reports: list[VerificationReport] = []
    for s, (base, _, base_steps) in enumerate(line_walk):
        rest = d_max - s * q - d_min
        point_walk = _walk(base, base_steps, [None] * min(q - 1, rest))
        for j, (code, params, row_steps) in enumerate(point_walk):
            d_target = d_max - s * q - j
            if params.d != d_target or params.n != griesmer_bound(q, k, d_target):
                raise CertificationFailed(
                    f"row for d={d_target} produced [{params.n},{params.k},{params.d}]_{q}"
                )
            reports.append(_report(code, row_steps))
        if 0 < rest <= q:  # no later prefix removes a point
            recheck_hyperplanes(code)
    recheck_hyperplanes(base)
    if len(reports) != d_max - d_min + 1:
        raise CertificationFailed(
            f"the table has {len(reports)} rows, its range [{d_min}, {d_max}] "
            f"needs {d_max - d_min + 1}"
        )
    return reports
