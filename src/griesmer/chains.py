"""Length-optimal code chains: plan, execute, certify.

For each of the two divisible-code families the pipeline is identical:
build the family code, take its projective dual, then walk down in
distance by removing s pairwise disjoint support lines (each costs q+1 in
length and exactly q in distance) followed by j single points (each costs
1 and 1).  Every target distance d in a family's range decomposes as
d_top - s*q - j, and by construction each resulting length meets the
Griesmer bound sum(ceil(d/q^i)) exactly.

Closed forms are never trusted: the dual is recomputed and compared, each
removal step is re-verified, and a row only enters a table after its
parameters are certified from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import pg
from .constructs import code_c1, code_c2
from .errors import CertificationFailed, OutOfScope, PlanInfeasible
from .mcode import PointMultiset, code_params, hyperplane_spectrum
from .transforms import find_disjoint_lines, projective_dual, puncture_flat, puncture_point


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
    """Inclusive distance range (d_min, d_max) covered by a family."""
    if theorem not in (1, 2):
        raise OutOfScope(f"theorem must be 1 or 2, got {theorem}")
    if k == 5:
        raise OutOfScope("k=5 relies on an external construction; this library covers k >= 6")
    if k < 6:
        raise OutOfScope(f"need k >= 6, got {k}")
    q_min = k - 2 if theorem == 1 else max(5, k - 2)
    if q < q_min:
        raise OutOfScope(f"theorem {theorem} needs q >= {q_min} at k={k}, got {q}")
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
        return {
            "q": self.q,
            "k": self.k,
            "n": self.n,
            "d": self.d,
            "divisor": self.divisor,
            "gamma0": self.gamma0,
            "spectrum": [list(pair) for pair in self.spectrum],
            "griesmer_n": self.griesmer_n,
            "is_griesmer": self.is_griesmer,
            "provenance": [dict(step) for step in self.provenance],
        }


def _report(M: PointMultiset, provenance: list[dict]) -> VerificationReport:
    p = code_params(M)
    g = griesmer_bound(M.q, p.k, p.d)
    spectrum = tuple(sorted(hyperplane_spectrum(M).items()))
    return VerificationReport(
        q=M.q, k=p.k, n=p.n, d=p.d, divisor=p.divisor, gamma0=p.gamma0,
        spectrum=spectrum, griesmer_n=g, is_griesmer=(p.n == g),
        provenance=tuple(provenance),
    )


@dataclass
class ChainContext:
    """Shared per-(theorem, q, k) state: one dual code, one skew-line list."""

    theorem: int
    q: int
    k: int
    dual: PointMultiset | None = None
    lines: list = dc_field(default_factory=list)
    steps: list = dc_field(default_factory=list)

    def build(self) -> None:
        if self.dual is not None:
            return
        q, k = self.q, self.k
        top = code_c1(k, q) if self.theorem == 1 else code_c2(k, q)
        tp = code_params(top)
        self.steps.append(
            {"op": "construct", "family": "c1" if self.theorem == 1 else "c2",
             "q": q, "k": k, "n": tp.n, "d": tp.d}
        )
        dual = projective_dual(top, q)
        dp = code_params(dual)
        n_top, d_top = _family_tops(self.theorem, q, k)
        if (dp.n, dp.d) != (n_top, d_top):
            raise CertificationFailed(
                f"dual is [{dp.n},{k},{dp.d}]_{q}, closed forms give [{n_top},{k},{d_top}]_{q}"
            )
        self.steps.append(
            {"op": "dual", "m": q, "t": q ** (k - 2) // q, "n": dp.n, "d": dp.d}
        )
        self.dual = dual

    def skew_lines(self, count: int) -> list:
        self.build()
        if count > len(self.lines) and count > 0:
            self.lines = find_disjoint_lines(self.dual, count)
        return self.lines[:count]


def _verify_step(before, after, dn: int, dd: int, q: int, k: int) -> None:
    """Each removal must cost exactly (dn, dd) and stay length-optimal."""
    if (before.n - after.n, before.d - after.d) != (dn, dd):
        raise CertificationFailed(
            f"removal changed (n, d) by ({before.n - after.n}, {before.d - after.d}), "
            f"expected ({dn}, {dd})"
        )
    if after.n != griesmer_bound(q, k, after.d):
        raise CertificationFailed(
            f"intermediate [{after.n},{k},{after.d}]_{q} misses the length bound "
            f"{griesmer_bound(q, k, after.d)}"
        )


def _chain_point(code: PointMultiset) -> tuple[int, ...]:
    """Smallest single-multiplicity support point.

    Removing it keeps the support spanning whenever d >= 2, the condition
    puncture_point enforces before any removal: every hyperplane H misses
    n - m(H) >= d points of the multiset, and one removal leaves
    n' - m'(H) >= d - 1 >= 1, so no hyperplane holds the new support.
    """
    for P in code.support:
        if code.mults[P] == 1:
            return P
    raise CertificationFailed("no support point has multiplicity 1")


def build_chain(
    plan: ChainPlan, shared: ChainContext | None = None
) -> tuple[PointMultiset, VerificationReport]:
    """Execute a plan and certify the resulting [g_q(k,d), k, d]_q code."""
    ctx = shared or ChainContext(plan.theorem, plan.q, plan.k)
    ctx.build()
    q, k = plan.q, plan.k
    steps = list(ctx.steps)
    code = ctx.dual
    params = code_params(code)
    for line in ctx.skew_lines(plan.s):
        new_code = puncture_flat(code, line)
        new_params = code_params(new_code)
        _verify_step(params, new_params, q + 1, q, q, k)
        steps.append(
            {"op": "puncture_line",
             "points": [list(P) for P in pg.flat_points(code.field, line)],
             "n": new_params.n, "d": new_params.d}
        )
        code, params = new_code, new_params
    for _ in range(plan.j):
        P = _chain_point(code)
        new_code = puncture_point(code, P)
        new_params = code_params(new_code)
        _verify_step(params, new_params, 1, 1, q, k)
        steps.append(
            {"op": "puncture_point", "point": list(P),
             "n": new_params.n, "d": new_params.d}
        )
        code, params = new_code, new_params
    if (params.n, params.k, params.d) != (plan.n_predicted, k, plan.d_target):
        raise CertificationFailed(
            f"chain produced [{params.n},{params.k},{params.d}]_{q}, "
            f"planned [{plan.n_predicted},{k},{plan.d_target}]_{q}"
        )
    report = _report(code, steps)
    if not report.is_griesmer:
        raise CertificationFailed("final code misses the Griesmer bound")
    return code, report


def reproduce_table(theorem: int, q: int, k: int) -> list[VerificationReport]:
    """One certified report per distance in the family range, descending."""
    d_min, d_max = theorem_range(theorem, q, k)
    ctx = ChainContext(theorem, q, k)
    ctx.build()
    lines = ctx.skew_lines(q - 1)
    reports: list[VerificationReport] = []
    base = ctx.dual
    base_params = code_params(base)
    base_steps = list(ctx.steps)
    for s in range(q):
        if s > 0:
            new_base = puncture_flat(base, lines[s - 1])
            new_params = code_params(new_base)
            _verify_step(base_params, new_params, q + 1, q, q, k)
            base_steps.append(
                {"op": "puncture_line",
                 "points": [list(P) for P in pg.flat_points(base.field, lines[s - 1])],
                 "n": new_params.n, "d": new_params.d}
            )
            base, base_params = new_base, new_params
        code, params = base, base_params
        steps = list(base_steps)
        for j in range(q):
            d_target = d_max - s * q - j
            if d_target < d_min:
                break
            if j > 0:
                P = _chain_point(code)
                new_code = puncture_point(code, P)
                new_params = code_params(new_code)
                _verify_step(params, new_params, 1, 1, q, k)
                steps.append(
                    {"op": "puncture_point", "point": list(P),
                     "n": new_params.n, "d": new_params.d}
                )
                code, params = new_code, new_params
            if params.d != d_target or params.n != griesmer_bound(q, k, d_target):
                raise CertificationFailed(
                    f"row for d={d_target} produced [{params.n},{params.k},{params.d}]_{q}"
                )
            reports.append(_report(code, steps))
    return reports
