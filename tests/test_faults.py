"""Faults that the certification checks must catch.

Each fault is one monkeypatch of a computation the pipeline runs (a kernel
result, the dual's vector from the incidence identity, a closed form, a
binomial, the curve, a field power or product, the lines of the
configuration, one step's indicator or record, the lines the skew search
returns), never of code_params or hyperplane_spectrum, whose reading is
what is under test.
Every fault runs through the `table` and `chain` commands at (1, 5, 5)
and (2, 5, 6), or at the one of them whose family the fault touches: the
command must exit 1 with the expected check's message, print nothing on
stdout and leave no output file.

Each expectation names its raise site as "module.function: template", the
message with "{}" for each formatted value.  The exception must come from
that function with a message of that template; tests/test_source.py
requires every raise of a VerificationFailure in the package to be some
fault's site or to sit in UNREACHABLE with the reason no fault reaches it.
"""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from griesmer import chains, cli, constructs, pg, transforms
from griesmer.cli import main
from griesmer.errors import VerificationFailure
from griesmer.gf import Field, field

# (theorem, q, k, chain distance): the chain walks 3 lines and 4 points,
# so it passes five point-sized steps when lines are taken as points
CASES = [(1, 5, 5, 881), (2, 5, 6, 9606)]

# raise sites that no fault of one computation reaches, and why
UNREACHABLE: dict[str, str] = {}


def _spoil_kernel(monkeypatch, call, spoil):
    """Change the kernel's result on its `call`-th call (1 is the family
    code) in place with spoil(m, q, k)."""
    kernel = pg.hyperplane_multiplicities
    calls = []

    def spoiled(F, r, support, weights):
        m = kernel(F, r, support, weights)
        calls.append(None)
        if len(calls) == call:
            spoil(m, F.q, r + 1)
        return m

    monkeypatch.setattr(pg, "hyperplane_multiplicities", spoiled)


def _spoil_identity(monkeypatch, spoil):
    """Change the dual's hyperplane vector, read off the incidence identity,
    in place with spoil(m, q, k)."""
    mults = transforms._dual_mults

    def spoiled(M, m):
        vec = mults(M, m)
        spoil(vec, M.q, M.k)
        return vec

    monkeypatch.setattr(transforms, "_dual_mults", spoiled)


def _roll_by_one(m, q, k):
    m[:] = np.roll(m, 1)


def _spoil_step_indicator(monkeypatch, spoil):
    """Replace the hyperplanes-through-S indicator of every removal step
    with spoil(through, M, flat), M the code the step removes from."""
    walk, containing = transforms._walk_mults, pg.hyperplanes_containing
    code = []

    def walked(M, flat):
        code[:] = [M]
        return walk(M, flat)

    def spoiled(F, flat):
        through = containing(F, flat)
        return spoil(through, code[0], flat) if code else through

    monkeypatch.setattr(transforms, "_walk_mults", walked)
    monkeypatch.setattr(pg, "hyperplanes_containing", spoiled)


def _line_one_lower(through, M, flat):
    """Every entry one lower, the count put back on one hyperplane through
    the line: a hyperplane of maximal multiplicity off the line now loses
    1 - q, so d falls by 2q."""
    if flat.dim != 1:
        return through
    spoiled = through.astype(np.int64) - 1
    spoiled[through.argmax()] += len(through)
    return spoiled


def _point_on_every_top_hyperplane(through, M, flat):
    """Every hyperplane of maximal multiplicity holds the point, which keeps
    d.  The count comes off the hyperplane of least multiplicity, and no
    other hyperplane reaches the top: m'(H) = m(H) - ind(H) <= max - 1."""
    if flat.dim != 0:
        return through
    m = M.hyperplane_mults()
    spoiled = m - m.max() + 1
    spoiled[m.argmin()] += through.sum() - spoiled.sum()
    return spoiled


def _drop_one_then_restore():
    """The first point step's indicator misses its hyperplane of least
    multiplicity, and the next step's holds it once more: the walked vector
    is one too high there in between, far below the top, so d stays right,
    and it is right again after the second step."""
    dropped = []

    def spoil(through, M, flat):
        spoiled = through.astype(np.int64)
        if flat.dim == 0 and not dropped:
            held = np.flatnonzero(through)
            dropped.append(held[M.hyperplane_mults()[held].argmin()])
            spoiled[dropped[0]] -= 1
        elif len(dropped) == 1:
            spoiled[dropped[0]] += 1
            dropped.append(None)
        return spoiled

    return spoil


def _no_hyperplane_through_q(monkeypatch):
    """The first indicator the pipeline asks for, the hyperplanes through
    Q, comes back empty."""
    containing = pg.hyperplanes_containing
    calls = []

    def spoiled(F, flat):
        calls.append(None)
        through = containing(F, flat)
        return np.zeros_like(through) if len(calls) == 1 else through

    monkeypatch.setattr(pg, "hyperplanes_containing", spoiled)


def _shift_every_entry(m, q, k):
    m += 1


def _lower_the_least_entry(by):
    def spoil(m, q, k):
        m[m.argmin()] -= by(q, k)

    return spoil


def _square_every_alpha_power(monkeypatch):
    power = Field.alpha_power
    monkeypatch.setattr(Field, "alpha_power", lambda F, i: power(F, 2 * i))


def _spoil_an_inverse_product(monkeypatch):
    # 2^-1 * 2 = 3 * 2 = 1 in GF(5), both cases' field, spoiled to 2
    F = field(5)
    add, mul = F.tables
    spoiled = mul.copy()
    spoiled[3, 2] = 2
    monkeypatch.setattr(F, "_tables", (add, spoiled))


def _spoil_curve(monkeypatch, spoil):
    curve = constructs.normal_rational_curve
    monkeypatch.setattr(constructs, "normal_rational_curve", lambda k, q: spoil(curve(k, q)))


def _spoil_config(monkeypatch, spoil):
    config = constructs.line_config
    monkeypatch.setattr(constructs, "line_config", lambda k, q: spoil(config(k, q)))


def _spoil_lines(monkeypatch, spoil):
    """Change the rows of the first flat_indices call over stacked point
    pairs, the configuration's lines l_1..l_q (flat_points' call for l0
    comes before it), with spoil(rows, flat_indices, F, pairs)."""
    flat_indices = pg.flat_indices
    calls = []

    def spoiled(F, basis):
        rows = flat_indices(F, basis)
        if np.ndim(basis) == 3:
            calls.append(None)
            if len(calls) == 1:
                spoil(rows, flat_indices, F, np.asarray(basis))
        return rows

    monkeypatch.setattr(pg, "flat_indices", spoiled)


def _l0_as_line_1(rows, flat_indices, F, pairs):
    rows[0] = flat_indices(F, pairs[[0, -1], 1])  # the pairs' second rows are Q_1..Q_q, on l0


def _line_1_twice(rows, flat_indices, F, pairs):
    rows[1] = rows[0]


def _point_of_line_1(cfg):
    return next(P for P in cfg.lines[0] if P not in cfg.l0)


def _family_tops_one_line_down(monkeypatch):
    tops = chains._family_tops

    def spoiled(theorem, q, k):
        n_top, d_top = tops(theorem, q, k)
        return n_top - q - 1, d_top - q  # still a consistent plan, so only the dual's check sees it

    monkeypatch.setattr(chains, "_family_tops", spoiled)


def _family_tops_one_longer(monkeypatch):
    tops = chains._family_tops

    def spoiled(theorem, q, k):
        n_top, d_top = tops(theorem, q, k)
        return n_top + 1, d_top

    monkeypatch.setattr(chains, "_family_tops", spoiled)


def _skew_search_one_line_short(monkeypatch):
    search = chains.find_disjoint_lines
    monkeypatch.setattr(chains, "find_disjoint_lines", lambda M, count: search(M, count)[:-1])


def _simple_point_off_the_support(monkeypatch):
    """chains.simple_point names a point of multiplicity 0, which
    puncture_point refuses with an InputError."""

    def zero_point(M):
        return tuple(pg.point_digits(M.q, M.r, np.flatnonzero(M.counts == 0)[:1])[0].tolist())

    monkeypatch.setattr(chains, "simple_point", zero_point)


def _line_record_says_t_0(monkeypatch):
    """Every line's puncture records t = 0, a point's, though q+1 points go."""
    puncture = chains.puncture_flat

    def misstated(M, flat):
        out = puncture(M, flat)
        out.meta["history"][-1]["t"] = 0
        return out

    monkeypatch.setattr(chains, "puncture_flat", misstated)


def _walked_vector_off_by_one(monkeypatch):
    """Each walked update is one too low on its least hyperplane: n and d
    stay right, so only the kernel recheck at a walk's end sees it."""
    walk = transforms._walk_mults

    def wrong(M, flat):
        walked = walk(M, flat)
        walked[walked.argmin()] -= 1
        return walked

    monkeypatch.setattr(transforms, "_walk_mults", wrong)


def _dual_message(theorem, q, k, got=lambda n, d: (n, d), want=lambda n, d: (n, d)):
    """The closed-form check's message, its two sides changed from the
    family's true (n_top, d_top) by got and want."""
    tops = chains._family_tops(theorem, q, k)
    (n, d), (n2, d2) = got(*tops), want(*tops)
    return re.escape(f"dual is [{n},{k},{d}]_{q}, closed forms give [{n2},{k},{d2}]_{q}")


def _both(site, message=None):
    return {"table": (site, message), "chain": (site, message)}


_FAMILY_CLOSED_FORMS = "chains._family_dual: dual is [{},{},{}]_{}, closed forms give [{},{},{}]_{}"
_FAMILY_PARAMS = "constructs._verified: built [{},{},{}]_{}, wanted [{},{},{}]_{}"


def _family_params(theorem, q, k, d):
    return rf"built \[\d+,{k},\d+\]_{q}, wanted"


# name: (install(monkeypatch), {command: (site, message)}, cases), where
# message(theorem, q, k, d), if given, is a pattern the message must hold
FAULTS = {
    # constructs.line_config: the configuration's invariants
    "l0-points": (
        _square_every_alpha_power,
        _both("constructs.line_config: transversal line does not consist of the stated points"),
        CASES,
    ),
    # pg.vector_indices: a product the tables give wrong, before any index
    "inverse-product": (
        _spoil_an_inverse_product,
        _both("pg.vector_indices: GF({})'s tables give {}^-1 * {} = {}, not 1",
              lambda t, q, k, d: r"GF\(5\)'s tables give 2\^-1 \* 2 = 2, not 1"),
        CASES,
    ),
    "arc-off-the-hyperplane": (
        # arc_check's membership test is the hyperplane condition
        lambda mp: _spoil_curve(mp, lambda arc: arc[:-1] + [arc[-1][:-1] + (1,)]),
        _both("constructs.line_config: curve points fail the arc condition"),
        CASES,
    ),
    "arc-condition": (
        lambda mp: _spoil_curve(mp, lambda arc: arc[:2] + [arc[1]] + arc[3:]),
        _both("constructs.line_config: curve points fail the arc condition"),
        CASES,
    ),
    # the arc condition decides the lines' invariants, so a spoiled line, a
    # special point or Q on a line shows as the family code's (n, d)
    "line-on-l0": (
        lambda mp: _spoil_lines(mp, _l0_as_line_1),
        _both(_FAMILY_PARAMS, _family_params),
        CASES,
    ),
    "lines-overlap": (
        lambda mp: _spoil_lines(mp, _line_1_twice),
        _both(_FAMILY_PARAMS, _family_params),
        CASES,
    ),
    "special-point-on-a-line": (
        # l_q first: base2 takes l_1..l_{q-1}, now l_q among them, so P_q is on one
        lambda mp: _spoil_config(mp, lambda cfg: dataclasses.replace(cfg, lines=cfg.lines[::-1])),
        _both(_FAMILY_PARAMS, _family_params),
        CASES[1:],
    ),
    "q-on-a-line": (
        lambda mp: _spoil_config(mp, lambda cfg: dataclasses.replace(cfg, q_point=_point_of_line_1(cfg))),
        _both(_FAMILY_PARAMS, _family_params),
        CASES,
    ),
    "q-indicator": (
        _no_hyperplane_through_q,
        _both("constructs._check_q_point_clear: a maximal-multiplicity hyperplane contains the extra point Q"),
        CASES,
    ),
    # constructs._verified: the family code's (n, d), divisibility and a_i
    "family-distance": (
        lambda mp: _spoil_kernel(mp, 1, _shift_every_entry),
        _both(_FAMILY_PARAMS, _family_params),
        CASES,
    ),
    "family-divisibility": (
        lambda mp: _spoil_kernel(mp, 1, _lower_the_least_entry(lambda q, k: 1)),
        _both("constructs._verified: weights are not all divisible by {}",
              lambda t, q, k, d: f"weights are not all divisible by {q}"),
        CASES,
    ),
    "family-spectrum": (
        lambda mp: mp.setattr(constructs, "comb", lambda a, b: math.comb(a, b) + 1),
        _both("constructs._verified: a_{} = {}, expected {}",
              lambda t, q, k, d: r"a_\d+ = \d+, expected \d+"),
        CASES,
    ),
    # transforms.projective_dual holds (n*, d*) to the closed forms.  Its
    # divisor and mirrored spectrum follow from the identity's form
    # top - t*c(P) once d* holds, so a spoiled entry that keeps (n*, d*)
    # is the kernel recheck's to see, where the chain or table walk ends
    "dual-distance": (
        lambda mp: _spoil_identity(mp, _shift_every_entry),
        _both("transforms.projective_dual: dual is [{},{},{}]_{}, closed forms give [{},{},{}]_{}",
              lambda t, q, k, d: _dual_message(t, q, k, got=lambda n, d: (n, d - 1))),
        CASES,
    ),
    "dual-divisor": (
        lambda mp: _spoil_identity(mp, _lower_the_least_entry(lambda q, k: 1)),
        _both("transforms.recheck_hyperplanes: the walked hyperplane vector differs from the kernel's on {} hyperplanes"),
        CASES,
    ),
    "dual-spectrum": (
        # a multiple of the dual's divisor t = q^(k-3), so only the mirror moves
        lambda mp: _spoil_identity(mp, _lower_the_least_entry(lambda q, k: q ** (k - 3))),
        _both("transforms.recheck_hyperplanes: the walked hyperplane vector differs from the kernel's on {} hyperplanes"),
        CASES,
    ),
    # chains: the dual against the family's own closed forms, and the plan
    "family-tops": (
        _family_tops_one_line_down,
        _both(_FAMILY_CLOSED_FORMS,
              lambda t, q, k, d: _dual_message(t, q, k, want=lambda n, d: (n - q - 1, d - q))),
        CASES,
    ),
    "n-top": (
        # the plan reads n_top first; the table never plans, and its dual sees it
        _family_tops_one_longer,
        {
            "chain": ("chains.plan_chain: stepping down to d={} would give n={}, but the length bound is {}",
                      lambda t, q, k, d: rf"stepping down to d={d} would give n=\d+, but the length bound is \d+"),
            "table": (_FAMILY_CLOSED_FORMS,
                      lambda t, q, k, d: _dual_message(t, q, k, want=lambda n, d: (n + 1, d))),
        },
        CASES,
    ),
    # transforms._walk_mults: one step's indicator short, the next one's long
    "step-dropped-then-restored": (
        lambda mp: _spoil_step_indicator(mp, _drop_one_then_restore()),
        _both("transforms._walk_mults: the indicator of a {}-flat holds {} hyperplanes, not {}",
              lambda t, q, k, d: f"indicator of a 0-flat holds {pg.theta(k - 2, q) - 1} hyperplanes, "
                                 f"not {pg.theta(k - 2, q)}"),
        CASES,
    ),
    # chains._walk: a line step whose walked d leaves [d - q, d].  Only an
    # indicator with entries off 0/1 does that, and the removal's own
    # update does not restate the bound, so the walk's exact cost sees it
    "line-step-range": (
        lambda mp: _spoil_step_indicator(mp, _line_one_lower),
        _both("chains._walk: removal changed (n, d) by ({}, {}), expected {}",
              lambda t, q, k, d: rf"removal changed \(n, d\) by \({q + 1}, {2 * q}\), expected \({q + 1}, {q}\)"),
        CASES,
    ),
    # chains._walk: a point step that keeps d.  A line step cannot: it keeps
    # d only if every entry is at least (m(H) - max + 1) / q, rounded up, 1
    # on each maximal hyperplane, and on the two duals those bounds add up
    # to 611 and 2956, above the theta(k-3) = 31 and 156 an indicator holds
    "point-step-cost": (
        lambda mp: _spoil_step_indicator(mp, _point_on_every_top_hyperplane),
        _both("chains._walk: removal changed (n, d) by ({}, {}), expected {}",
              lambda t, q, k, d: r"removal changed \(n, d\) by \(1, 0\), expected \(1, 1\)"),
        CASES,
    ),
    # chains._walk: the cost is read off the puncture's record
    "line-record-t": (
        _line_record_says_t_0,
        _both("chains._walk: removal changed (n, d) by ({}, {}), expected {}",
              lambda t, q, k, d: rf"removal changed \(n, d\) by \({q + 1}, {q}\), expected \(1, 1\)"),
        CASES,
    ),
    # chains._walk: a removal the puncture refuses is the walk's fault
    "simple-point-off-the-support": (
        _simple_point_off_the_support,
        _both("chains._walk: removal {} failed: {}",
              lambda t, q, k, d: r"removal \d+ failed: .* has multiplicity 0$"),
        CASES,
    ),
    # transforms.recheck_hyperplanes: the walked vector where walks end
    "dual-identity-rolled": (
        # the dual's n, d, divisor and spectrum hold, so only the kernel sees it
        lambda mp: _spoil_identity(mp, _roll_by_one),
        _both("transforms.recheck_hyperplanes: the walked hyperplane vector differs from the kernel's on {} hyperplanes"),
        CASES,
    ),
    "walked-vector": (
        _walked_vector_off_by_one,
        _both("transforms.recheck_hyperplanes: the walked hyperplane vector differs from the kernel's on {} hyperplanes"),
        CASES,
    ),
    # a chain that ends off its plan; a table with a row missing
    "skew-search-one-line-short": (
        _skew_search_one_line_short,
        {
            "chain": ("chains.build_chain: chain produced [{},{},{}]_{}, planned [{},{},{}]_{}",
                      lambda t, q, k, d: rf"chain produced \[\d+,{k},{d + q}\]_{q}, planned \[\d+,{k},{d}\]_{q}"),
            "table": ("chains.reproduce_table: the table has {} rows, its range [{}, {}] needs {}",
                      lambda t, q, k, d: rf"the table has {q * q - q} rows, its range \[\d+, \d+\] needs {q * q - q + 1}"),
        },
        CASES,
    ),
}

# test_points_in_place_of_lines_miss_the_bound's expectations
POINTS_FOR_LINES = {
    # each step costs (1, 1) as a point removal should, so the chain's fifth
    # step, to a d one above a multiple of q, leaves the length bound
    "chain": ("chains._walk: intermediate [{},{},{}]_{} misses the length bound {}",
              lambda t, q, k, d: rf"intermediate \[\d+,{k},\d+\]_{q} misses the length bound"),
    # the table's second row is read before its walk gets that far
    "table": ("chains.reproduce_table: row for d={} produced [{},{},{}]_{}",
              lambda t, q, k, d: r"row for d=\d+ produced"),
}


def caught_sites() -> set[str]:
    """Every raise site some fault is expected to reach."""
    expectations = [*POINTS_FOR_LINES.values()]
    for _, expect, _ in FAULTS.values():
        expectations += expect.values()
    return {site for site, _ in expectations}


def _runs():
    for fault, (_, _, cases) in sorted(FAULTS.items()):
        for command in ("table", "chain"):
            for case in cases:
                yield pytest.param(fault, command, *case, id="-".join([fault, command, *map(str, case)]))


@pytest.mark.parametrize("fault,command,theorem,q,k,d", list(_runs()))
def test_every_fault_is_caught(fault, command, theorem, q, k, d, monkeypatch, tmp_path, capsys):
    install, expect, _ = FAULTS[fault]
    site, message = expect[command]
    expected = message(theorem, q, k, d) if message else ""  # before the fault changes what it reads
    install(monkeypatch)
    _expect_failure(command, theorem, q, k, d, monkeypatch, tmp_path, capsys, site, expected)


@pytest.mark.parametrize("theorem,q,k,d", CASES, ids=lambda v: str(v))
@pytest.mark.parametrize("command", ["table", "chain"])
def test_points_in_place_of_lines_miss_the_bound(command, theorem, q, k, d, monkeypatch, tmp_path, capsys):
    # the skew search hands back "take a point" for every line
    monkeypatch.setattr(chains, "find_disjoint_lines", lambda M, count: [None] * count)
    site, message = POINTS_FOR_LINES[command]
    _expect_failure(command, theorem, q, k, d, monkeypatch, tmp_path, capsys, site, message(theorem, q, k, d))


def _raise_site(monkeypatch, command) -> list[str]:
    """Record "module.function" of the frame that raises the command's
    VerificationFailure, then let it go on to cli.main."""
    run, origins = getattr(cli, f"_cmd_{command}"), []

    def recorded(args):
        try:
            return run(args)
        except VerificationFailure as exc:
            tb = exc.__traceback__
            while tb.tb_next:
                tb = tb.tb_next
            code = tb.tb_frame.f_code
            origins.append(f"{Path(code.co_filename).stem}.{code.co_name}")
            raise

    monkeypatch.setattr(cli, f"_cmd_{command}", recorded)
    return origins


def _expect_failure(command, theorem, q, k, d, monkeypatch, tmp_path, capsys, site, expected):
    origins = _raise_site(monkeypatch, command)
    argv = [command, "--theorem", str(theorem), "--q", str(q), "--k", str(k)]
    if command == "chain":
        argv += ["--d", str(d), "--out", str(tmp_path / "code.ms"),
                 "--report", str(tmp_path / "report.json")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(rf"^verification failed: .*{expected}", captured.err, re.M), captured.err
    function, _, template = site.partition(": ")
    assert origins == [function]
    pattern = ".*".join(map(re.escape, template.split("{}")))
    assert re.fullmatch(rf"verification failed: {pattern}\n", captured.err, re.S), captured.err
    assert list(tmp_path.iterdir()) == []
