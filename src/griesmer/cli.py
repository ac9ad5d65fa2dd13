"""Command-line interface.

Exit codes make the tool usable as a certifier in CI: 0 means success and
every requested check passed, 1 means a verification failed (a computed
value contradicts a certified one), 2 means the input was invalid.  All
subcommands are deterministic: identical invocations write identical
bytes.

A command line that names a command and then only that command's flags,
spelled in full, each with a well-formed value, is read straight from
`_COMMANDS`.  argparse is imported and run only for `--help` and for the
command lines that reading refuses (errors, abbreviated flags,
`--flag=value`), so usage lines, messages and exit codes stay its own.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .chains import build_chain, plan_chain, reproduce_table
from .constructs import base_code_1, base_code_2, code_c1, code_c2
from .errors import InputError, VerificationFailure
from .mcode import (
    _json_text,
    code_params,
    hyperplane_spectrum,
    open_output,
    oracle_weight_distribution,
    read_multiset,
    write_gmatrix,
    write_multiset,
)
from .transforms import (
    find_disjoint_lines,
    projective_dual,
    puncture_flat,
    puncture_point,
    recheck_hyperplanes,
    simple_point,
)

if TYPE_CHECKING:
    import argparse

_FAMILIES = {
    "base1": base_code_1,
    "base2": base_code_2,
    "c1": code_c1,
    "c2": code_c2,
}


def _describe(M) -> str:
    p = code_params(M)
    return f"[{p.n},{p.k},{p.d}]_{M.q} divisor={p.divisor} gamma0={p.gamma0}"


def _save(M, out) -> None:
    if out:
        write_multiset(M, out)
        print(f"wrote {out}")


def _cmd_construct(args) -> int:
    M = _FAMILIES[args.family](args.k, args.q)
    print(f"{args.family}: {_describe(M)}")
    _save(M, args.out)
    return 0


def _cmd_dual(args) -> int:
    M = read_multiset(args.infile)
    dual = projective_dual(M, args.divisor)
    recheck_hyperplanes(dual)  # the printed parameters rest on a kernel call
    print(f"dual: {_describe(dual)}")
    _save(dual, args.out)
    return 0


def _cmd_puncture(args) -> int:
    if args.points < 0:
        raise ValueError(f"need a nonnegative number of points, got {args.points}")
    M = read_multiset(args.infile)
    if args.lines:
        for line in find_disjoint_lines(M, args.lines):
            M = puncture_flat(M, line)
    for _ in range(args.points):
        M = puncture_point(M, simple_point(M))
    if args.lines or args.points:
        recheck_hyperplanes(M)
    print(f"punctured: {_describe(M)}")
    _save(M, args.out)
    return 0


def _cmd_chain(args) -> int:
    plan = plan_chain(args.theorem, args.q, args.k, args.d)
    code, report = build_chain(plan)
    print(
        f"certified [{report.n},{report.k},{report.d}]_{report.q} "
        f"griesmer_n={report.griesmer_n} is_griesmer={report.is_griesmer}"
    )
    _save(code, args.out)
    if args.report:
        with open_output(args.report) as fh:
            fh.write(_json_text(report.to_json()))
        print(f"wrote {args.report}")
    return 0


def _cmd_table(args) -> int:
    rows = reproduce_table(args.theorem, args.q, args.k)
    if args.format == "json":
        print(_json_text([r.to_json() for r in rows]), end="")
    else:
        width_n = max(len(str(r.n)) for r in rows)
        width_d = max(len(str(r.d)) for r in rows)
        for r in rows:
            print(f"{r.n:>{width_n}} {r.d:>{width_d}}")
    return 0


def _cmd_verify(args) -> int:
    M = read_multiset(args.infile)
    p = code_params(M)
    print(_describe(M))
    failures = []
    for label, expect, got in (
        ("n", args.expect_n, p.n),
        ("k", args.expect_k, p.k),
        ("d", args.expect_d, p.d),
    ):
        if expect is not None and expect != got:
            failures.append(f"{label}: expected {expect}, computed {got}")
    if args.oracle:
        # codeword 0, and q - 1 codewords of weight n - i per hyperplane of multiplicity i
        dist = oracle_weight_distribution(M)
        expected = {0: 1} | {p.n - i: (M.q - 1) * a for i, a in hyperplane_spectrum(M).items()}
        wrong = sorted(w for w in dist.keys() | expected.keys() if dist.get(w) != expected.get(w))
        if wrong:
            w = wrong[0]
            failures.append(
                f"weight {w}: oracle count {dist.get(w, 0)}, spectrum gives {expected.get(w, 0)}"
            )
        elif not failures:
            print(f"oracle: {M.q ** p.k} codewords agree with the hyperplane computation")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_export(args) -> int:
    M = read_multiset(args.infile)
    write_gmatrix(M, args.out)
    print(f"wrote {args.out}")
    return 0


_IN = ("--in", {"dest": "infile", "required": True})
_OUT = ("--out", {})
_Q = ("--q", {"required": True, "type": int})
_K = ("--k", {"required": True, "type": int})
_THEOREM = ("--theorem", {"required": True, "type": int, "choices": (1, 2)})
_ORACLE_HELP = "also weigh all q^k codewords by exact character sums and cross-check"

# name -> (help, its arguments in order); the handler is _cmd_<name>
_COMMANDS = {
    "construct": ("build a named family code", (
        ("--family", {"required": True, "choices": sorted(_FAMILIES)}), _Q, _K, _OUT)),
    "dual": ("projective dual of a multiset file", (
        _IN, ("--divisor", {"required": True, "type": int}), _OUT)),
    "puncture": ("remove disjoint support lines and points", (
        _IN, ("--lines", {"type": int, "default": 0}), ("--points", {"type": int, "default": 0}),
        _OUT)),
    "chain": ("build one certified length-optimal code", (
        _THEOREM, _Q, _K, ("--d", {"required": True, "type": int}), _OUT, ("--report", {}))),
    "table": ("certify every distance a family covers", (
        _THEOREM, _Q, _K, ("--format", {"choices": ("txt", "json"), "default": "txt"}))),
    "verify": ("recompute parameters of a multiset file", (
        _IN, ("--expect-n", {"type": int}), ("--expect-k", {"type": int}),
        ("--expect-d", {"type": int}), ("--oracle", {"action": "store_true", "help": _ORACLE_HELP}),
    )),
    "export": ("write the generator matrix of a multiset file", (
        _IN, ("--format", {"choices": ("gmatrix",), "default": "gmatrix"}),
        ("--out", {"required": True}))),
}


def make_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser, for what `_plain_args` does not read."""
    import argparse  # here, so a well-formed command line never imports it

    parser = argparse.ArgumentParser(
        prog="griesmer",
        description="Construct and certify length-optimal linear codes over GF(q).",
    )
    # no metavar: the "required: command" error reads the dest
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        # looked up now, so a replaced _cmd_* handler takes effect
        p.set_defaults(func=globals()[f"_cmd_{name}"])
    return parser


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would return for `argv`, read straight from
    `_COMMANDS`, when argv is a command followed only by that command's
    flags spelled in full: a store_true flag alone, any other flag with a
    next token that does not start with "-" and passes the flag's type and
    choices, and every required flag given.  None for any other argv."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = dict(_COMMANDS[argv[0]][1])
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        options = flags.get(flag)
        if options is None:
            return None
        if options.get("action") == "store_true":
            given[flag] = True
            continue
        token = next(tokens, "-")  # a flag at the end has no value
        if token.startswith("-"):
            return None
        try:
            value = options.get("type", str)(token)
        except ValueError:
            return None
        if "choices" in options and value not in options["choices"]:
            return None
        given[flag] = value
    if any(options.get("required") and flag not in given for flag, options in flags.items()):
        return None
    values = {"command": argv[0]}
    for flag, options in flags.items():
        unset = options.get("default", False if options.get("action") == "store_true" else None)
        values[options.get("dest", flag[2:].replace("-", "_"))] = given.get(flag, unset)
    # looked up now, so a replaced _cmd_* handler takes effect
    return SimpleNamespace(**values, func=globals()[f"_cmd_{argv[0]}"])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or make_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (InputError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
