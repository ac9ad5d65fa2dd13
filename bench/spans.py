"""Outside-in span recording for traced benchmark children.

`Tracer.install` wraps the public functions listed in TARGETS and binds
each wrapper wherever the griesmer package holds the original, including
the by-name imports (`from .mcode import code_params`) in other modules.
Every call then records a span: name, parent span, start, end, and a
count computed from the call's argument or result sizes.  Spans stay in
memory until the child writes them out at exit.  Nothing under src/
changes; `uninstall` puts every original back.

`layer_metrics` turns the spans of one traced run (one list per child
process) into the per-layer metrics named in LAYER_METRICS.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from functools import wraps


def _file_bytes(path) -> int:
    """Size of a multiset file plus its provenance sidecar, if any."""
    total = 0
    for p in (str(path), str(path) + ".meta.json"):
        if os.path.exists(p):
            total += os.path.getsize(p)
    return total


# (module, attribute, count) where count(bound_arguments, result) -> int
TARGETS = (
    ("gf", "field_create", None),
    ("pg", "enumerate_points", None),
    ("pg", "hyperplane_multiplicities", lambda a, res: len(a["support"]) * len(res)),
    ("pg", "rank", lambda a, res: len(a["rows"])),
    ("pg", "flat_points", None),
    ("mcode", "PointMultiset.__init__", lambda a, res: len(a["mults"])),
    ("mcode", "code_params", None),
    ("mcode", "hyperplane_spectrum", None),
    ("mcode", "read_multiset", lambda a, res: _file_bytes(a["path"])),
    ("mcode", "write_multiset", lambda a, res: _file_bytes(a["path"])),
    ("mcode", "oracle_weight_distribution", lambda a, res: a["M"].q ** a["M"].k * a["M"].n),
    ("constructs", "code_c1", None),
    ("constructs", "code_c2", None),
    ("transforms", "projective_dual", None),
    ("transforms", "puncture_flat", None),
    ("transforms", "puncture_point", None),
    ("transforms", "find_disjoint_lines", None),
    ("chains", "build_chain", lambda a, res: 1),
    ("chains", "reproduce_table", lambda a, res: len(res)),
    ("cli", "main", None),
)


PACKAGE = "griesmer"


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, count]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if count else None
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if count:
                rec[4] = count(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod_name, attr, count in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:  # a method: the one class object serves every caller
                owner = getattr(mod, owner_name)
                original = owner.__dict__[fn_name]
                self._bind(owner, fn_name, original, self._wrap(f"{mod_name}.{attr}", original, count))
                continue
            original = getattr(mod, fn_name)
            wrapper = self._wrap(f"{mod_name}.{attr}", original, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._bind(m, key, original, wrapper)

    def _bind(self, owner, key: str, original, wrapper) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)


# name -> unit; the order is the order of the result
LAYER_METRICS = {
    "pg.kernel_s": "s",
    "pg.kernel_calls": "count",
    "pg.kernel_incidences": "count",
    "pg.kernel_incidences_per_s": "1/s",
    "pg.rank_s": "s",
    "pg.rank_calls": "count",
    "pg.rank_rows": "count",
    "chains.rank_calls_per_point": "1",
    "mcode.multiset_build_s": "s",
    "mcode.points_built": "count",
    "mcode.code_params_self_s": "s",
    "mcode.params_hit_ratio": "1",
    "mcode.oracle_s": "s",
    "mcode.oracle_symbols": "count",
    "mcode.write_s": "s",
    "mcode.bytes_written": "B",
    "mcode.read_s": "s",
    "mcode.bytes_read": "B",
    "cli.self_s": "s",
    "cli.stdout_bytes": "B",
    "transforms.dual_s": "s",
    "transforms.dual_self_s": "s",
    "transforms.puncture_flat_s": "s",
    "transforms.puncture_point_s": "s",
    "transforms.skew_search_s": "s",
    "constructs.family_s": "s",
    "chains.self_s": "s",
    "chains.codes_certified": "count",
    "gf.field_create_s": "s",
    "pg.enumerate_points_s": "s",
    "trace.overhead_s": "s",
}

# counts derived from argument or result sizes: equal on every traced run
COMPUTED_COUNTS = (
    "pg.kernel_calls", "pg.kernel_incidences", "pg.rank_calls", "pg.rank_rows",
    "mcode.points_built", "mcode.oracle_symbols", "mcode.bytes_written",
    "mcode.bytes_read", "chains.codes_certified",
)

WALKERS = ("chains.build_chain", "chains.reproduce_table")
KERNEL = "pg.hyperplane_multiplicities"


def layer_metrics(children: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one traced run from each child's spans.

    trace.overhead_s and cli.stdout_bytes are not span data; the caller
    fills them in.
    """
    total = defaultdict(float)   # summed span durations per name
    own = defaultdict(float)     # self time: duration minus direct children
    calls = defaultdict(int)
    counts = defaultdict(int)
    walker_ranks = walker_points = params_hits = 0
    for spans in children:
        covered = [0.0] * len(spans)
        kernel_child = [False] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
                kernel_child[parent] |= name == KERNEL
        for i, (name, parent, start, end, count) in enumerate(spans):
            total[name] += end - start
            own[name] += end - start - covered[i]
            calls[name] += 1
            counts[name] += count
            in_walker = parent >= 0 and spans[parent][0] in WALKERS
            walker_ranks += name == "pg.rank" and in_walker
            walker_points += name == "transforms.puncture_point" and in_walker
            params_hits += name == "mcode.code_params" and not kernel_child[i]
    kernel_s = total[KERNEL]
    return {
        "pg.kernel_s": kernel_s,
        "pg.kernel_calls": calls[KERNEL],
        "pg.kernel_incidences": counts[KERNEL],
        "pg.kernel_incidences_per_s": counts[KERNEL] / kernel_s if kernel_s else 0.0,
        "pg.rank_s": total["pg.rank"],
        "pg.rank_calls": calls["pg.rank"],
        "pg.rank_rows": counts["pg.rank"],
        "chains.rank_calls_per_point": walker_ranks / walker_points if walker_points else 0.0,
        "mcode.multiset_build_s": total["mcode.PointMultiset.__init__"],
        "mcode.points_built": counts["mcode.PointMultiset.__init__"],
        "mcode.code_params_self_s": own["mcode.code_params"],
        "mcode.params_hit_ratio": (params_hits / calls["mcode.code_params"]
                                   if calls["mcode.code_params"] else 0.0),
        "mcode.oracle_s": total["mcode.oracle_weight_distribution"],
        "mcode.oracle_symbols": counts["mcode.oracle_weight_distribution"],
        "mcode.write_s": total["mcode.write_multiset"],
        "mcode.bytes_written": counts["mcode.write_multiset"],
        "mcode.read_s": total["mcode.read_multiset"],
        "mcode.bytes_read": counts["mcode.read_multiset"],
        "cli.self_s": own["cli.main"],
        "transforms.dual_s": total["transforms.projective_dual"],
        "transforms.dual_self_s": own["transforms.projective_dual"],
        "transforms.puncture_flat_s": total["transforms.puncture_flat"],
        "transforms.puncture_point_s": total["transforms.puncture_point"],
        "transforms.skew_search_s": total["transforms.find_disjoint_lines"],
        "constructs.family_s": total["constructs.code_c1"] + total["constructs.code_c2"],
        "chains.self_s": sum(own[w] for w in WALKERS),
        "chains.codes_certified": sum(counts[w] for w in WALKERS),
        "gf.field_create_s": total["gf.field_create"],
        "pg.enumerate_points_s": total["pg.enumerate_points"],
    }
