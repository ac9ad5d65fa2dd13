"""One cold CLI invocation, measured from inside a fresh interpreter.

Usage (run.py starts this; the working directory is where the CLI writes):

    python3 child.py RESULT.json SRC T0 MODE [argv ...]

T0 is the parent's CLOCK_MONOTONIC reading taken just before it started
this process, so setup_s covers interpreter start, numpy and the
griesmer.cli import.  MODE is `setup` (import only), `run` (call
griesmer.cli.main(argv) once) or `trace` (the same call with spans).
The CLI's stdout goes to this process's stdout; the measurements go to
RESULT.json.
"""

import json
import resource
import sys
import time


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it is OpenBLAS."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main(argv: list[str]) -> int:
    result_path, src, t0, mode, cli_argv = argv[0], argv[1], float(argv[2]), argv[3], argv[4:]
    sys.path.insert(0, src)
    import griesmer.cli

    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
    result = {"setup_s": setup_s, "griesmer": griesmer.cli.__file__}
    if mode == "setup":
        result["env"] = _environment()
    else:
        tracer = None
        if mode == "trace":
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        main_fn = griesmer.cli.main  # looked up after install: the traced run times the wrapper
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t1 = time.perf_counter()
        try:
            result["rc"] = main_fn(cli_argv)
        finally:
            t2 = time.perf_counter()
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            sys.stdout.flush()
            if tracer is not None:
                tracer.uninstall()
        result["certify_s"] = t2 - t1
        result["cpu_s"] = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
        result["peak_rss_mb"] = ru1.ru_maxrss / 1024.0
        if tracer is not None:
            result["spans"] = tracer.spans
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
