"""Exact construction and certification of length-optimal linear codes
over GF(q) via projective geometry.

Importing the package caps numpy's OpenBLAS at one thread, before numpy
loads, unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS
is already set.  A process that imported numpy first keeps its BLAS
threads.
"""

import os

# every computation here is exact integer work that never calls BLAS, but
# OpenBLAS starts a worker for each further core when numpy loads, and the
# workers only spin: one thread halves a command's CPU time and changes no
# result
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .chains import (
    ChainPlan,
    VerificationReport,
    build_chain,
    griesmer_bound,
    plan_chain,
    reproduce_table,
    theorem_range,
)
from .constructs import (
    LineConfig,
    arc_check,
    base_code_1,
    base_code_2,
    code_c1,
    code_c2,
    line_config,
    normal_rational_curve,
)
from .gf import Field, FieldSpec, field, field_create
from .mcode import (
    CodeParams,
    PointMultiset,
    code_params,
    generator_matrix,
    hyperplane_spectrum,
    multiset_from_matrix,
    oracle_hyperplane_mults,
    oracle_weight_distribution,
    read_gmatrix,
    read_multiset,
    write_gmatrix,
    write_multiset,
)
from .pg import (
    Flat,
    enumerate_points,
    flat_points,
    incident,
    normalize_point,
    span,
    theta,
)
from .transforms import (
    find_disjoint_lines,
    projective_dual,
    puncture_flat,
    puncture_point,
)

__version__ = "0.1.0"
