"""Exact construction and certification of length-optimal linear codes
over GF(q) via projective geometry."""

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
