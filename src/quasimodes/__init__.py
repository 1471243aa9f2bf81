"""JWKB quasimodes and resolvent-norm lower bounds for non-self-adjoint
Schrodinger operators -h^2 d^2/dx^2 + V_h(x)."""

from .errors import (
    AccuracyError,
    AnchorError,
    BranchPointError,
    DegenerateAnchorError,
    DomainError,
    InfeasibleEnergyError,
    NoAnchorError,
    QuasimodeError,
    SectorError,
    SingularityError,
    UsageError,
)
from .jwkb import (
    Certificate,
    Quasimode,
    build_quasimode,
    certify,
    cutoff_eval,
    residual_ratio,
    select_delta,
    sweep_h,
)
from .oracle import (
    Discretization,
    TridiagonalOperator,
    ValidationReport,
    assemble,
    smallest_singular_value,
    validate,
)
from .potential import (
    Anchor,
    PotentialFamily,
    format_potential,
    load_potential,
    make_anchor,
    parse_potential,
    validate_anchor,
)
from .scaling import (
    HighEnergyOperator,
    ScalingMap,
    highenergy_lower_bound,
    region_U,
    sector_check,
    solve_anchor,
    to_semiclassical,
)
from .series import TruncatedSeries

__version__ = "0.1.0"
