"""JWKB quasimodes and resolvent-norm lower bounds for non-self-adjoint
Schrodinger operators -h^2 d^2/dx^2 + V_h(x).

``import quasimodes`` loads no submodule and so no numpy: each exported
name, and each submodule, is imported on first access (PEP 562)."""

import importlib

__version__ = "0.1.0"

#: submodule -> the names it exports
_EXPORTS = {
    "errors": (
        "AccuracyError", "AnchorError", "DegenerateAnchorError", "DomainError",
        "InfeasibleEnergyError", "NoAnchorError", "QuasimodeError", "SectorError",
        "UsageError",
    ),
    "jwkb": (
        "Certificate", "Quasimode", "build_quasimode", "certify", "cutoff_eval",
        "residual_ratio", "select_delta", "sweep_h",
    ),
    "oracle": (
        "Discretization", "TridiagonalOperator", "ValidationReport", "assemble",
        "smallest_singular_value", "validate",
    ),
    "potential": (
        "Anchor", "PotentialFamily", "format_potential", "load_potential",
        "make_anchor", "parse_potential", "validate_anchor",
    ),
    "scaling": (
        "HighEnergyOperator", "ScalingMap", "highenergy_lower_bound", "region_U",
        "sector_check", "solve_anchor", "to_semiclassical",
    ),
    "series": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
