"""Exception hierarchy shared by all modules.

Each exception carries a short machine-readable ``code`` used by the CLI
to build single-line error output, and an exit status grouping:
usage errors exit 2, anchor/feasibility errors exit 3, numerical
accuracy failures exit 4.
"""


class QuasimodeError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"
    exit_status = 1


class UsageError(QuasimodeError):
    """Invalid arguments, inconsistent shapes, or malformed input."""

    code = "usage"
    exit_status = 2


class DomainError(UsageError):
    """Evaluation outside the potential's domain (e.g. x <= 0 on the half-line)."""

    code = "domain"


class SectorError(UsageError):
    """Energy outside the admissible angular sector."""

    code = "sector"


class SingularityError(QuasimodeError):
    """Series reciprocal of something vanishing at 0 (a turning point)."""

    code = "turning_point"
    exit_status = 3


class BranchPointError(QuasimodeError):
    """Series square root of something vanishing at 0."""

    code = "branch_point"
    exit_status = 3


class AnchorError(QuasimodeError):
    """Base class for anchor construction failures."""

    code = "anchor"
    exit_status = 3


class DegenerateAnchorError(AnchorError):
    """Im V'(a) = 0, eta = 0, too short a reach, or no admissible cutoff radius."""

    code = "degenerate_anchor"


class InfeasibleEnergyError(AnchorError):
    """Re z - Re V(a) <= 0: no real eta solves z = eta^2 + V(a)."""

    code = "infeasible_energy"


class NoAnchorError(AnchorError):
    """The anchor scan finds no real root of Im V(a) = Im z."""

    code = "no_anchor"


class AccuracyError(QuasimodeError):
    """A numerical procedure failed to reach its target accuracy."""

    code = "accuracy"
    exit_status = 4

    def __init__(self, message, estimates=None):
        super().__init__(message)
        self.estimates = estimates
