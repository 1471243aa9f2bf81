"""Finite-difference cross-check of quasimode certificates.

The operator -h^2 d^2/dx^2 + V_h is discretized with second-order
central differences and Dirichlet truncation on [x_lo, x_hi], giving a
complex tridiagonal matrix T.  The discrete resolvent norm at z is
1/sigma_min(T - zI), from one Lanczos run (``scipy.sparse.linalg.eigsh``)
for the largest eigenvalue of ((T - z)^H (T - z))^-1, applied as two
O(N) tridiagonal solves.  scipy's solvers are imported on the first
call, not with the package.

:func:`validate` compares a certificate against this discrete estimate:
the certified lower bound must not exceed the discrete norm by more than
10%, and the residual ratio of the sampled quasimode under T must agree
with the certified one to discretization accuracy O(dx^2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, UsageError

SSV_TOL = 1e-8
SSV_SEED = 0


@dataclass(frozen=True)
class Discretization:
    """Uniform Dirichlet grid with N interior points on [x_lo, x_hi]."""

    x_lo: float
    x_hi: float
    n_interior: int

    def __post_init__(self):
        if self.x_hi <= self.x_lo:
            raise UsageError("need x_lo < x_hi")
        if self.n_interior < 3:
            raise UsageError("need at least 3 interior points")

    @property
    def dx(self):
        return (self.x_hi - self.x_lo) / (self.n_interior + 1)

    def grid(self):
        """Interior grid points x_1 .. x_N."""
        return self.x_lo + self.dx * np.arange(1, self.n_interior + 1)


@dataclass
class TridiagonalOperator:
    """Complex tridiagonal matrix (sub/diag/super bands)."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    @property
    def n(self):
        return self.diag.size

    def matvec(self, v):
        out = self.diag * v
        out[:-1] += self.sup * v[1:]
        out[1:] += self.sub * v[:-1]
        return out


def assemble(P, h, disc):
    """Second-order stencil for -h^2 d2/dx2 + V_h on the Dirichlet grid."""
    xs = disc.grid()
    if disc.x_lo <= P.x_min:
        raise UsageError(f"x_lo = {disc.x_lo} is not above the domain edge")
    dx = disc.dx
    k = h * h / (dx * dx)
    n = disc.n_interior
    diag = 2.0 * k + P.eval_many(h, xs)
    off = np.full(n - 1, -k, dtype=complex)
    return TridiagonalOperator(sub=off.copy(), diag=diag, sup=off.copy())


def solve_banded(l_and_u, ab, b):
    """``scipy.linalg.solve_banded``, imported on the first solve so that
    importing the package does not load ``scipy.linalg``."""
    from scipy.linalg import solve_banded as solve

    return solve(l_and_u, ab, b)


def _banded(sub, diag, sup):
    n = diag.size
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = sup
    ab[1, :] = diag
    ab[2, :-1] = sub
    return ab


def smallest_singular_value(T, z):
    """sigma_min(T - zI) = 1/sqrt(lambda), lambda the largest eigenvalue of
    ((T - z)^H (T - z))^-1 to relative accuracy ``SSV_TOL``.

    Each Lanczos product is two tridiagonal solves.  The start vector is
    random complex from the fixed ``SSV_SEED``: reproducible, and not
    orthogonal to an odd singular vector as a ones vector can be.  An
    exactly singular matrix returns 0; a run that does not converge
    raises :class:`AccuracyError`."""
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    diag = T.diag - z
    ab = _banded(T.sub, diag, T.sup)
    abh = _banded(np.conj(T.sup), np.conj(diag), np.conj(T.sub))
    op = LinearOperator(
        (T.n, T.n),
        matvec=lambda v: solve_banded((1, 1), ab, solve_banded((1, 1), abh, v)),
        dtype=complex,
    )
    rng = np.random.default_rng(SSV_SEED)
    v0 = rng.standard_normal(T.n) + 1j * rng.standard_normal(T.n)
    try:
        lam = eigsh(op, k=1, v0=v0, tol=SSV_TOL, return_eigenvectors=False)[0]
    except (np.linalg.LinAlgError, ValueError):
        return 0.0
    except ArpackNoConvergence as exc:
        raise AccuracyError("sigma_min: Lanczos did not converge") from exc
    return 1.0 / math.sqrt(lam) if np.isfinite(lam) and lam > 0 else 0.0


@dataclass
class ValidationReport:
    """Certificate vs discrete-oracle comparison."""

    oracle_norm: float
    lower_bound: float
    discrete_residual: float
    cert_residual: float
    passed: bool
    x_lo: float
    x_hi: float
    n_interior: int
    dx: float

    def to_dict(self):
        return {
            "oracle_norm": self.oracle_norm,
            "lower_bound": self.lower_bound,
            "discrete_residual": self.discrete_residual,
            "cert_residual": self.cert_residual,
            "pass": self.passed,
            "grid": {
                "x_lo": self.x_lo,
                "x_hi": self.x_hi,
                "n_interior": self.n_interior,
                "dx": self.dx,
            },
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def default_discretization(P, anchor, delta):
    """Interval/resolution recipe adequate for a given anchor.

    The interval is cut half a target step above the domain edge, so the
    grid reaches within one step of it, as :func:`validate` requires."""
    a, h = anchor.a, anchor.h
    half = max(10.0 * math.sqrt(h), min(1.0, delta))
    dx_target = math.sqrt(h) / 40.0
    x_lo, x_hi = max(a - half, P.x_min + dx_target / 2.0), a + half
    n = int(math.ceil((x_hi - x_lo) / dx_target)) + 1
    return Discretization(x_lo=x_lo, x_hi=x_hi, n_interior=n)


def discrete_residual(cert, P, disc):
    """||T f~ - z f~|| / ||f~|| for the quasimode sampled on the grid.

    No resolution guard: used for grid-refinement studies, where the
    coarse grids intentionally under-resolve.
    """
    if cert.quasimode is None:
        raise UsageError("certificate has no attached quasimode to sample")
    anchor = cert.quasimode.phase.anchor
    T = assemble(P, cert.h, disc)
    return _residual(T, cert.z, cert.quasimode.values(disc.grid() - anchor.a))


def _residual(T, z, v):
    return float(np.linalg.norm(T.matvec(v) - z * v) / np.linalg.norm(v))


def validate(cert, P, disc):
    """Check a certificate against the discrete resolvent norm.

    Preconditions: the interval must cover the sqrt(h) concentration
    scale [a - 8*sqrt(h), a + 8*sqrt(h)], resolve it with at least 40
    points per sqrt(h) (dx <= sqrt(h)/40), and the sampled mode must be
    negligible at the endpoints so the Dirichlet truncation is harmless.
    The certificate must still carry its quasimode so the mode can be
    sampled on the grid.
    """
    if cert.quasimode is None:
        raise UsageError("certificate has no attached quasimode to sample")
    anchor = cert.quasimode.phase.anchor
    a, h = anchor.a, cert.h
    reach = 8.0 * math.sqrt(h)
    lo_needed = max(a - reach, P.x_min + disc.dx)
    if disc.x_lo > lo_needed or disc.x_hi < a + reach:
        raise UsageError(
            f"interval [{disc.x_lo}, {disc.x_hi}] does not cover "
            f"[{a - reach:.4g}, {a + reach:.4g}]"
        )
    if disc.dx > math.sqrt(h) / 40.0:
        raise UsageError(
            f"dx = {disc.dx:.3e} too coarse; need <= sqrt(h)/40 = "
            f"{math.sqrt(h) / 40.0:.3e}"
        )
    v = cert.quasimode.values(disc.grid() - a)
    edge = max(abs(v[0]), abs(v[-1]))
    if edge > 1e-6 * np.abs(v).max():
        raise UsageError(
            f"mode not negligible at the interval endpoints "
            f"(relative edge magnitude {edge / np.abs(v).max():.3e})"
        )
    T = assemble(P, h, disc)
    smin = smallest_singular_value(T, cert.z)
    oracle_norm = math.inf if smin == 0 else 1.0 / smin
    passed = cert.lower_bound <= 1.1 * oracle_norm
    return ValidationReport(
        oracle_norm=oracle_norm,
        lower_bound=cert.lower_bound,
        discrete_residual=_residual(T, cert.z, v),
        cert_residual=cert.r,
        passed=passed,
        x_lo=disc.x_lo,
        x_hi=disc.x_hi,
        n_interior=disc.n_interior,
        dx=disc.dx,
    )
