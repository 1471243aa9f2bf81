"""Finite-difference cross-check of quasimode certificates.

The operator -h^2 d^2/dx^2 + V_h is discretized with second-order
central differences and Dirichlet truncation on [x_lo, x_hi], giving a
complex tridiagonal matrix T.  The discrete resolvent norm at z is
1/sigma_min(T - zI), from one Lanczos run for the largest eigenvalue of
((T - z)^H (T - z))^-1.  T is complex symmetric, so (T - z)^H is
conj(T - z), and T - z is LU-factored once with partial pivoting: each
Lanczos product is two O(N) tridiagonal solves with those factors.
Everything here is numpy and plain Python loops, and the Lanczos start
vector comes from the standard library's ``random``, so the oracle
loads no numpy module beyond those ``import numpy`` loads.

:func:`validate` compares a certificate against this discrete estimate:
the certified lower bound must not exceed the discrete norm by more than
10%, and the residual ratio of the sampled quasimode under T must agree
with the certified one to discretization accuracy O(dx^2).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, UsageError

SSV_TOL = 1e-8
SSV_SEED = 0
SSV_MAX_STEPS = 100


@dataclass(frozen=True)
class Discretization:
    """Uniform Dirichlet grid with N interior points on [x_lo, x_hi]."""

    x_lo: float
    x_hi: float
    n_interior: int

    def __post_init__(self):
        if not -math.inf < self.x_lo < self.x_hi < math.inf:
            raise UsageError(f"need finite x_lo < x_hi, got {self.x_lo}, {self.x_hi}")
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
    """Complex symmetric tridiagonal matrix (diagonal, off-diagonal band)."""

    diag: np.ndarray
    off: np.ndarray

    @property
    def n(self):
        return self.diag.size

    def matvec(self, v):
        out = self.diag * v
        out[:-1] += self.off * v[1:]
        out[1:] += self.off * v[:-1]
        return out


def assemble(P, h, disc):
    """Second-order stencil for -h^2 d2/dx2 + V_h on the Dirichlet grid."""
    xs = disc.grid()
    if disc.x_lo <= P.x_min:
        raise UsageError(f"x_lo = {disc.x_lo} is not above the domain edge")
    dx = disc.dx
    k = h * h / (dx * dx)
    off = np.full(xs.size - 1, -k, dtype=complex)
    return TridiagonalOperator(diag=2.0 * k + P.eval_many(h, xs), off=off)


def factor_tridiagonal(diag, off):
    """LU factors, with partial pivoting as LAPACK ``gttrf`` computes them,
    of the tridiagonal matrix with diagonal ``diag`` and ``off`` either side:
    ``(l, swap, d, du, du2)``, the N - 1 multipliers and row interchanges,
    then U's diagonal and its two superdiagonals, padded with zeros to
    length N.  None if a pivot is exactly zero (an exactly singular matrix)."""
    n = diag.size
    l, d, du = off.tolist(), diag.tolist(), off.tolist() + [0j]
    du2 = [0j] * n
    swap = [False] * (n - 1)
    for i in range(n - 1):
        if abs(d[i]) >= abs(l[i]):
            if d[i] == 0:
                return None
            l[i] /= d[i]
            d[i + 1] -= l[i] * du[i]
        else:
            swap[i] = True
            f = d[i] / l[i]
            d[i], l[i], du[i], d[i + 1] = l[i], f, d[i + 1], du[i] - f * d[i + 1]
            du2[i], du[i + 1] = du[i + 1], -f * du[i + 1]
    if d[-1] == 0:
        return None
    return l, swap, d, du, du2


def solve_banded(lu, b):
    """x with A x = b, from the factors ``lu`` of A by
    :func:`factor_tridiagonal` (LAPACK ``gttrs``): one O(N) sweep down
    through L and the interchanges, one up through U."""
    l, swap, d, du, du2 = lu
    b = b.tolist()
    y = []
    carry = b[0]
    for li, si, bi in zip(l, swap, b[1:]):
        if si:
            y.append(bi)
            carry -= li * bi
        else:
            y.append(carry)
            carry = bi - li * carry
    y.append(carry)
    x = []
    x1 = x2 = 0j
    for yi, di, ui, u2i in zip(y[::-1], d[::-1], du[::-1], du2[::-1]):
        x1, x2 = (yi - ui * x1 - u2i * x2) / di, x1
        x.append(x1)
    return np.array(x[::-1])


def smallest_singular_value(T, z):
    """sigma_min(T - zI) = 1/sqrt(theta), theta the largest eigenvalue of
    ((T - z)^H (T - z))^-1.

    T - z is factored once (:func:`factor_tridiagonal`), and each Lanczos
    product is two :func:`solve_banded` calls with those factors: the
    adjoint solve is conj(solve(conj(b))), since T is complex symmetric.
    Lanczos keeps every basis vector and reorthogonalizes against all of
    them, and stops when the Ritz residual |beta_k s_k| is at most
    ``SSV_TOL`` times theta.  The start vector is complex Gaussian, from
    the bytes of ``random.Random(SSV_SEED)``: reproducible, and not
    orthogonal to an odd singular vector as a ones vector can be.  An
    exactly singular matrix returns 0; a run that reaches
    ``SSV_MAX_STEPS`` first raises :class:`AccuracyError`."""
    diag = T.diag - z
    lu = factor_tridiagonal(diag, T.off)
    if lu is None:
        return 0.0
    # Box-Muller on 2N uniforms in [0, 1) from 53 random bits each
    bits = random.Random(SSV_SEED).randbytes(16 * T.n)
    u = (np.frombuffer(bits, dtype="<u8").reshape(2, T.n) >> 11) * 2.0**-53
    q = np.sqrt(-2.0 * np.log1p(-u[0])) * np.exp(2j * np.pi * u[1])
    steps = min(SSV_MAX_STEPS, T.n)
    basis = np.empty((steps + 1, T.n), dtype=complex)
    basis[0] = q / np.linalg.norm(q)
    tri = np.zeros((steps + 1, steps + 1))
    for k in range(steps):
        Q = basis[: k + 1]
        w = solve_banded(lu, np.conj(solve_banded(lu, np.conj(basis[k]))))
        for _ in range(2):  # twice is enough (Kahan)
            c = Q.conj() @ w
            w -= c @ Q
            tri[k, k] += c[k].real
        beta = np.linalg.norm(w)
        if not math.isfinite(beta):  # the solves overflowed: singular in float64
            return 0.0
        theta, vecs = np.linalg.eigh(tri[: k + 1, : k + 1])
        theta = theta[-1]
        if beta * abs(vecs[-1, -1]) <= SSV_TOL * theta or k + 1 == T.n:
            return 1.0 / math.sqrt(theta)
        basis[k + 1] = w / beta
        tri[k, k + 1] = tri[k + 1, k] = beta
    raise AccuracyError(f"sigma_min: Lanczos did not converge in {steps} steps")


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


def _sampled_quasimode(cert):
    """The quasimode of ``cert``, which must have one at its own z: a
    high-energy certificate records sigma*z, while its f~ is built at z on
    the dilated family, so no grid samples it at the certificate's z."""
    Q = cert.quasimode
    if Q is None:
        raise UsageError("certificate has no attached quasimode to sample")
    if cert.z != Q.anchor.z:
        raise UsageError(f"certificate z = {cert.z} is not its quasimode's "
                         f"z = {Q.anchor.z} (a rescaled certificate)")
    return Q


def discrete_residual(cert, P, disc):
    """||T f~ - z f~|| / ||f~|| for the quasimode sampled on the grid.

    No resolution guard: used for grid-refinement studies, where the
    coarse grids intentionally under-resolve.
    """
    Q = _sampled_quasimode(cert)
    T = assemble(P, cert.h, disc)
    return _residual(T, cert.z, Q.values(disc.grid() - Q.anchor.a))


def _residual(T, z, v):
    return float(np.linalg.norm(T.matvec(v) - z * v) / np.linalg.norm(v))


def validate(cert, P, disc):
    """Check a certificate against the discrete resolvent norm.

    Preconditions: the interval must cover the sqrt(h) concentration
    scale [a - 8*sqrt(h), a + 8*sqrt(h)], resolve it with at least 40
    points per sqrt(h) (dx <= sqrt(h)/40), and the sampled mode must be
    negligible at the endpoints so the Dirichlet truncation is harmless.
    The certificate must still carry its quasimode, at the certificate's
    own z, so the mode can be sampled on the grid.
    """
    Q = _sampled_quasimode(cert)
    a, h = Q.anchor.a, cert.h
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
    v = Q.values(disc.grid() - a)
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
