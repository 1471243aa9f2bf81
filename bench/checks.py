"""Reference computations that never call the code they check.

Potentials are given here as plain ``(c, p, e)`` term tuples and evaluated
with the benchmark's own formula; the finite-difference operator is the
benchmark's own three-point stencil.  Only the quasimode samples
(``Quasimode.values``) and the returned numbers come from the package.
"""

from __future__ import annotations

import math

import numpy as np


def potential(terms, h, x):
    """V_h(x) = sum c * h**e * x**p, evaluated on real points x."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    for c, p, e in terms:
        out += c * h**e * np.power(x, p)
    return out


def semiclassical_terms(terms):
    """Terms of V_h after the high-energy dilation of sum c x**p (h = 1)."""
    p_n = terms[-1][1]
    return tuple((c, p, 2.0 * (p_n - p) / (p_n + 2.0)) for c, p, _ in terms)


def semiclassical_h(sigma, p_n):
    return sigma ** (-(p_n + 2.0) / (2.0 * p_n))


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def ls_slope(xs, ys):
    """Least-squares slope of ys against xs."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def stencil_residual(terms, h, z, x, f):
    """||(H - z) f|| / ||f|| with the 3-point stencil and zero outside x."""
    dx = x[1] - x[0]
    fp = np.concatenate([[0.0], f, [0.0]])
    lap = (fp[2:] - 2.0 * fp[1:-1] + fp[:-2]) / (dx * dx)
    hf = -(h * h) * lap + (potential(terms, h, x) - z) * f
    return float(np.linalg.norm(hf) / np.linalg.norm(f))


def check_stencil_convergence(terms, cert, a, grids, label):
    """The stencil residual of the sampled mode converges to r at order 2.

    ``grids`` are increasing point counts over [a - L, a + L], where the
    cutoff (L = delta) or the certified concentration exp(-gamma s^2 / h)
    below e^-50 makes the mode negligible.  Returns a list of problems
    (empty when the check passes).
    """
    Q = cert.quasimode
    half = min(Q.delta, math.sqrt(50.0 * cert.h / Q.gamma))
    errs = []
    for n in grids:
        s = np.linspace(-half, half, n)
        f = Q.values(s)
        errs.append(abs(stencil_residual(terms, cert.h, cert.z, a + s, f) - cert.r))
    problems = []
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    if min(orders) < 1.5:
        problems.append(f"{label}: stencil residual orders {orders} < 1.5")
    if errs[-1] > 0.05 * cert.r:
        problems.append(
            f"{label}: stencil residual off by {errs[-1] / cert.r:.2%} of r (> 5%)"
        )
    return problems


def dense_singular_values(terms, h, x_lo, x_hi, n, z):
    """(smallest, largest) singular value of the benchmark's own dense H - z."""
    dx = (x_hi - x_lo) / (n + 1)
    x = x_lo + dx * np.arange(1, n + 1)
    k = h * h / (dx * dx)
    A = np.diag(2.0 * k + potential(terms, h, x) - z)
    A += np.diag(np.full(n - 1, -k), 1) + np.diag(np.full(n - 1, -k), -1)
    sv = np.linalg.svd(A, compute_uv=False)
    return float(sv.min()), float(sv.max())


def check_dense_smin(terms, h, x_lo, x_hi, n, z, smin, label):
    """``smin`` equals sigma_min of the benchmark's own dense matrix.

    The dense SVD resolves singular values only to about eps * sigma_max,
    so that is allowed on top of 1e-6 relative.
    """
    dense, dense_max = dense_singular_values(terms, h, x_lo, x_hi, n, z)
    if abs(smin - dense) > 1e-6 * dense + 10.0 * np.finfo(float).eps * dense_max:
        return [f"{label}: sigma_min {smin!r} vs dense SVD {dense!r}"]
    return []


def check_certificate(cert, label):
    """lower_bound * r = 1 with r finite and positive."""
    r, lb = cert.r, cert.lower_bound
    if not (math.isfinite(r) and r > 0):
        return [f"{label}: r = {r!r} is not finite and positive"]
    if rel(lb * r, 1.0) > 1e-12:
        return [f"{label}: lower_bound * r = {lb * r!r} != 1"]
    return []
