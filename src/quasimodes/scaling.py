"""High-energy to semiclassical rescaling.

A fixed (h = 1) operator P^2 + sum_m c_m x^{p_m} probed at the large
energy sigma*z is unitarily equivalent, after the dilation x -> u*x with
u = sigma^(1/p_n) and the identification h = u^(-(p_n+2)/2), to
sigma * (h^2 P^2 + V_h) with the h-dependent family

    V_h(x) = sum_m c_m h^{2(p_n - p_m)/(p_n + 2)} x^{p_m},

so resolvent norms transfer as
``||(H - sigma z)^-1|| = sigma^-1 ||(H2 - z)^-1||``.  For z in the
sector 0 < arg z < arg c_n the semiclassical machinery applies, and the
lower bounds it produces grow superpolynomially in sigma.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import jwkb
from .errors import (
    DegenerateAnchorError,
    DomainError,
    InfeasibleEnergyError,
    NoAnchorError,
    SectorError,
    UsageError,
)
from .potential import (
    HALF_LINE,
    Anchor,
    PotentialFamily,
    anchor_values,
    check_h,
)

#: half-width of the anchor scan around 0, widened by |a_init| for a guess
SCAN_HALF_WIDTH = 10.0
SCAN_POINTS = 2000


@dataclass(frozen=True)
class HighEnergyOperator:
    """P^2 + sum c_m x^{p_m}: an h = 1 operator with complex top coefficient."""

    potential: PotentialFamily

    def __post_init__(self):
        P = self.potential
        if P.depends_on_h:
            raise UsageError("high-energy families must have no h-dependence")
        c_n, p_n, _ = P.top
        if c_n.real <= 0 or c_n.imag <= 0:
            raise UsageError(
                "top coefficient must have positive real and imaginary parts"
            )
        if P.domain == HALF_LINE:
            if p_n <= 0:
                raise UsageError("top exponent must be positive")
        else:
            if not (p_n > 0 and float(p_n).is_integer() and int(p_n) % 2 == 0):
                raise UsageError("top exponent must be a positive even integer")


@dataclass(frozen=True)
class ScalingMap:
    """Dilation data connecting H - sigma*z to the semiclassical H2 - z."""

    sigma: float
    u: float
    h: float
    family: PotentialFamily


def to_semiclassical(HE, sigma):
    """Rescale the high-energy operator at scale sigma."""
    if not 0 < sigma < math.inf:
        raise UsageError(f"sigma must be finite and > 0, got {sigma}")
    p_n = HE.potential.top[1]
    u = sigma ** (1.0 / p_n)
    h = u ** (-(p_n + 2.0) / 2.0)
    terms = tuple(
        (c, p, 2.0 * (p_n - p) / (p_n + 2.0)) for c, p, _ in HE.potential.terms
    )
    family = PotentialFamily(terms, HE.potential.domain)
    return ScalingMap(sigma=float(sigma), u=u, h=h, family=family)


def sector_check(z, c_n):
    """True iff 0 < arg z < arg c_n (principal arguments)."""
    if z == 0 or c_n == 0:
        raise UsageError("sector check needs nonzero z and c_n")
    return 0.0 < cmath.phase(z) < cmath.phase(c_n)


# -- anchor solving -------------------------------------------------------


def _scan_roots(P, h, target, w):
    """Roots of Im V_h(a) = target in [-w, w] by bisection; a point counts
    as below the target or not, so a sample on the target is one root."""
    grid = np.linspace(max(-w, P.x_min + w / SCAN_POINTS), w, SCAN_POINTS)
    below = P.eval_many(h, grid).imag < target
    roots = []
    for i in np.nonzero(below[:-1] != below[1:])[0]:
        lo, hi = grid[i], grid[i + 1]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = P.eval(h, mid).imag - target
            if fm == 0 or hi - lo < 1e-15 * max(1.0, abs(mid)):
                break
            if (fm < 0) == below[i]:
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return roots


def solve_anchor(P, h, z, a_init=None):
    """Find a real anchor point with Im V_h(a) = Im z and build the Anchor.

    One scan of Im V_h at h over [-10, 10], widened by |a_init|, brackets
    the roots and bisection refines each to the last bits.  The root
    nearest ``a_init`` is kept, or without a guess the one with the
    largest |Im V_h'(a)|; ``alternative_roots:k`` counts the others.  The
    root must pass :func:`anchor_values`, and Re z - Re V_h(a) > 0 fixes
    eta = sign(Im V_h'(a)) * sqrt(...).  A non-finite z, guess or h, or
    h <= 0, raises :class:`UsageError`.
    """
    z = complex(z)
    check_h(h)
    if not (cmath.isfinite(z) and math.isfinite(a_init or 0.0)):
        raise UsageError(f"need finite z and a_init, got {z}, {a_init}")
    if a_init is not None and a_init <= P.x_min:
        raise DomainError(f"guess a = {a_init} outside the half-line domain")
    roots = _scan_roots(P, h, z.imag, SCAN_HALF_WIDTH + abs(a_init or 0.0))
    if not roots:
        raise NoAnchorError(f"no real solution of Im V_h(a) = {z.imag} found")
    if a_init is None:
        root = max(roots, key=lambda a: abs(P.deriv(h, a).imag))
    else:
        root = min(roots, key=lambda a: abs(a - a_init))
    dv, v = anchor_values(P, h, root)
    re_gap = z.real - v.real
    if re_gap <= 0:
        raise InfeasibleEnergyError(
            f"Re z - Re V_h(a) = {re_gap:.3e} <= 0 at a = {root:.6g}"
        )
    eta = math.copysign(math.sqrt(re_gap), dv.imag)
    extra = (f"alternative_roots:{len(roots) - 1}",) if len(roots) > 1 else ()
    return Anchor(a=float(root), eta=eta, h=float(h), z=eta * eta + v, warnings=extra)


def region_U(P, h, a_grid, eta_grid):
    """Sample the instability region {eta^2 + V_h(a) : Im V_h'(a) != 0}.

    Returns (z, a, eta) triples in grid order, dropping the points that
    make_anchor rejects (a that :func:`anchor_values` refuses, eta = 0 or
    z not finite); an h it rejects raises :class:`UsageError`.
    """
    check_h(h)
    a_grid = list(a_grid)
    eta_grid = [e for e in eta_grid if e != 0]
    if not a_grid or not eta_grid:
        raise UsageError("grids must be nonempty (eta grid excludes 0)")
    out = []
    for a in a_grid:
        try:
            _, v = anchor_values(P, h, a)
        except (UsageError, DegenerateAnchorError):
            continue
        for eta in eta_grid:
            z = eta * eta + v
            if cmath.isfinite(z):
                out.append((z, a, eta))
    return out


def highenergy_lower_bound(HE, z, sigma, n_order, K=None):
    """Certified lower bound on ||(H - sigma z)^-1|| via rescaling.

    Requires z in the sector 0 < arg z < arg c_n and a finite sigma >= 1.
    The anchor is :func:`solve_anchor`'s scan of the dilated family at its
    h, without a guess.  The returned certificate records the high-energy
    point sigma*z; its lower_bound includes the sigma^-1 transfer factor
    and r is rescaled so that lower_bound * r = 1 still holds.  Only z, r,
    lower_bound and ``diagnostics["bound_below_one"]`` are in the fixed
    operator's frame.  h, delta, gamma, panels, tail_magnitudes and the
    quadrature's diagnostics (beta, norm_f_sq, residual_sq, cutoff_term_sq,
    support) stay in the dilated family's frame, whose own z and r are
    ``diagnostics["semiclassical_z"]`` and ``["semiclassical_r"]``.
    """
    c_n = HE.potential.top[0]
    if not sector_check(z, c_n):
        raise SectorError(
            f"arg z = {cmath.phase(z):.6g} outside (0, {cmath.phase(c_n):.6g})"
        )
    if not 1 <= sigma < math.inf:
        raise UsageError(f"sigma must be finite and >= 1, got {sigma}")
    smap = to_semiclassical(HE, sigma)
    anchor = solve_anchor(smap.family, smap.h, z)
    cert = jwkb.certify(
        smap.family, anchor, n_order, K, allow_large_h=True
    )
    lower = cert.lower_bound * (1.0 / smap.sigma)
    cert.diagnostics.update(
        {"sigma": smap.sigma, "u": smap.u, "semiclassical_h": smap.h,
         "semiclassical_z": cert.z, "semiclassical_r": cert.r,
         "anchor_a": anchor.a, "anchor_eta": anchor.eta}
    )
    cert.z = sigma * complex(z)
    cert.lower_bound = lower
    cert.r = 1.0 / lower
    cert.diagnostics["bound_below_one"] = cert.r > 1
    return cert
