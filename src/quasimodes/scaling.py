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
    InfeasibleEnergyError,
    NoAnchorError,
    SectorError,
    UsageError,
)
from .potential import (
    HALF_LINE,
    Anchor,
    PotentialFamily,
    im_deriv_vanishes,
    make_anchor,
    validate_anchor,
)

NEWTON_MAX_ITER = 100
NEWTON_TOL = 1e-12

#: half-width of the fallback coarse scan for anchor roots
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

    @property
    def c_n(self):
        return self.potential.top[0]

    @property
    def p_n(self):
        return self.potential.top[1]


@dataclass(frozen=True)
class ScalingMap:
    """Dilation data connecting H - sigma*z to the semiclassical H2 - z."""

    sigma: float
    u: float
    h: float
    family: PotentialFamily
    norm_factor: float  # multiply semiclassical lower bounds by this


def to_semiclassical(HE, sigma):
    """Rescale the high-energy operator at scale sigma."""
    if sigma <= 0:
        raise UsageError("sigma must be > 0")
    p_n = HE.p_n
    u = sigma ** (1.0 / p_n)
    h = u ** (-(p_n + 2.0) / 2.0)
    terms = tuple(
        (c, p, 2.0 * (p_n - p) / (p_n + 2.0)) for c, p, _ in HE.potential.terms
    )
    family = PotentialFamily(terms, HE.potential.domain)
    return ScalingMap(
        sigma=float(sigma), u=u, h=h, family=family, norm_factor=1.0 / sigma
    )


def sector_check(z, c_n):
    """True iff 0 < arg z < arg c_n (principal arguments)."""
    if z == 0 or c_n == 0:
        raise UsageError("sector check needs nonzero z and c_n")
    return 0.0 < cmath.phase(z) < cmath.phase(c_n)


# -- anchor solving -------------------------------------------------------


def _scan_roots(P, h, target):
    """Roots of Im V_h(a) = target found by sign-change bisection."""
    w = SCAN_HALF_WIDTH
    if P.domain == HALF_LINE:
        grid = np.linspace(w / SCAN_POINTS, w, SCAN_POINTS)
    else:
        grid = np.linspace(-w, w, SCAN_POINTS)
    vals = P.eval_many(h, grid).imag - target
    roots = []
    for i in np.nonzero(np.diff(np.sign(vals)) != 0)[0]:
        lo, hi = grid[i], grid[i + 1]
        flo = vals[i]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = P.eval(h, mid).imag - target
            if fm == 0 or hi - lo < 1e-15 * max(1.0, abs(mid)):
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return roots


def solve_anchor(P, h, z, a_init=None):
    """Find a real anchor point with Im V_h(a) = Im z and build the Anchor.

    Newton iteration from ``a_init`` (tolerance 1e-12, at most 100
    steps); when that fails, or no initial guess is given, a coarse scan
    with bisection over the roots is used and the root with the largest
    |Im V_h'(a)| is kept.  The remaining admissibility conditions are
    Re z - Re V_h(a) > 0 (fixing eta = sign(Im V_h'(a)) * sqrt(...)) and
    Im V_h'(a) != 0.
    """
    z = complex(z)
    target = z.imag
    root = None
    if a_init is not None:
        a = float(a_init)
        for _ in range(NEWTON_MAX_ITER):
            g = P.eval(h, a).imag - target
            if abs(g) <= NEWTON_TOL:
                root = a
                break
            gp = P.deriv(h, a).imag
            if gp == 0:
                break
            step = g / gp
            a_new = a - step
            if P.domain == HALF_LINE and a_new <= 0:
                a_new = 0.5 * a
            a = a_new
    alternatives = 0
    if root is None:
        roots = _scan_roots(P, h, target)
        if not roots:
            raise NoAnchorError(
                f"no real solution of Im V_h(a) = {target} found"
            )
        roots.sort(key=lambda a: -abs(P.deriv(h, a).imag))
        root = roots[0]
        alternatives = len(roots) - 1
    re_gap = z.real - P.eval(h, root).real
    if re_gap <= 0:
        raise InfeasibleEnergyError(
            f"Re z - Re V_h(a) = {re_gap:.3e} <= 0 at a = {root:.6g}"
        )
    dv_im = P.deriv(h, root).imag
    eta = math.copysign(math.sqrt(re_gap), dv_im if dv_im != 0 else 1.0)
    anchor = make_anchor(P, h, root, eta)
    if alternatives:
        anchor = Anchor(
            a=anchor.a,
            eta=anchor.eta,
            h=anchor.h,
            z=anchor.z,
            warnings=anchor.warnings
            + (f"alternative_roots:{alternatives}",),
        )
    validate_anchor(P, anchor)
    return anchor


def region_U(P, h, a_grid, eta_grid):
    """Sample the instability region {eta^2 + V_h(a) : Im V_h'(a) != 0}.

    Returns (z, a, eta) triples in grid order; points that make_anchor
    rejects (Im V_h'(a) vanishes, or eta = 0) are dropped.
    """
    a_grid = list(a_grid)
    eta_grid = [e for e in eta_grid if e != 0]
    if not a_grid or not eta_grid:
        raise UsageError("grids must be nonempty (eta grid excludes 0)")
    out = []
    for a in a_grid:
        if P.domain == HALF_LINE and a <= 0:
            continue
        if im_deriv_vanishes(P.deriv(h, a)):
            continue
        v = P.eval(h, a)
        for eta in eta_grid:
            out.append((eta * eta + v, a, eta))
    return out


def highenergy_lower_bound(HE, z, sigma, n_order, K=None, a_init=None):
    """Certified lower bound on ||(H - sigma z)^-1|| via rescaling.

    Requires z in the sector 0 < arg z < arg c_n and sigma >= 1.  The
    returned certificate records the high-energy point sigma*z; its
    lower_bound includes the sigma^-1 transfer factor and r is rescaled
    so that lower_bound * r = 1 still holds.
    """
    if not sector_check(z, HE.c_n):
        raise SectorError(
            f"arg z = {cmath.phase(z):.6g} outside (0, {cmath.phase(HE.c_n):.6g})"
        )
    if sigma < 1:
        raise UsageError("sigma must be >= 1")
    smap = to_semiclassical(HE, sigma)
    if a_init is None:
        limit = smap.family.limit_family()
        roots = _scan_roots(limit, 0.0, complex(z).imag)
        if not roots:
            raise NoAnchorError("no h = 0 anchor root for the limit family")
        roots.sort(key=lambda a: -abs(limit.deriv(0.0, a).imag))
        a_init = roots[0]
    anchor = solve_anchor(smap.family, smap.h, z, a_init=a_init)
    cert = jwkb.certify(
        smap.family, anchor, n_order, K, allow_large_h=True
    )
    lower = cert.lower_bound * smap.norm_factor
    cert.z = sigma * complex(z)
    cert.lower_bound = lower
    cert.r = 1.0 / lower
    cert.diagnostics.update(
        {"sigma": smap.sigma, "u": smap.u, "semiclassical_h": smap.h,
         "anchor_a": anchor.a, "anchor_eta": anchor.eta}
    )
    return cert
