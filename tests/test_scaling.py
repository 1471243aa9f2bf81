"""High-energy rescaling, anchor solving, and the instability region."""

import cmath
import math

import numpy as np
import pytest

from quasimodes import jwkb, scaling
from quasimodes.errors import (
    DegenerateAnchorError,
    DomainError,
    InfeasibleEnergyError,
    NoAnchorError,
    SectorError,
    UsageError,
)
from quasimodes.potential import PotentialFamily, make_anchor

QUARTIC = PotentialFamily(((1 + 1j, 4, 0),))
IX = PotentialFamily(((1j, 1, 0),))
IX3 = PotentialFamily(((1j, 3, 0),))
HALF = PotentialFamily(((1.0, -2, 0), (1 + 1j, 2, 0)), domain="halfline")


def test_highenergy_operator_validation():
    scaling.HighEnergyOperator(QUARTIC)  # fine
    with pytest.raises(UsageError):
        scaling.HighEnergyOperator(PotentialFamily(((1j, 3, 0),)))  # odd top
    with pytest.raises(UsageError):
        scaling.HighEnergyOperator(PotentialFamily(((1 - 1j, 4, 0),)))
    with pytest.raises(UsageError):
        scaling.HighEnergyOperator(PotentialFamily(((1 + 1j, 4, 0.5),)))
    with pytest.raises(UsageError, match="even integer"):  # odd top on the line
        scaling.HighEnergyOperator(PotentialFamily(((1 + 1j, 3, 0),)))
    with pytest.raises(UsageError, match="exponent must be positive"):
        scaling.HighEnergyOperator(PotentialFamily(((1 + 1j, -1, 0),), domain="halfline"))


def test_rescaling_exponents():
    HE = scaling.HighEnergyOperator(QUARTIC)
    sigma = 1e4
    smap = scaling.to_semiclassical(HE, sigma)
    assert smap.u == pytest.approx(sigma ** 0.25)
    assert smap.h == pytest.approx(smap.u ** -3.0)
    # top coefficient is h-independent, lower terms pick up h powers
    (c, p, e), = smap.family.terms
    assert (c, p, e) == (1 + 1j, 4.0, 0.0)


def test_rescaling_roundtrip_potential_identity():
    # V_h(x) evaluated at x/u times sigma reproduces V(x) for the top term
    HE = scaling.HighEnergyOperator(
        PotentialFamily(((0.3, 2, 0), (1 + 1j, 4, 0)))
    )
    sigma = 50.0
    smap = scaling.to_semiclassical(HE, sigma)
    x = 1.7
    lhs = sigma * smap.family.eval(smap.h, x / smap.u)
    rhs = HE.potential.eval(1.0, x)
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_sector_check():
    c_n = 1 + 1j
    assert scaling.sector_check(cmath.exp(0.3j), c_n)
    assert not scaling.sector_check(1.0, c_n)  # arg z = 0
    assert not scaling.sector_check(1j, c_n)  # arg z > arg c_n
    with pytest.raises(UsageError):
        scaling.sector_check(0.0, c_n)


def test_solve_anchor_matches_make_anchor():
    h = 0.05
    ref = make_anchor(IX3, h, 1.0, 1.0)
    got = scaling.solve_anchor(IX3, h, ref.z, a_init=0.9)
    assert got.a == pytest.approx(ref.a, rel=1e-10)
    assert got.eta == pytest.approx(ref.eta, rel=1e-10)


def test_solve_anchor_scan_without_guess():
    anchor = scaling.solve_anchor(IX3, 0.05, 1 + 1j)
    assert anchor.a == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("guess", [0.9, -0.9])
def test_solve_anchor_guess_picks_the_root_of_its_sign(guess):
    # Im V = x^4 = 0.5 has the mirror roots +-0.5^(1/4)
    anchor = scaling.solve_anchor(QUARTIC, 0.05, 2 + 0.5j, a_init=guess)
    assert anchor.a == pytest.approx(math.copysign(0.5**0.25, guess), rel=1e-12)
    assert "alternative_roots:1" in anchor.warnings


def test_solve_anchor_guess_widens_the_scan():
    # Im V = x^3 = 1728 at a = 12, outside the +-10 window without a guess
    with pytest.raises(NoAnchorError):
        scaling.solve_anchor(IX3, 0.05, 1 + 1728j)
    anchor = scaling.solve_anchor(IX3, 0.05, 1 + 1728j, a_init=11.5)
    assert anchor.a == pytest.approx(12.0, rel=1e-12)


def test_solve_anchor_guess_outside_domain():
    with pytest.raises(DomainError):
        scaling.solve_anchor(HALF, 0.05, 1 + 0.5j, a_init=-0.9)


def test_scan_sample_on_the_target_is_one_root():
    grid = np.linspace(-scaling.SCAN_HALF_WIDTH, scaling.SCAN_HALF_WIDTH,
                       scaling.SCAN_POINTS)
    target = grid[1200]
    roots = scaling._scan_roots(IX, 0.0, target, scaling.SCAN_HALF_WIDTH)
    assert len(roots) == 1 and roots[0] == pytest.approx(target, rel=1e-15)
    assert scaling.solve_anchor(IX, 0.05, 2 + 1j * target).warnings == ()


def test_solve_anchor_infeasible_energy():
    with pytest.raises(InfeasibleEnergyError):
        scaling.solve_anchor(IX3, 0.05, complex(-50.0, 1.0))


def test_solve_anchor_no_root():
    # Im V = x^3 stays below 10^6 on the scan window [-10, 10]... it does
    # not, so use a bounded imaginary part instead: Im V = h * x^0 = 0.7
    P = PotentialFamily(((0.7j, 0, 0), (1.0, 2, 0)))
    with pytest.raises(NoAnchorError):
        scaling.solve_anchor(P, 0.05, complex(1.0, 5.0))


def test_anchor_converges_as_h_shrinks():
    # anchors of the rescaled family form a Cauchy sequence in h
    HE = scaling.HighEnergyOperator(QUARTIC)
    z = cmath.exp(1j * cmath.pi / 8)
    a_vals = []
    for sigma in (1e2, 1e3, 1e4, 1e5):
        smap = scaling.to_semiclassical(HE, sigma)
        a_vals.append(scaling.solve_anchor(smap.family, smap.h, z).a)
    gaps = np.abs(np.diff(a_vals))
    assert gaps[1] < gaps[0] or gaps[0] < 1e-10
    assert gaps[2] < gaps[1] or gaps[1] < 1e-10


def test_region_U_eta_symmetry():
    pts = scaling.region_U(IX3, 0.05, [0.5, 1.0], [-1.0, 1.0])
    zs = sorted((z.real, z.imag) for z, _, _ in pts)
    # +eta and -eta give the same z; both must be listed
    assert len(pts) == 4
    assert zs[0] == zs[1] and zs[2] == zs[3]


def test_region_U_drops_degenerate_points():
    pts = scaling.region_U(IX3, 0.05, [0.0, 1.0], [1.0])
    assert len(pts) == 1  # a = 0 has Im V' = 0 and is dropped
    with pytest.raises(UsageError):
        scaling.region_U(IX3, 0.05, [1.0], [0.0])
    # Im V' = 1e-8 is not zero absolutely, but is relative to |V'| = 1e6:
    # region_U drops exactly the points make_anchor rejects
    near_real = PotentialFamily(((1e6 + 1e-8j, 1, 0),))
    assert scaling.region_U(near_real, 0.05, [1.0], [1.0]) == []
    with pytest.raises(DegenerateAnchorError):
        make_anchor(near_real, 0.05, 1.0, 1.0)
    # V_h(1e200) and z = (1e200)^2 + V_h(1) overflow: make_anchor rejects both
    pts = scaling.region_U(IX3, 0.05, [1.0, 1e200], [1.0, 1e200])
    assert pts == [(make_anchor(IX3, 0.05, 1.0, 1.0).z, 1.0, 1.0)]
    for a, eta in ((1e200, 1.0), (1.0, 1e200)):
        with pytest.raises(UsageError):
            make_anchor(IX3, 0.05, a, eta)


@pytest.mark.parametrize("h", [-1.0, 0.0, math.inf, math.nan])
def test_region_U_refuses_h_make_anchor_refuses(h):
    with pytest.raises(UsageError):
        scaling.region_U(IX3, h, [1.0], [1.0])
    with pytest.raises(UsageError):
        make_anchor(IX3, h, 1.0, 1.0)


def test_region_U_drops_points_outside_the_domain():
    pts = scaling.region_U(HALF, 0.05, [-1.0, 0.0, math.nan, 1.0], [1.0])
    assert pts == [(make_anchor(HALF, 0.05, 1.0, 1.0).z, 1.0, 1.0)]


def test_highenergy_lower_bound_sector_enforced():
    HE = scaling.HighEnergyOperator(QUARTIC)
    with pytest.raises(SectorError):
        scaling.highenergy_lower_bound(HE, cmath.exp(-0.1j), 1e2, 0)
    with pytest.raises(UsageError):
        scaling.highenergy_lower_bound(HE, cmath.exp(0.3j), 0.5, 0)


@pytest.mark.parametrize("P", [QUARTIC, HALF], ids=["x4", "halfline"])
def test_highenergy_anchor_is_solve_anchor(P):
    HE = scaling.HighEnergyOperator(P)
    z = cmath.exp(1j * cmath.pi / 8)
    cert = scaling.highenergy_lower_bound(HE, z, 1e2, 0)
    smap = scaling.to_semiclassical(HE, 1e2)
    anchor = scaling.solve_anchor(smap.family, smap.h, z)
    assert cert.diagnostics["anchor_a"] == anchor.a
    assert cert.diagnostics["anchor_eta"] == anchor.eta
    # the quartic's mirror root is reported, as solve_anchor reports it
    assert ("alternative_roots:1" in cert.warnings) == (P is QUARTIC)


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_highenergy_lower_bound_needs_finite_sigma(sigma):
    HE = scaling.HighEnergyOperator(QUARTIC)
    with pytest.raises(UsageError):
        scaling.highenergy_lower_bound(HE, cmath.exp(0.3j), sigma, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: scaling.solve_anchor(IX3, 0.05, complex(1, math.nan)),
        lambda: scaling.solve_anchor(IX3, 0.05, 1 + 1j, a_init=math.nan),
        lambda: scaling.to_semiclassical(scaling.HighEnergyOperator(QUARTIC), math.inf),
    ],
    ids=["z", "a_init", "sigma"],
)
def test_nonfinite_input_is_a_usage_error(call):
    with pytest.raises(UsageError):
        call()


def test_highenergy_lower_bound_transfer():
    HE = scaling.HighEnergyOperator(QUARTIC)
    z = cmath.exp(1j * cmath.pi / 8)
    sigma = 1e3
    cert = scaling.highenergy_lower_bound(HE, z, sigma, 0)
    assert cert.z == pytest.approx(sigma * z)
    assert cert.lower_bound > 0
    assert cert.lower_bound * cert.r == pytest.approx(1.0, rel=1e-12)
    assert cert.diagnostics["sigma"] == sigma
    assert cert.diagnostics["semiclassical_h"] == pytest.approx(
        sigma ** (-0.25 * 3.0)
    )
    # the bound is the semiclassical certificate's times 1/sigma, bit for bit
    smap = scaling.to_semiclassical(HE, sigma)
    anchor = scaling.solve_anchor(smap.family, smap.h, z)
    semi = jwkb.certify(smap.family, anchor, 0, allow_large_h=True)
    assert cert.lower_bound.hex() == (semi.lower_bound * (1.0 / sigma)).hex()


def test_a_high_energy_certificate_records_its_dilated_frame():
    # the fixed operator's r is sigma times the family's: h, delta, panels
    # and the quadrature's diagnostics belong to the family
    HE = scaling.HighEnergyOperator(QUARTIC)
    cert = scaling.highenergy_lower_bound(HE, cmath.exp(1j * math.pi / 8), 1e2, 2)
    d = cert.diagnostics
    assert d["semiclassical_r"].hex() == math.sqrt(d["residual_sq"] / d["norm_f_sq"]).hex()
    smap = scaling.to_semiclassical(HE, 1e2)
    a, eta = d["anchor_a"], d["anchor_eta"]
    assert d["semiclassical_z"] == eta * eta + smap.family.eval(smap.h, a)
    assert cert.h == d["semiclassical_h"] == smap.h
    # the bound on the fixed operator is below 1, the family's is not
    assert d["semiclassical_r"] < 1 < cert.r and d["bound_below_one"] is True


#: the benchmark's high-energy sweep, (family, arg z / pi, n, sigma), less
#: the four (family, n, sigma) it leaves out because their quadrature ends
#: in AccuracyError at the round-off floor of the residual
HE_SWEEP = [
    (fam, frac, n, sigma)
    for fam, frac in (("x4", 1 / 8), ("x4", 3 / 16), ("halfline", 1 / 8))
    for n in (0, 1, 2)
    for sigma in (1e1, 1e2, 1e3, 1e4, 1e5)
    if (fam, n, sigma)
    not in {("x4", 2, 1e5), ("halfline", 2, 1e4), ("halfline", 1, 1e5), ("halfline", 2, 1e5)}
]


# ("halfline", 1/8, 1, 1e4) is on that floor too: r is the same at every
# panel count up to round-off, so its passes agree to QUAD_RTOL by chance
@pytest.mark.parametrize(
    "fam, frac, n, sigma",
    HE_SWEEP,
    ids=[f"{fam}-{frac:g}pi-n{n}-{sigma:g}" for fam, frac, n, sigma in HE_SWEEP],
)
def test_the_high_energy_sweep_certifies(fam, frac, n, sigma):
    HE = scaling.HighEnergyOperator({"x4": QUARTIC, "halfline": HALF}[fam])
    cert = scaling.highenergy_lower_bound(HE, cmath.exp(1j * math.pi * frac), sigma, n)
    assert math.isfinite(cert.r) and cert.r > 0
