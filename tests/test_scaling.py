"""High-energy rescaling, anchor solving, and the instability region."""

import cmath

import numpy as np
import pytest

from quasimodes import scaling
from quasimodes.errors import (
    DegenerateAnchorError,
    InfeasibleEnergyError,
    NoAnchorError,
    SectorError,
    UsageError,
)
from quasimodes.potential import PotentialFamily, make_anchor

QUARTIC = PotentialFamily(((1 + 1j, 4, 0),))
IX3 = PotentialFamily(((1j, 3, 0),))


def test_highenergy_operator_validation():
    scaling.HighEnergyOperator(QUARTIC)  # fine
    with pytest.raises(UsageError):
        scaling.HighEnergyOperator(PotentialFamily(((1j, 3, 0),)))  # odd top
    with pytest.raises(UsageError):
        scaling.HighEnergyOperator(PotentialFamily(((1 - 1j, 4, 0),)))
    with pytest.raises(UsageError):
        scaling.HighEnergyOperator(PotentialFamily(((1 + 1j, 4, 0.5),)))


def test_rescaling_exponents():
    HE = scaling.HighEnergyOperator(QUARTIC)
    sigma = 1e4
    smap = scaling.to_semiclassical(HE, sigma)
    assert smap.u == pytest.approx(sigma ** 0.25)
    assert smap.h == pytest.approx(smap.u ** -3.0)
    assert smap.norm_factor == pytest.approx(1.0 / sigma)
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


def test_highenergy_lower_bound_sector_enforced():
    HE = scaling.HighEnergyOperator(QUARTIC)
    with pytest.raises(SectorError):
        scaling.highenergy_lower_bound(HE, cmath.exp(-0.1j), 1e2, 0)
    with pytest.raises(UsageError):
        scaling.highenergy_lower_bound(HE, cmath.exp(0.3j), 0.5, 0)


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
