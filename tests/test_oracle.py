"""Finite-difference oracle: stencil, sigma_min, and validation."""

import cmath
import math
import warnings

import numpy as np
import pytest

from quasimodes import jwkb, oracle, scaling
from quasimodes.cli import main
from quasimodes.errors import AccuracyError, UsageError
from quasimodes.potential import PotentialFamily, make_anchor

IX3 = PotentialFamily(((1j, 3, 0),))
QUARTIC = PotentialFamily(((1 + 1j, 4, 0),))
HALFLINE = PotentialFamily(((1.0, -2, 0), (1 + 1j, 2, 0)), domain="halfline")
FIXED_Z = 100.0 * cmath.exp(1j * math.pi / 8)


def test_discretization_grid():
    disc = oracle.Discretization(0.0, 1.0, 3)
    assert disc.dx == pytest.approx(0.25)
    np.testing.assert_allclose(disc.grid(), [0.25, 0.5, 0.75])
    with pytest.raises(UsageError):
        oracle.Discretization(1.0, 0.0, 10)
    with pytest.raises(UsageError):
        oracle.Discretization(0.0, 1.0, 2)
    # non-finite bounds: a nan grid read sigma_min = 0, an infinite one divided
    # by zero
    for lo, hi in ((math.nan, 3.0), (0.0, math.inf), (-math.inf, 0.0),
                   (0.0, math.nan)):
        with pytest.raises(UsageError):
            oracle.Discretization(lo, hi, 10)


def test_assemble_stencil_entries():
    P = PotentialFamily(((2.0, 0, 0),))  # constant potential 2
    disc = oracle.Discretization(0.0, 1.0, 3)
    h = 0.5
    T = oracle.assemble(P, h, disc)
    k = h * h / disc.dx**2
    np.testing.assert_allclose(T.diag, 2 * k + 2.0)
    np.testing.assert_allclose(T.off, -k)
    with pytest.raises(UsageError, match="domain edge"):  # x_lo on the half-line's edge
        oracle.assemble(HALFLINE, h, oracle.Discretization(0.0, 1.0, 3))


def test_matvec():
    # [[1, 3, 0], [3, 1, 2j], [0, 2j, 1]] @ [1, 2, 3]
    T = oracle.TridiagonalOperator(
        diag=np.array([1.0 + 0j, 1.0, 1.0]),
        off=np.array([3.0 + 0j, 2j]),
    )
    v = np.array([1.0, 2.0, 3.0], dtype=complex)
    np.testing.assert_allclose(T.matvec(v), [7.0, 5.0 + 6j, 3.0 + 4j])


def test_smallest_singular_value_laplacian():
    # -h^2 d2/dx2 with V = 0: eigenvalues 2k(1 - cos(j pi/(N+1)))
    P = PotentialFamily(((0.0, 0, 0),))
    disc = oracle.Discretization(0.0, 1.0, 3)
    h = 1.0
    T = oracle.assemble(P, h, disc)
    k = h * h / disc.dx**2
    expect = k * (2.0 - math.sqrt(2.0))
    got = oracle.smallest_singular_value(T, 0.0)
    assert got == pytest.approx(expect, rel=1e-6)


def test_smallest_singular_value_shift():
    # shifting by an eigenvalue makes the matrix (nearly) singular
    P = PotentialFamily(((0.0, 0, 0),))
    disc = oracle.Discretization(0.0, 1.0, 3)
    T = oracle.assemble(P, 1.0, disc)
    k = 1.0 / disc.dx**2
    got = oracle.smallest_singular_value(T, k * (2.0 - math.sqrt(2.0)))
    assert got < 1e-8 * k


def test_exactly_singular_matrix_gives_zero():
    # h^2/dx^2 = 1, so T - 2 has a zero diagonal and is exactly singular
    P = PotentialFamily(((0.0, 0, 0),))
    T = oracle.assemble(P, 0.25, oracle.Discretization(0.0, 1.0, 3))
    assert oracle.factor_tridiagonal(T.diag - 2.0, T.off) is None
    assert oracle.smallest_singular_value(T, 2.0) == 0.0
    # a zero pivot with nothing to swap in, before the last row
    T = oracle.TridiagonalOperator(np.array([0j, 1, 1]), np.array([0j, 1]))
    assert oracle.factor_tridiagonal(T.diag, T.off) is None
    assert oracle.smallest_singular_value(T, 0.0) == 0.0


def test_solve_pivots_past_a_zero_leading_pivot():
    # z = T[0, 0] zeroes the first pivot: LU without interchanges breaks down
    T = oracle.assemble(IX3, 0.1, oracle.Discretization(-2.0, 4.0, 400))
    z = T.diag[0]
    A = oracle.TridiagonalOperator(T.diag - z, T.off)
    assert A.diag[0] == 0
    rng = np.random.default_rng(1)
    b = rng.standard_normal(A.n) + 1j * rng.standard_normal(A.n)
    x = oracle.solve_banded(oracle.factor_tridiagonal(A.diag, A.off), b)
    dense = np.diag(A.diag) + np.diag(A.off, 1) + np.diag(A.off, -1)
    eps = np.finfo(float).eps
    bound = 100 * eps * (np.linalg.norm(dense, 2) * np.linalg.norm(x) + np.linalg.norm(b))
    assert np.linalg.norm(A.matvec(x) - b) <= bound


@pytest.mark.parametrize("case", ["1000", "2000", "halfline", "ix3-h0.0125"])
def test_smallest_singular_value_matches_dense_svd(case):
    # "1000", "2000": a high-energy quartic whose two smallest singular
    # values are 0.3% apart (0.7825, 0.7846 at n = 1000), a hard case for
    # a power method.  The other two sit near the float64 floor
    # eps * sigma_max, which then bounds the error instead of 1e-8.
    if case == "ix3-h0.0125":
        anchor = make_anchor(IX3, 0.0125, 1.0, 1.0)
        cert = jwkb.certify(IX3, anchor, 2)
        disc = oracle.default_discretization(IX3, anchor, cert.delta)
        T, z = oracle.assemble(IX3, 0.0125, disc), cert.z
    else:
        P, lo, hi, n = ((HALFLINE, 0.05, 12.0, 2000) if case == "halfline"
                        else (QUARTIC, -6.0, 6.0, int(case)))
        T, z = oracle.assemble(P, 1.0, oracle.Discretization(lo, hi, n)), FIXED_Z
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = oracle.smallest_singular_value(T, z)
        again = oracle.smallest_singular_value(T, z)
    dense = np.diag(T.diag - z) + np.diag(T.off, 1) + np.diag(T.off, -1)
    sv = np.linalg.svd(dense, compute_uv=False)
    tol = 1e-8 * sv[-1]
    if not case.isdigit():
        tol = max(tol, 10 * np.finfo(float).eps * sv[0])
    assert abs(got - sv[-1]) <= tol
    assert again == got


def test_lanczos_failure_is_an_accuracy_error(monkeypatch, tmp_path):
    monkeypatch.setattr(oracle, "SSV_MAX_STEPS", 1)
    T = oracle.assemble(IX3, 0.1, oracle.Discretization(-2.0, 4.0, 400))
    with pytest.raises(AccuracyError):
        oracle.smallest_singular_value(T, 1 + 1j)
    path = tmp_path / "cubic.txt"
    path.write_text("domain: line\n0 1 3 0\n")
    code = main(["validate", "--potential", str(path), "--a", "1", "--eta", "1",
                 "--h", "0.1", "--allow-large-h"])
    assert code == 4


def test_oracle_norm_grows_with_interval():
    # enlarging the box can only add discrete spectrum, so the resolvent
    # norm estimate is monotone (up to iteration tolerance)
    anchor = make_anchor(IX3, 0.1, 1.0, 1.0)
    norms = []
    for halfwidth in (1.5, 2.5, 3.5):
        disc = oracle.Discretization(
            1.0 - halfwidth, 1.0 + halfwidth, int(80 * halfwidth)
        )
        T = oracle.assemble(IX3, 0.1, disc)
        norms.append(1.0 / oracle.smallest_singular_value(T, anchor.z))
    assert norms[1] >= norms[0] * (1 - 1e-6)
    assert norms[2] >= norms[1] * (1 - 1e-6)


def test_validate_passes_on_cubic_fixture():
    anchor = make_anchor(IX3, 0.1, 1.0, 1.0)
    cert = jwkb.certify(IX3, anchor, 0, allow_large_h=True)
    disc = oracle.default_discretization(IX3, anchor, cert.delta)
    report = oracle.validate(cert, IX3, disc)
    assert report.passed
    assert report.lower_bound <= 1.1 * report.oracle_norm
    assert report.discrete_residual == pytest.approx(cert.r, rel=0.1)
    d = report.to_dict()
    assert d["pass"] is True and "grid" in d
    assert "oracle_norm" in report.to_json()


@pytest.mark.parametrize("a, h", [(1.0, 0.0125), (0.62, 0.05), (0.62, 0.0125)])
def test_default_grid_passes_validate_on_the_half_line(a, h):
    P = PotentialFamily(((1.0, -2, 0), (1 + 1j, 2, 0)), domain="halfline")
    anchor = make_anchor(P, h, a, 0.6)
    cert = jwkb.certify(P, anchor, 1, allow_large_h=True)
    disc = oracle.default_discretization(P, anchor, cert.delta)
    assert P.x_min < disc.x_lo <= disc.dx
    assert oracle.validate(cert, P, disc).passed


def test_validate_guards():
    anchor = make_anchor(IX3, 0.1, 1.0, 1.0)
    cert = jwkb.certify(IX3, anchor, 0, allow_large_h=True)
    with pytest.raises(UsageError):  # too narrow
        oracle.validate(cert, IX3, oracle.Discretization(0.5, 1.5, 500))
    with pytest.raises(UsageError):  # too coarse
        oracle.validate(cert, IX3, oracle.Discretization(-2.0, 4.0, 100))
    bare = jwkb.certify(IX3, anchor, 0, allow_large_h=True)
    bare.quasimode = None
    with pytest.raises(UsageError):
        oracle.validate(bare, IX3, oracle.Discretization(-2.0, 4.0, 2000))
    with pytest.raises(UsageError, match="no attached quasimode"):
        oracle.discrete_residual(bare, IX3, oracle.Discretization(-2.0, 4.0, 2000))
    # a weakly non-self-adjoint linear potential: f~ is still 0.355 of its
    # peak at a +- 8 sqrt(h), so Dirichlet walls there would cut it
    P = PotentialFamily(((1 + 0.05j, 1, 0),))
    wide = jwkb.certify(P, make_anchor(P, 0.05, 0.0, 1.0), 0)
    reach = 8.0 * math.sqrt(0.05)
    with pytest.raises(UsageError, match="not negligible at the interval endpoints"):
        oracle.validate(wide, P, oracle.Discretization(-reach, reach, 800))


def test_oracle_refuses_a_rescaled_high_energy_certificate():
    # the certificate records sigma*z, but its f~ is the dilated family's at z:
    # sampled at sigma*z, it read discrete_residual 99.0 against r = 1.68
    HE = scaling.HighEnergyOperator(QUARTIC)
    cert = scaling.highenergy_lower_bound(HE, cmath.exp(1j * math.pi / 8), 100.0, 2)
    family = scaling.to_semiclassical(HE, 100.0).family
    disc = oracle.default_discretization(family, cert.quasimode.anchor, cert.delta)
    for check in (oracle.validate, oracle.discrete_residual):
        with pytest.raises(UsageError, match="rescaled"):
            check(cert, family, disc)


def test_discrete_residual_second_order():
    anchor = make_anchor(IX3, 0.1, 1.0, 1.0)
    cert = jwkb.certify(IX3, anchor, 0, allow_large_h=True)
    errs = []
    for n in (500, 1000, 2000):
        disc = oracle.Discretization(-3.0, 5.0, n)
        errs.append(abs(oracle.discrete_residual(cert, IX3, disc) - cert.r))
    assert errs[0] > errs[1] > errs[2]
