"""Finite-difference oracle: stencil, sigma_min, and validation."""

import cmath
import math
import warnings

import numpy as np
import pytest

from quasimodes import jwkb, oracle
from quasimodes.cli import main
from quasimodes.errors import AccuracyError, UsageError
from quasimodes.potential import PotentialFamily, make_anchor

IX3 = PotentialFamily(((1j, 3, 0),))
QUARTIC = PotentialFamily(((1 + 1j, 4, 0),))


def test_discretization_grid():
    disc = oracle.Discretization(0.0, 1.0, 3)
    assert disc.dx == pytest.approx(0.25)
    np.testing.assert_allclose(disc.grid(), [0.25, 0.5, 0.75])
    with pytest.raises(UsageError):
        oracle.Discretization(1.0, 0.0, 10)
    with pytest.raises(UsageError):
        oracle.Discretization(0.0, 1.0, 2)


def test_assemble_stencil_entries():
    P = PotentialFamily(((2.0, 0, 0),))  # constant potential 2
    disc = oracle.Discretization(0.0, 1.0, 3)
    h = 0.5
    T = oracle.assemble(P, h, disc)
    k = h * h / disc.dx**2
    np.testing.assert_allclose(T.diag, 2 * k + 2.0)
    np.testing.assert_allclose(T.sub, -k)
    np.testing.assert_allclose(T.sup, -k)


def test_matvec():
    T = oracle.TridiagonalOperator(
        sub=np.array([1.0 + 0j, 2.0]),
        diag=np.array([1.0 + 0j, 1.0, 1.0]),
        sup=np.array([3.0 + 0j, 1.0]),
    )
    v = np.array([1.0, 2.0, 3.0], dtype=complex)
    np.testing.assert_allclose(T.matvec(v), [7.0, 6.0, 7.0])


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


@pytest.mark.parametrize("n", [1000, 2000])
def test_smallest_singular_value_matches_dense_svd(n):
    # a high-energy quartic whose two smallest singular values are 0.3%
    # apart (0.7825, 0.7846 at n = 1000): a hard case for a power method
    T = oracle.assemble(QUARTIC, 1.0, oracle.Discretization(-6.0, 6.0, n))
    z = 100.0 * cmath.exp(1j * math.pi / 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = oracle.smallest_singular_value(T, z)
        again = oracle.smallest_singular_value(T, z)
    dense = np.diag(T.diag - z) + np.diag(T.sup, 1) + np.diag(T.sub, -1)
    ref = np.linalg.svd(dense, compute_uv=False)[-1]
    assert got == pytest.approx(ref, rel=1e-8)
    assert again == got


def test_lanczos_failure_is_an_accuracy_error(monkeypatch, tmp_path):
    import scipy.sparse.linalg

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("stalled", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
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


def test_discrete_residual_second_order():
    anchor = make_anchor(IX3, 0.1, 1.0, 1.0)
    cert = jwkb.certify(IX3, anchor, 0, allow_large_h=True)
    errs = []
    for n in (500, 1000, 2000):
        disc = oracle.Discretization(-3.0, 5.0, n)
        errs.append(abs(oracle.discrete_residual(cert, IX3, disc) - cert.r))
    assert errs[0] > errs[1] > errs[2]
