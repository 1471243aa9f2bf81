"""The fused residual pass against the direct formula, bit for bit."""

import dataclasses

import numpy as np
import pytest

from quasimodes import jwkb
from quasimodes.errors import AccuracyError
from quasimodes.potential import PotentialFamily, make_anchor

IX = PotentialFamily(((1j, 1, 0),))
IX3 = PotentialFamily(((1j, 3, 0),))
X4 = PotentialFamily(((1 + 1j, 4, 0),))
HALF = PotentialFamily(((1.0, -2, 0), (1 + 1j, 2, 0)), domain="halfline")


def direct_residual(P, Q, s):
    """The residual written out at every node with xi > 0: the cutoff, then
    psi, psi', psi'' and V_h, then the operator, with no node skipped."""
    anchor = Q.anchor
    h, a, z = anchor.h, anchor.a, anchor.z
    s = np.asarray(s, dtype=float)
    xi, xi1, xi2 = jwkb.cutoff_eval(Q.delta, np.atleast_1d(s))
    out = np.zeros((3,) + xi.shape, dtype=complex)
    inside = xi > 0
    si = np.atleast_1d(s)[inside]
    v, d1, d2 = Q.phase_at(si)
    vh = P.eval_many(h, a + si)
    e = np.exp(-v)
    op = (
        -(h * h)
        * (xi2[inside] - 2.0 * xi1[inside] * d1 + xi[inside] * (d1 * d1 - d2))
        + (vh - z) * xi[inside]
    )
    out[0, inside] = op * e
    out[1, inside] = xi[inside] * e
    out[2, inside] = -(h * h) * (xi2[inside] - 2.0 * xi1[inside] * d1) * e
    return tuple(out.reshape((3,) + np.shape(s)))


def assert_same(P, Q, s):
    got = jwkb.residual_pointwise(P, Q, s)
    ref = direct_residual(P, Q, s)
    for g, r in zip(got, ref):
        assert np.shape(g) == np.shape(r)
        assert np.isfinite(r).all()
        assert np.all(g == r)
    return got


@pytest.fixture(scope="module")
def cubic():
    return jwkb.build_quasimode(IX3, make_anchor(IX3, 0.05, 1.0, 1.0), 2)


def test_points_beyond_delta_are_zero(cubic):
    d = cubic.delta
    s = np.concatenate([np.linspace(-2 * d, -d, 50), np.linspace(d, 2 * d, 50)])
    got = assert_same(IX3, cubic, s)
    assert all((part == 0).all() for part in got)


def test_points_at_the_plateau_edge_and_the_support_edge(cubic):
    d = cubic.delta
    s = np.array([-d, -d / 2, 0.0, d / 2, d])
    _, f, comm = assert_same(IX3, cubic, s)
    assert f[0] == 0 and f[-1] == 0 and (f[1:4] != 0).all()
    assert (comm[1:4] == 0).all()  # xi' = xi'' = 0 up to delta/2


def test_seam_points_where_the_cutoff_underflows(cubic):
    d = cubic.delta
    x = d * (1.0 - np.geomspace(1e-6, 0.5, 400))
    s = np.concatenate([-x, x])
    xi = jwkb.cutoff_eval(d, s)[0]
    assert (xi == 0).any() and (xi > 0).any()
    assert_same(IX3, cubic, s)


def test_nodes_where_exp_of_minus_psi_underflows():
    Q = jwkb.build_quasimode(IX3, make_anchor(IX3, 0.00625, 1.0, 1.0), 2)
    s = np.linspace(-Q.delta, Q.delta, 20001)
    _, f, _ = assert_same(IX3, Q, s)
    xi = jwkb.cutoff_eval(Q.delta, s)[0]
    assert ((f == 0) & (xi > 0)).sum() > 1000


def test_a_grid_longer_than_one_block(cubic):
    d = cubic.delta
    s = np.linspace(-1.1 * d, 1.1 * d, 2 * jwkb.RESIDUAL_BLOCK + 5)
    assert_same(IX3, cubic, s)
    assert_same(IX3, cubic, s[:-5].reshape(2, -1))


@pytest.mark.parametrize("frac", [0.0, 0.3, -0.49, 0.5, 0.75, -0.999, 1.2])
def test_a_scalar_point(cubic, frac):
    got = assert_same(IX3, cubic, frac * cubic.delta)
    assert all(np.ndim(part) == 0 for part in got)


@pytest.mark.parametrize("P, a, eta, h, n", [
    (IX3, 1.0, 1.0, 0.00625, 2),
    (X4, 1.0, 1.0, 0.025, 1),
    (HALF, 0.62, 0.6, 0.05, 2),  # |f~| reaches e^95 inside the support
])
def test_certificates_match_the_direct_formula(monkeypatch, P, a, eta, h, n):
    anchor = make_anchor(P, h, a, eta)
    got = jwkb.certify(P, anchor, n, allow_large_h=True)
    monkeypatch.setattr(jwkb, "residual_pointwise", direct_residual)
    ref = jwkb.certify(P, anchor, n, allow_large_h=True)
    assert (got.r, got.panels, got.diagnostics) == (ref.r, ref.panels, ref.diagnostics)


@pytest.mark.parametrize("P, a, eta", [
    (IX, 0.0, 1.0), (IX3, 1.0, 1.0), (X4, 1.0, 1.0), (HALF, 0.62, 0.6),
])
@pytest.mark.parametrize("h", [0.1, 0.00625])
def test_values_are_the_mode_row_of_the_residual(P, a, eta, h):
    # the oracle and the stencil check sample values(); the certificate
    # integrates row 1: the same bits at every node, zeros included, also
    # where exp(-psi) underflows
    Q = jwkb.build_quasimode(P, make_anchor(P, h, a, eta), 2)
    d = Q.delta
    edges = [d / 2, np.nextafter(d / 2, 0), np.nextafter(d / 2, d),
             d, np.nextafter(d, 0), np.nextafter(d, 2 * d), 2 * d]
    s = np.concatenate([np.linspace(-1.5 * d, 1.5 * d, 3001), edges, np.negative(edges)])
    got = Q.values(s)
    ref = jwkb.residual_pointwise(P, Q, s)[1]
    assert (ref != 0).sum() > 1000
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("where", [0.0, 0.75])
def test_a_nan_phase_row_fails_the_pass(cubic, where):
    i = np.argmin(np.abs(cubic.chain.centers - where * cubic.delta))
    segments = cubic.segments.copy()
    segments[i, 0, 3] = np.nan
    Q = dataclasses.replace(cubic, segments=segments)
    with pytest.raises(AccuracyError, match="not finite"):
        jwkb.residual_ratio(IX3, Q)


def masked_bump_pieces(t):
    """q, q', q'' of exp(-1/t), with q' and q'' masked to t > 0 as well."""
    pos = t > 0
    ts = np.where(pos, t, 1.0)
    q = np.where(pos, np.exp(-1.0 / ts), 0.0)
    return q, q / ts**2 * pos, q * (1.0 / ts**4 - 2.0 / ts**3) * pos


def two_call_transition(t):
    """The cutoff's transition with one bump evaluation per side."""
    qa, qa1, qa2 = masked_bump_pieces(t)
    qb, qb1, qb2 = masked_bump_pieces(1.0 - t)
    b1 = -qb1
    b2 = qb2
    d = qa + qb
    d1 = qa1 + b1
    w = qa1 * qb - qa * b1
    w1 = qa2 * qb - qa * b2
    g = qa / d
    g1 = w / d**2
    g2 = (w1 * d - 2.0 * w * d1) / d**3
    return g, g1, g2


def test_the_transition_keeps_its_bits(cubic):
    d = cubic.delta
    seam = np.linspace(d / 2, d, 20001)[1:-1]
    near = d * (1.0 - np.geomspace(1e-6, 0.5, 400))  # down to xi's underflow
    ends = [d / 2, np.nextafter(d / 2, d), np.nextafter(d, 0), d]  # t = 1, ~1, ~0, 0
    t = 2.0 - 2.0 * np.concatenate([seam, near, ends]) / d
    assert t[-1] == 0.0 and t[-4] == 1.0 and 0.0 < t[-2] and t[-3] < 1.0
    for got, ref in zip(jwkb._transition(t), two_call_transition(t)):
        assert np.isfinite(ref).all()
        assert np.all(got == ref)
