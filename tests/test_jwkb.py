"""Phase construction, cutoff, and residual certificates."""

import dataclasses
import math

import numpy as np
import pytest
from chains import anchor_expansion, leading_at, operator_chain, phi_chain

from quasimodes import jwkb, scaling
from quasimodes.errors import AccuracyError, DegenerateAnchorError, UsageError
from quasimodes.potential import Anchor, PotentialFamily, make_anchor
from quasimodes.series import TruncatedSeries

IX = PotentialFamily(((1j, 1, 0),))
IX3 = PotentialFamily(((1j, 3, 0),))
X4 = PotentialFamily(((1 + 1j, 4, 0),))
HALF = PotentialFamily(((1.0, -2, 0), (1 + 1j, 2, 0)), domain="halfline")


def binom(alpha, k):
    out = 1.0
    for j in range(k):
        out *= (alpha - j) / (j + 1)
    return out


def linear_anchor(h=0.05):
    return make_anchor(IX, h, 0.0, 1.0)


def cubic_anchor(h=0.05):
    return make_anchor(IX3, h, 1.0, 1.0)


def test_eikonal_linear_closed_form():
    # V = ix, a = 0, eta = 1: psi_{-1} = (2/3)(1 - (1 - is)^{3/2})
    psi = anchor_expansion(IX, linear_anchor(), 0, 12)[0][0]
    K = psi.K
    ref = np.array(
        [(2.0 / 3.0) * (-binom(1.5, k) * (-1j) ** k) for k in range(K + 1)]
    )
    ref[0] = 0.0
    np.testing.assert_allclose(psi.coeffs, ref, atol=1e-14)


def test_eikonal_quadratic_coefficient_positive():
    # Re of the s^2 coefficient is Im V'(a) / (4 eta) > 0
    anchor = cubic_anchor()
    psi = anchor_expansion(IX3, anchor, 0, 10)[0][0]
    assert psi.coeffs[1] == pytest.approx(1j * anchor.eta)
    assert psi.coeffs[2].real == pytest.approx(3.0 / 4.0)  # Im V'(1)/(4 eta)


def test_transport_linear_closed_form():
    # psi_0 = (1/4) log(1 - is)
    got = anchor_expansion(IX, linear_anchor(), 0, 16)[0][1].coeffs
    k = np.arange(1, got.size)
    ref = np.concatenate([[0.0], -0.25 * (1j) ** k / k])
    # the transport step consumes one differentiation, so the top
    # coefficient is not determined at this truncation
    np.testing.assert_allclose(got[:-1], ref[:-1], atol=1e-13)


def test_phase_truncation_default():
    assert jwkb.default_truncation(0) == 16
    assert jwkb.default_truncation(2) == 20
    chain = jwkb._march(IX3, cubic_anchor(), 2)
    assert chain.derivs.shape[1:] == (4, 21)  # psi_{-1}' .. psi_2', degree 20
    assert chain.tails.shape[1:] == (3, 21)  # phi_4 .. phi_6


def test_phi_cascade_vanishes_below_tail():
    for P, anchor in ((IX, linear_anchor()), (IX3, cubic_anchor())):
        for n in (0, 1, 2):
            psi, phis, _ = anchor_expansion(P, anchor, n)
            assert len(phis) == 2 * n + 3
            scale = max(np.abs(ps.coeffs).max() for ps in psi)
            for j in range(n + 2):
                assert np.abs(phis[j]).max() <= 1e-12 * scale


@pytest.mark.parametrize(
    "P, a, eta", [(IX, 0.0, 1.0), (IX3, 1.0, 1.0), (X4, 1.0, 1.0), (HALF, 0.62, 0.6)]
)
def test_eikonal_rhs_subtracts_the_anchor_energy(P, a, eta):
    # V_h(a) - z = -eta^2 at the anchor; other coefficients are V_h's own
    anchor = make_anchor(P, 0.05, a, eta)
    rhs = jwkb.eikonal_rhs(P, anchor, 12)
    assert rhs[0] == pytest.approx(-(eta**2), rel=1e-14, abs=1e-14)
    taylor = P.taylor_at(anchor.h, a, 12)
    assert rhs[1:].tobytes() == taylor[1:].tobytes()
    assert rhs[0] == taylor[0] - anchor.z


def test_phi_top_tail_is_minus_dpsi_n_squared():
    # the chain's tail at s = 0 holds phi_{2n+2} up to degree K - (2n + 2)
    n, K, anchor = 1, 24, cubic_anchor()
    chain = jwkb._march(IX3, anchor, n, K)
    top = chain.tails[chain.origin, n]
    rhs = TruncatedSeries(jwkb.eikonal_rhs(IX3, anchor, K))
    dpsi = operator_chain(rhs, n, 1j * anchor.eta)
    ref = -1.0 * (dpsi[n + 1] * dpsi[n + 1])
    m = K - (2 * n + 2) + 1
    np.testing.assert_allclose(
        top[:m], ref.coeffs[:m], atol=1e-12 * np.abs(ref.coeffs).max()
    )
    assert not top[m:].any()


def roots_of_v_minus_z(P, h, z):
    """Zeros of x^(-lo) (V_h - z) for integer exponents, plus the pole x = 0."""
    powers = [int(p) for _, p, _ in P.terms] + [0]
    lo = min(powers)
    poly = np.zeros(max(powers) - lo + 1, dtype=complex)
    for (c, _, e), k in zip(P.terms, powers):
        poly[k - lo] += c * h**e
    poly[-lo] -= z
    x = np.roots(poly[::-1])
    return np.append(x, 0.0) if lo < 0 else x


#: batched and operator-chain rows agree to this share of a row's largest
#: coefficient, or of its terms' magnitudes for a phi_j, which cancels
#: far below them (the batched sums add in another order)
LOCAL_RTOL = 1e-13

#: a radius is the distance to the nearest reference root to this
RADIUS_RTOL = 1e-12


def assert_rows_close(got, ref, scale=None):
    for k, (g, r) in enumerate(zip(got, ref)):
        bound = np.abs(r).max() if scale is None else scale[k]
        assert (np.abs(g[: r.size] - r) <= LOCAL_RTOL * bound).all()
        assert not g[r.size :].any()


@pytest.mark.parametrize(
    "P, a, eta", [(IX3, 1.0, 1.0), (X4, 1.0, 1.0), (HALF, 0.62, 0.6)]
)
@pytest.mark.parametrize("n", [0, 1, 2])
def test_local_series_matches_operator_chain(P, a, eta, n):
    # at every march centre, the anchor's included (psi_m' and the tail);
    # a phi_j is checked against the chain's own psi_m' rows, since near a
    # pole it cancels far below the round-off of those rows
    anchor = make_anchor(P, 0.05, a, eta)
    chain = jwkb._march(P, anchor, n)
    assert chain.centers[chain.origin] == 0.0
    assert chain.derivs[chain.origin, 0, 0] == 1j * eta  # the concentrating branch
    assert (jwkb.build_piecewise(P, anchor, n).chain.centers == chain.centers).all()
    points = roots_of_v_minus_z(P, anchor.h, anchor.z) - a
    K = chain.derivs.shape[-1] - 1
    i = np.arange(len(chain.centers))
    inward = chain.centers[i - np.sign(i - chain.origin)]
    for center, derivs, tails, start in zip(
        chain.centers, chain.derivs, chain.tails, inward
    ):
        rhs = TruncatedSeries(jwkb.eikonal_rhs(P, anchor, K, at=center))
        ref_derivs = operator_chain(rhs, n, derivs[0, 0])
        assert_rows_close(derivs, [d.coeffs for d in ref_derivs])
        own = [TruncatedSeries(d) for d in derivs]
        assert_rows_close(tails, *phi_chain(own, rhs, n, n + 2))
        if center != 0.0:  # a step is a share of the radius it starts from
            radius = np.abs(points - start).min()
            step = abs(center - start)
            assert step == pytest.approx(jwkb.STEP_FRACTION * radius, rel=RADIUS_RTOL)


@pytest.mark.parametrize("P", [IX3, X4], ids=["ix3", "x4"])
def test_segments_do_not_depend_on_order(P):
    anchor = make_anchor(P, 0.05, 1.0, 1.0)
    counts = {len(jwkb._march(P, anchor, n).centers) for n in (0, 1, 2)}
    assert len(counts) == 1


def next_center(P, anchor, chain, side):
    """The centre the march would place after the outermost one of a side
    (+1 toward larger s, -1 toward smaller)."""
    points = P.branch_points(anchor.h, anchor.z) - anchor.a
    last = chain.centers[-1 if side > 0 else 0]
    return last + side * jwkb.STEP_FRACTION * np.abs(points - last).min()


def test_march_stops_past_the_span():
    # nothing branches on the real axis: both walls are the span, and each
    # side stops before the first centre past SPAN_SHARE of it
    anchor = cubic_anchor()
    chain = jwkb._march(IX3, anchor, 1)
    assert (abs(chain.centers) <= jwkb.SPAN_SHARE * jwkb.DEFAULT_SPAN).all()
    for side in (1, -1):
        assert side * next_center(IX3, anchor, chain, side) > (
            jwkb.SPAN_SHARE * jwkb.DEFAULT_SPAN)
    assert tuple(chain.coverage) == (-jwkb.DEFAULT_SPAN, jwkb.DEFAULT_SPAN)


def test_march_stops_before_the_domain_edge():
    # nothing branches at x = 0 for this family, so its first step toward
    # the edge crosses it; the wall is the edge, and delta stays inside it
    P = PotentialFamily(((1 + 1j, 2, 0),), domain="halfline")
    anchor = make_anchor(P, 0.05, 0.05, 1.0)
    chain = jwkb._march(P, anchor, 0)
    assert chain.origin == 0 and chain.coverage[0] == -anchor.a
    cert = jwkb.certify(P, anchor, 0, allow_large_h=True)
    assert 0 < cert.delta < anchor.a and 0 < cert.r < math.inf


def test_march_stops_at_a_real_turning_point():
    # V = x + i x^2 with a = -1/2, eta = -1 has V(1/2) = z: a real turning
    # point at s = 1, the right side's wall.  The steps approach it
    # geometrically and stop before the first centre past SPAN_SHARE of it
    P = PotentialFamily(((1.0, 1, 0), (1j, 2, 0)))
    anchor = make_anchor(P, 0.05, -0.5, -1.0)
    chain = jwkb._march(P, anchor, 0)
    assert len(chain.centers) - chain.origin - 1 <= 12
    assert chain.centers[-1] <= jwkb.SPAN_SHARE
    assert next_center(P, anchor, chain, 1) > jwkb.SPAN_SHARE
    assert chain.coverage[1] == pytest.approx(1.0, rel=1e-12)
    cert = jwkb.certify(P, anchor, 0)
    assert cert.delta == pytest.approx(jwkb.SPAN_SHARE, rel=1e-12)


def test_march_keeps_each_side_up_to_its_first_nonfinite_row(monkeypatch):
    anchor = cubic_anchor()
    full = jwkb._march(IX3, anchor, 1)
    rhs_at = jwkb.eikonal_rhs

    def overflowing(P, anchor, K, at=0.0):
        rhs = rhs_at(P, anchor, K, at)
        rhs[np.asarray(at) > 1.0, K] = np.inf
        return rhs

    monkeypatch.setattr(jwkb, "eikonal_rhs", overflowing)
    cut = jwkb._march(IX3, anchor, 1)
    kept = full.centers <= 1.0
    assert (cut.centers == full.centers[kept]).all() and not kept.all()
    assert (cut.derivs == full.derivs[kept]).all()
    assert cut.coverage[0] == full.coverage[0]
    assert cut.coverage[1] == full.centers[~kept].min()  # the first dropped


def test_march_cut_by_the_segment_cap_reaches_its_next_centre(monkeypatch):
    # a safety stop: the side does not reach its wall, so select_delta may
    # look only as far as the centre the march would place next
    anchor = cubic_anchor()
    monkeypatch.setattr(jwkb, "MAX_SEGMENTS", 3)
    chain = jwkb._march(IX3, anchor, 1)
    assert len(chain.centers) == 7
    assert tuple(chain.coverage) == (next_center(IX3, anchor, chain, -1),
                                     next_center(IX3, anchor, chain, 1))
    assert chain.coverage[1] < jwkb.DEFAULT_SPAN


@pytest.mark.parametrize("sigma", [1e2, 1e4])
def test_halfline_march_stays_well_under_the_segment_cap(sigma):
    # the steps toward the pole at x = 0 shrink geometrically; the side
    # stops before the first centre past SPAN_SHARE of the way to the edge,
    # where select_delta stops looking
    HE = scaling.HighEnergyOperator(HALF)
    smap = scaling.to_semiclassical(HE, sigma)
    anchor = scaling.solve_anchor(smap.family, smap.h, np.exp(1j * np.pi / 8))
    for n in (0, 1, 2):
        chain = jwkb._march(smap.family, anchor, n)
        assert len(chain.centers) < jwkb.MAX_SEGMENTS // 4
        assert chain.centers[0] >= -jwkb.SPAN_SHARE * anchor.a
        assert next_center(smap.family, anchor, chain, -1) < -jwkb.SPAN_SHARE * anchor.a
        assert chain.coverage[0] == -anchor.a


FRACTIONAL = PotentialFamily(
    ((0.3j, -1.5, 0), (2.0, 0.5, 1), (1 + 1j, 2, 0)), domain="halfline"
)


def principal_v(P, h, x):
    """(V_h(x), V_h'(x)) at complex x with principal powers."""
    v = sum(c * h**e * x**p for c, p, e in P.terms)
    dv = sum(c * h**e * p * x ** (p - 1) for c, p, e in P.terms)
    return v, dv


def test_branch_points_of_a_fractional_family():
    # the points other than the origin are exactly the roots of V_h - z
    # that Newton's method finds from starts all over the principal sheet
    anchor = make_anchor(FRACTIONAL, 0.05, 1.0, 1.0)
    h, z = anchor.h, anchor.z
    points = FRACTIONAL.branch_points(h, z)
    assert (points == 0).sum() == 1
    roots = points[points != 0]
    found = []
    for r in (0.1, 0.3, 1.0, 2.0):
        for x in r * np.exp(1j * np.linspace(-3.0, 3.0, 13)):
            for _ in range(80):
                v, dv = principal_v(FRACTIONAL, h, x)
                x = x - (v - z) / dv
            if abs(principal_v(FRACTIONAL, h, x)[0] - z) < 1e-12:
                found.append(x)
    found = np.array(found)
    assert (np.abs(roots[:, None] - found[None, :]).min(axis=1) < 1e-9).all()
    assert (np.abs(found[:, None] - roots[None, :]).min(axis=1) < 1e-9).all()


def test_fractional_family_marches_and_certifies():
    anchor = make_anchor(FRACTIONAL, 0.05, 1.0, 1.0)
    points = FRACTIONAL.branch_points(anchor.h, anchor.z) - anchor.a
    chain = jwkb._march(FRACTIONAL, anchor, 1)
    i = np.arange(len(chain.centers))
    start = chain.centers[i - np.sign(i - chain.origin)]
    radii = np.abs(points[None, :] - start[:, None]).min(axis=1)
    steps = abs(chain.centers - start)
    np.testing.assert_allclose(steps[i != chain.origin],
                               jwkb.STEP_FRACTION * radii[i != chain.origin],
                               rtol=RADIUS_RTOL)
    assert np.isfinite(chain.derivs).all()
    cert = jwkb.certify(FRACTIONAL, anchor, 1, allow_large_h=True)
    assert 0 < cert.r < math.inf


@pytest.mark.parametrize(
    "P, a, eta, r_rtol",
    [(IX, 0.0, 1.0, 1e-10), (IX3, 1.0, 1.0, 1e-10), (X4, 1.0, 1.0, 1e-10),
     (PotentialFamily(((1.0, 1, 0), (1j, 2, 0))), -0.5, -1.0, 1e-10),
     # a branch point 0.0056 off the axis at s = -0.043: the degree-18
     # series of each step near it moves r by 6.6e-10 (6e-13 at degree 24)
     (HALF, 0.62, 0.6, 1e-9)],
    ids=["ix", "ix3", "x4", "x+ix2", "halfline"],
)
def test_delta_does_not_depend_on_the_march_steps(monkeypatch, P, a, eta, r_rtol):
    # the walls, and so select_delta's grid, do not move with the centres
    anchor = make_anchor(P, 0.025, a, eta)
    certs = []
    for fraction in (0.3, 0.25, 0.2):
        monkeypatch.setattr(jwkb, "STEP_FRACTION", fraction)
        certs.append(jwkb.certify(P, anchor, 1))
    # three marches: a memo that ignored the constant would compare one
    # chain with itself
    assert len({len(cert.quasimode.chain.centers) for cert in certs}) == 3
    first = certs[0]
    for cert in certs[1:]:
        assert cert.delta == first.delta and cert.panels == first.panels
        assert cert.r == pytest.approx(first.r, rel=r_rtol)


def test_piecewise_matches_central_series_near_anchor():
    pw = jwkb.build_piecewise(IX3, cubic_anchor(), 1)
    psi = anchor_expansion(IX3, cubic_anchor(), 1)[0]
    h = cubic_anchor().h
    for s in (-0.05, 0.02, 0.08):
        direct = sum(h**m * ps.eval(s) for m, ps in enumerate(psi, start=-1))
        v, _, _ = pw.phase_at(s)
        assert abs(v - direct) < 1e-10 * max(1.0, abs(direct))


def test_piecewise_reaches_past_single_series_radius():
    # the central series for i x^3 at a = 1 only converges to |s| ~ 0.3
    pw = jwkb.build_piecewise(IX3, cubic_anchor(), 0)
    lo, hi = pw.chain.coverage
    assert hi > 2.0 and lo < -2.0


def test_piecewise_derivatives_consistent():
    pw = jwkb.build_piecewise(IX3, cubic_anchor(), 1)
    eps = 1e-6
    for s in (-1.7, -0.4, 0.9, 2.3):
        v, d1, d2 = pw.phase_at(s)
        vp, _, _ = pw.phase_at(s + eps)
        vm, _, _ = pw.phase_at(s - eps)
        assert abs((vp - vm) / (2 * eps) - d1) < 1e-6 * max(1.0, abs(d1))
        assert abs((vp - 2 * v + vm) / eps**2 - d2) < 1e-3 * max(1.0, abs(d2))


def test_piecewise_leading_continuous_at_segment_joins():
    pw = jwkb.build_piecewise(IX3, cubic_anchor(), 0)
    joins = 0.5 * (pw.chain.centers[:-1] + pw.chain.centers[1:])
    for sj in joins:
        va, _ = leading_at(pw, sj - 1e-9)
        vb, _ = leading_at(pw, sj + 1e-9)
        assert abs(va - vb) < 1e-7 * max(1.0, abs(va))


def test_piecewise_join_midpoint_goes_to_right_segment():
    pw = jwkb.build_piecewise(IX3, cubic_anchor(), 0)
    joins = 0.5 * (pw.chain.centers[:-1] + pw.chain.centers[1:])
    for k, sj in enumerate(joins):
        right = TruncatedSeries(pw.chain.leading[k + 1])  # psi_{-1}, segment k + 1
        assert leading_at(pw, sj)[0] == right.eval(sj - pw.chain.centers[k + 1])


def test_piecewise_arrays_match_scalar_calls():
    pw = jwkb.build_piecewise(IX3, cubic_anchor(), 1)
    rng = np.random.default_rng(7)
    s = rng.permutation(np.linspace(-2.5, 2.5, 60)).reshape(4, 15)
    assert len(np.unique(np.searchsorted(pw.chain.centers, s))) > 3
    for method in (pw.phase_at, lambda x: leading_at(pw, x), lambda x: (pw.tail_at(x),)):
        arrays = method(s)
        for i, j in np.ndindex(s.shape):
            for got, ref in zip(arrays, method(s[i, j])):
                assert got.shape == s.shape
                assert got[i, j] == ref


def test_cutoff_plateau_support_and_smoothness():
    delta = 1.4
    edges = [0.0, delta / 2, np.nextafter(delta / 2, 0), np.nextafter(delta / 2, delta),
             delta, np.nextafter(delta, 0), np.nextafter(delta, 2 * delta), 1e300, np.inf]
    s = np.concatenate([np.linspace(-2 * delta, 2 * delta, 1001), edges, np.negative(edges)])
    with np.errstate(all="raise", under="ignore"):  # a huge |s| overflows nothing
        xi, xi1, xi2 = jwkb.cutoff_eval(delta, s)
    # one transition formula, exact on the plateau and beyond the support,
    # because the bump q(t) is exactly 0 for t <= 0
    plateau, outside = np.abs(s) <= delta / 2, np.abs(s) >= delta
    assert np.all(xi[plateau] == 1.0) and not (xi1[plateau].any() or xi2[plateau].any())
    assert not (xi[outside].any() or xi1[outside].any() or xi2[outside].any())
    mid = ~plateau & ~outside
    assert np.all((xi[mid] >= 0) & (xi[mid] <= 1))
    for frac in (0.65, 0.75, 0.85):
        val = jwkb.cutoff_eval(delta, frac * delta)[0]
        assert 0 < val < 1
    # derivative consistent with finite differences of xi
    eps = 1e-6
    probe = np.array([0.8, -0.9, 1.05]) * delta / 1.4
    for sp in probe:
        xp = jwkb.cutoff_eval(delta, sp + eps)[0]
        xm = jwkb.cutoff_eval(delta, sp - eps)[0]
        d1 = jwkb.cutoff_eval(delta, sp)[1]
        assert abs((xp - xm) / (2 * eps) - d1) < 1e-6


def test_cutoff_refuses_a_bad_delta_and_drops_a_nan_point():
    for delta in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(UsageError, match="delta"):
            jwkb.cutoff_eval(delta, [0.0, 1.0, 5.0])
    # a NaN s lies in no support: xi = xi' = xi'' = 0, and f~ = 0 there
    Q = jwkb.build_quasimode(IX3, cubic_anchor(), 0)
    s = np.array([np.nan, 0.0, -np.nan])
    with np.errstate(all="raise", under="ignore"):
        xi, xi1, xi2 = jwkb.cutoff_eval(Q.delta, s)
        f = Q.values(s)
    assert list(xi) == [0.0, 1.0, 0.0] and not (xi1.any() or xi2.any())
    assert f[0] == 0 and f[2] == 0 and f[1] == 1


def test_select_delta_certifies_concentration():
    pw = jwkb.build_piecewise(IX3, cubic_anchor(), 0)
    delta, gamma, beta = jwkb.select_delta(IX3, pw.chain, pw.anchor)
    assert delta > 0 and gamma > 0 and beta > 0
    s = np.linspace(-delta, delta, 401)
    s = s[s != 0]
    v, d1 = leading_at(pw, s)
    # gamma/beta are certified on their own grid; allow a small slack for
    # the different sample points used here
    assert np.all(v.real >= 0.95 * gamma * s**2)
    assert np.all(np.abs(2 * d1) >= 0.95 / beta)


def delta_grid(pw):
    """select_delta's grid: (its positive half x, all of it s)."""
    lo, hi = pw.chain.coverage
    span = 0.98 * min(-lo, hi)
    half = jwkb.GAMMA_GRID // 2
    x = span * np.arange(1, half + 1) / half
    return x, np.concatenate([-x[::-1], x])


def eikonal_dp(P, pw, s):
    """|2 psi_{-1}'(s)| = 2 |V_h(a+s) - z|^(1/2), from the exact potential."""
    anchor = pw.anchor
    return 2.0 * np.sqrt(np.abs(P.eval_many(anchor.h, anchor.a + s) - anchor.z))


def brute_force_delta(P, pw):
    """(delta, gamma, beta) with the seam minimum taken slice by slice,
    and Re psi_{-1} from the complex evaluation of the chain."""
    x, s = delta_grid(pw)
    half = x.size
    v, _ = leading_at(pw, s)
    q = v.real / s**2
    dp = eikonal_dp(P, pw, s)
    q_sym = np.minimum(q[half:], q[half - 1 :: -1])
    dp_sym = np.minimum(dp[half:], dp[half - 1 :: -1])
    re_sym = np.minimum(v.real[half:], v.real[half - 1 :: -1])
    kmax = 0
    while kmax < half and q_sym[kmax] > 0 and dp_sym[kmax] > 1e-12:
        kmax += 1
    best_k, best_seam = None, -1.0
    for k in range(1, kmax):
        seam = re_sym[(k + 1) // 2 : k + 1].min()
        if seam > best_seam:
            best_seam, best_k = seam, k
    inner = slice(0, best_k + 1)
    return float(x[best_k]), float(q_sym[inner].min()), float(1.0 / dp_sym[inner].min())


@pytest.mark.parametrize(
    "P, a, eta", [(IX, 0.0, 1.0), (IX3, 1.0, 1.0), (X4, 1.0, 1.0), (HALF, 0.62, 0.6)]
)
def test_select_delta_matches_brute_force(P, a, eta):
    for n in (0, 2):
        for h in (0.5, 0.05, 0.00625):
            pw = jwkb.build_piecewise(P, make_anchor(P, h, a, eta), n)
            assert jwkb.select_delta(P, pw.chain, pw.anchor) == brute_force_delta(P, pw)
            # the chain's psi_{-1}' solves the eikonal equation on the grid
            _, s = delta_grid(pw)
            series_dp = np.abs(2.0 * leading_at(pw, s)[1])
            exact_dp = eikonal_dp(P, pw, s)
            assert np.all(abs(series_dp - exact_dp) <= 1e-11 * exact_dp)


def test_quasimode_values_peak_at_anchor():
    Q = jwkb.build_quasimode(IX3, cubic_anchor(), 0)
    s = np.linspace(-Q.delta, Q.delta, 501)
    vals = np.abs(Q.values(s))
    assert vals.argmax() == len(s) // 2
    assert vals[0] == 0.0 and vals[-1] == 0.0


def test_certificate_reciprocal_identity():
    cert = jwkb.certify(IX3, cubic_anchor(), 0)
    assert cert.r > 0
    assert cert.lower_bound * cert.r == pytest.approx(1.0, rel=1e-12)
    d = cert.to_dict()
    for key in ("z_re", "z_im", "h", "n", "r", "lower_bound", "delta",
                "gamma", "panels", "tail_magnitudes", "warnings"):
        assert key in d


def test_certificate_attaches_quasimode():
    cert = jwkb.certify(IX3, cubic_anchor(), 0)
    assert cert.quasimode is not None
    assert cert.quasimode.delta == cert.delta


def test_residual_matches_quadrature_pointwise():
    Q = jwkb.build_quasimode(IX, linear_anchor(), 0)
    s = np.array([0.0, 0.3, -0.8])
    res, f, _ = jwkb.residual_pointwise(IX, Q, s)
    # at interior points xi = 1 so f = exp(-psi)
    v, _, _ = Q.phase_at(s)
    np.testing.assert_allclose(f, np.exp(-v), rtol=1e-12)


def test_legendre_rule_is_numpys_bit_for_bit():
    # the constant table must follow PANEL_NODES
    want = np.polynomial.legendre.leggauss(jwkb.PANEL_NODES)
    for got, ref in zip(jwkb._legendre_rule(), want):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_large_h_guard():
    # half-line family with a genuinely small reach so delta^2 < h
    P = PotentialFamily(((1.0, -2, 0), (1 + 1j, 2, 0)), domain="halfline")
    anchor = make_anchor(P, 0.5, 0.62, 0.6)
    Q = jwkb.build_quasimode(P, anchor, 0)
    assert Q.delta**2 < anchor.h
    with pytest.raises(UsageError):
        jwkb.residual_ratio(P, Q)
    cert = jwkb.residual_ratio(P, Q, allow_large_h=True)
    assert "h_above_delta_sq" in cert.warnings


def test_nonfinite_quadrature_fails_after_one_pass(monkeypatch):
    # exp(-psi) overflows inside [-delta, delta] for this anchor at n = 2
    P = PotentialFamily(((1.0, -2, 0), (1 + 1j, 2, 0)), domain="halfline")
    Q = jwkb.build_quasimode(P, make_anchor(P, 0.2, 0.62, 0.6), 2)
    calls = []
    quadrature = jwkb._panel_quadrature

    def counted(*args):
        calls.append(args[2:])
        return quadrature(*args)

    monkeypatch.setattr(jwkb, "_panel_quadrature", counted)
    with pytest.raises(AccuracyError, match="not finite") as err:
        jwkb.residual_ratio(P, Q, allow_large_h=True)
    assert len(calls) == 1 and err.value.estimates[0] is None  # the first pass


def quadrature_schedule(Q):
    """ceil(P0 2^k) panels for k = -3 .. MAX_DOUBLINGS, with P0 = max(64,
    ceil(8 delta / sqrt(h))) the panels of the first doubling."""
    p0 = max(64, math.ceil(8.0 * Q.delta / math.sqrt(Q.anchor.h)))
    return [-(-p0 // 8), -(-p0 // 4), -(-p0 // 2)] + [
        p0 * 2**j for j in range(jwkb.MAX_DOUBLINGS + 1)
    ]


def test_unconverged_quadrature_reports_its_last_two_passes(monkeypatch):
    Q = jwkb.build_quasimode(IX3, cubic_anchor(), 0)
    schedule = quadrature_schedule(Q)
    assert schedule[3] % 8 != 0  # so the three coarse passes round up
    calls, passes = [], []

    def drifting(P, Q, *counts):  # never settles to QUAD_RTOL
        calls.append(counts)
        passes.extend((float(panels), 1.0, 0.0) for panels in counts)
        return passes[-len(counts):]

    monkeypatch.setattr(jwkb, "_panel_quadrature", drifting)
    with pytest.raises(AccuracyError, match="did not converge") as err:
        jwkb.residual_ratio(IX3, Q)
    # the first two passes in one evaluation, then one per doubling
    assert calls == [tuple(schedule[:2])] + [(p,) for p in schedule[2:]]
    assert err.value.estimates == tuple(passes[-2:])


@pytest.mark.parametrize("j", [-3, -2, 0, 3, jwkb.MAX_DOUBLINGS - 1])
def test_a_pair_of_doublings_that_agrees_still_ends_the_quadrature(monkeypatch, j):
    # the passes agree only at (ceil(P0 2^j), ceil(P0 2^(j+1))): the coarse
    # pairs (ceil(P0/8), ceil(P0/4)) and (ceil(P0/4), ceil(P0/2)) and the
    # pairs of doublings each end the quadrature at their second pass
    Q = jwkb.build_quasimode(IX3, cubic_anchor(), 0)
    schedule = quadrature_schedule(Q)
    i = j + 3  # schedule[i] has ceil(P0 2^j) panels
    calls = []

    def settling(P, Q, *counts):
        calls.append(counts)
        return [
            (4.0, 1.0, 0.5) if panels >= schedule[i] else (float(panels), 1.0, 0.0)
            for panels in counts
        ]

    monkeypatch.setattr(jwkb, "_panel_quadrature", settling)
    cert = jwkb.residual_ratio(IX3, Q)
    assert calls == [tuple(schedule[:2])] + [(p,) for p in schedule[2 : i + 2]]
    assert cert.panels == schedule[i + 1]
    assert (cert.r, cert.diagnostics["cutoff_term_sq"]) == (2.0, 0.5)


LADDER_CASES = pytest.mark.parametrize(
    "P, a, eta", [(IX, 0.0, 1.0), (IX3, 1.0, 1.0), (X4, 1.0, 1.0)], ids=["ix", "ix3", "x4"]
)


@pytest.mark.parametrize("n", [0, 2])
@pytest.mark.parametrize("h", [0.2, 0.025, 0.00625])
@LADDER_CASES
def test_one_evaluation_of_two_passes_keeps_the_bits_of_each(P, a, eta, h, n):
    Q = jwkb.build_quasimode(P, make_anchor(P, h, a, eta), n)
    counts = quadrature_schedule(Q)[:2]
    together = jwkb._panel_quadrature(P, Q, *counts)
    alone = [jwkb._panel_quadrature(P, Q, panels)[0] for panels in counts]
    assert together == alone


@pytest.mark.parametrize("n", [0, 2])
@pytest.mark.parametrize("h", [0.2, 0.025, 0.00625])
@LADDER_CASES
def test_r_agrees_with_a_pass_at_eight_times_its_panels(P, a, eta, h, n):
    # a coarse pair of passes must not agree on a value the quadrature
    # has not reached
    cert = jwkb.certify(P, make_anchor(P, h, a, eta), n, allow_large_h=True)
    ((num, den, _),) = jwkb._panel_quadrature(P, cert.quasimode, 8 * cert.panels)
    assert cert.r == pytest.approx(math.sqrt(num / den), rel=jwkb.QUAD_RTOL, abs=0)


#: the ladder cases and the half-line anchor, (P, a, eta)
SUPPORT_CASES = pytest.mark.parametrize(
    "P, a, eta",
    [(IX, 0.0, 1.0), (IX3, 1.0, 1.0), (X4, 1.0, 1.0), (HALF, 0.62, 0.6)],
    ids=["ix", "ix3", "x4", "halfline"],
)

#: Quasimode.support drops the cells where |f~| <= exp(-SUPPORT_EXPONENT)
SUPPORT_EXPONENT = -2.0 * math.log(np.finfo(float).eps)


@pytest.mark.parametrize("n", [0, 2])
@pytest.mark.parametrize("h", [0.05, 0.025, 0.00625])
@SUPPORT_CASES
def test_f_is_below_eps_squared_off_its_support(P, a, eta, h, n):
    Q = jwkb.build_quasimode(P, make_anchor(P, h, a, eta), n)
    lo, hi = Q.support
    assert -Q.delta <= lo <= 0.0 <= hi <= Q.delta
    s = np.linspace(-Q.delta, Q.delta, 20001)
    off = s[(s < lo) | (s > hi)]
    assert (np.abs(Q.values(off)) <= math.exp(-SUPPORT_EXPONENT)).all()


def full_domain_quadrature(P, Q, panels):
    """The three integrals of _panel_quadrature with every node of every
    panel of the uniform layout through residual_pointwise."""
    nodes, weights = jwkb._legendre_rule()
    edges = np.linspace(-Q.delta, Q.delta, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    s = (mid[:, None] + half * nodes[None, :]).ravel()
    w = np.broadcast_to(half * weights, (panels, jwkb.PANEL_NODES)).ravel()
    parts = jwkb.residual_pointwise(P, Q, s)
    return tuple(float(np.sum(w * np.abs(part) ** 2)) for part in parts)


@pytest.mark.parametrize("n", [0, 2])
@pytest.mark.parametrize("h", [0.05, 0.025, 0.00625])
@SUPPORT_CASES
def test_the_support_keeps_the_bits_of_the_full_domain(P, a, eta, h, n):
    cert = jwkb.certify(P, make_anchor(P, h, a, eta), n, allow_large_h=True)
    Q = cert.quasimode
    schedule = quadrature_schedule(Q)
    i = schedule.index(cert.panels)
    counts = schedule[i - 1 : i + 1]
    for panels, got in zip(counts, jwkb._panel_quadrature(P, Q, *counts)):
        ref = full_domain_quadrature(P, Q, panels)
        assert [x.hex() for x in got[:2]] == [x.hex() for x in ref[:2]]
        # the commutator's part loses only what lies off the support
        assert abs(got[2] - ref[2]) <= np.finfo(float).eps ** 4 * ref[0]


def test_a_non_finite_segment_keeps_the_whole_cutoff_domain():
    Q = jwkb.build_quasimode(IX, linear_anchor(0.00625), 2)
    d = Q.delta
    assert Q.support != (-d, d)
    segments = Q.segments.copy()
    segments[Q.chain.locate(np.array([-d, d]))[0], 0, 1] = np.nan
    broken = dataclasses.replace(Q, segments=segments)
    assert broken.support == (-d, d)
    with pytest.raises(AccuracyError, match="not finite"):
        jwkb.residual_ratio(IX, broken)


@pytest.mark.parametrize(
    "P, a, eta, below_one", [(HALF, 0.62, 0.6, True), (IX3, 1.0, 1.0, False)]
)
def test_a_bound_below_one_is_recorded(P, a, eta, below_one):
    # in the diagnostics, not the warnings, so the default bytes stay
    cert = jwkb.certify(P, make_anchor(P, 0.05, a, eta), 2)
    assert cert.diagnostics["bound_below_one"] is below_one
    assert (cert.r > 1) is below_one
    assert cert.warnings == []


@pytest.mark.parametrize("h", [1e-30, 1e-300])
def test_a_quadrature_too_large_to_allocate_fails_before_evaluating(monkeypatch, h):
    Q = jwkb.build_quasimode(IX3, cubic_anchor(h), 0)

    def evaluated(*args):
        raise AssertionError("the schedule was evaluated")

    monkeypatch.setattr(jwkb, "_panel_quadrature", evaluated)
    monkeypatch.setattr(jwkb, "residual_pointwise", evaluated)
    with pytest.raises(AccuracyError, match="numpy can allocate"):
        jwkb.residual_ratio(IX3, Q)


def test_order_must_be_nonnegative():
    with pytest.raises(UsageError):
        jwkb.build_piecewise(IX3, cubic_anchor(), -1)


def test_real_phase_rejected():
    real = PotentialFamily(((1.0, 2, 0),))
    with pytest.raises(DegenerateAnchorError):
        make_anchor(real, 0.05, 1.0, 1.0)


def test_certify_rejects_a_hand_built_anchor_of_the_wrong_sign():
    # Im V'(1) = 3 > 0 for i x^3: eta = -1 makes f~ grow away from the anchor
    anchor = Anchor(a=1.0, eta=-1.0, h=0.05, z=1 + 1j)
    with pytest.raises(DegenerateAnchorError, match="Re psi"):
        jwkb.certify(IX3, anchor, 0)


@pytest.mark.parametrize("P, a", [(IX, 0.0), (IX3, 1.0), (X4, 1.0)])
def test_an_anchor_whose_expansion_is_not_finite_is_degenerate(P, a):
    # a tiny eta makes rho = 1/(2 psi_{-1}') overflow in the anchor's own
    # row, and no side of the march can stand in for it; under tier-1's
    # warning filter a numpy warning on the way fails the test too
    for eta in (1e-9, 1e-20, 1e-50, 1e-120, 1e-159):
        for n in (0, 1, 2):
            if (P, eta, n) == (IX, 1e-9, 0):
                continue  # a finite row, and an unconverged quadrature
            with pytest.raises(DegenerateAnchorError, match="anchor is not finite"):
                jwkb.certify(P, make_anchor(P, 0.1, a, eta), n, allow_large_h=True)


def test_sweep_h_slope_increases_with_order():
    hs = [0.2, 0.1, 0.05]
    slopes = []
    for n in (0, 1):
        certs, slope, _ = jwkb.sweep_h(IX, 0.0, 1.0, n, hs)
        assert len(certs) == 3
        rs = [c.r for c in certs]
        assert rs[0] > rs[1] > rs[2]
        slopes.append(slope)
    assert slopes[1] > slopes[0] + 0.5


@pytest.mark.parametrize(
    "P, a, eta, marches",
    [
        (IX3, 1.0, 1.0, 1),
        # the dilated half-line family: V_h carries h, so one march per h
        (PotentialFamily(((1.0, -2, 2), (1 + 1j, 2, 0)), domain="halfline"),
         0.62, 0.6, 3),
    ],
)
def test_sweep_h_marches_once_unless_v_carries_h(monkeypatch, P, a, eta, marches):
    # select_delta reads only h-free rows, so it runs once per march too
    hs = [0.05, 0.025, 0.0125]
    calls = {"_march": 0, "select_delta": 0}

    def counted(name):
        original = getattr(jwkb, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(jwkb, name, counted(name))
    certs, _, _ = jwkb.sweep_h(P, a, eta, 1, hs)
    assert calls == {"_march": marches, "select_delta": marches}
    monkeypatch.undo()
    for h, cert in zip(hs, certs):
        ref = jwkb.certify(P, make_anchor(P, h, a, eta), 1, allow_large_h=True)
        for key in ("r", "delta", "gamma", "panels"):
            assert getattr(cert, key) == getattr(ref, key)


H_LADDER = (0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625)


def count_calls(monkeypatch, *names):
    """Replace each jwkb function ``name`` by a wrapper that counts its calls."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        original = getattr(jwkb, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(jwkb, name, counted(name))
    return calls


def cert_bits(cert):
    """r, delta, gamma, beta, tail magnitudes (as float.hex) and panels."""
    floats = [cert.r, cert.delta, cert.gamma, cert.diagnostics["beta"],
              *cert.tail_magnitudes]
    return [float(x).hex() for x in floats] + [cert.panels]


@pytest.mark.parametrize("n", [0, 1, 2])
@LADDER_CASES
def test_a_warm_certificate_keeps_the_bits_of_a_cold_one(monkeypatch, P, a, eta, n):
    cold = []
    for h in H_LADDER:
        jwkb._last_build[0] = None
        cold.append(cert_bits(jwkb.certify(P, make_anchor(P, h, a, eta), n,
                                           allow_large_h=True)))
    jwkb._last_build[0] = None
    calls = count_calls(monkeypatch, "_march", "select_delta", "build_piecewise")
    warm = [cert_bits(jwkb.certify(P, make_anchor(P, h, a, eta), n, allow_large_h=True))
            for h in H_LADDER]
    assert warm == cold
    # one march for all: only a march passes through build_piecewise
    assert calls == {"_march": 1, "select_delta": 1, "build_piecewise": 1}


@pytest.mark.parametrize(
    "name, value",
    [("DEFAULT_SPAN", 5.0), ("STEP_FRACTION", 0.25), ("SPAN_SHARE", 0.97),
     ("MAX_SEGMENTS", 399), ("GAMMA_GRID", 2048)],
)
def test_changing_a_keyed_constant_marches_again(monkeypatch, name, value):
    calls = count_calls(monkeypatch, "_march", "select_delta")
    jwkb.certify(IX3, cubic_anchor(0.05), 1)
    jwkb.certify(IX3, cubic_anchor(0.025), 1)
    assert calls == {"_march": 1, "select_delta": 1}
    monkeypatch.setattr(jwkb, name, value)
    jwkb.certify(IX3, cubic_anchor(0.0125), 1)
    assert calls == {"_march": 2, "select_delta": 2}


@pytest.mark.parametrize(
    "n, K, a, eta", [(2, None, 1.0, 1.0), (1, 18, 1.0, 1.0), (1, None, 1.1, 1.0),
                     (1, None, 1.0, 0.9)],
    ids=["n", "K", "a", "eta"],
)
def test_changing_an_argument_marches_again(monkeypatch, n, K, a, eta):
    # K = 18 is the default truncation of n = 1: the key holds the resolved K
    calls = count_calls(monkeypatch, "_march")
    jwkb.certify(IX3, cubic_anchor(0.05), 1)
    jwkb.certify(IX3, make_anchor(IX3, 0.025, a, eta), n, K)
    assert calls["_march"] == (1 if (n, K, a, eta) == (1, 18, 1.0, 1.0) else 2)


def test_a_family_whose_potential_carries_h_never_reuses_a_chain(monkeypatch):
    P = PotentialFamily(((1.0, -2, 2), (1 + 1j, 2, 0)), domain="halfline")
    calls = count_calls(monkeypatch, "_march", "select_delta")
    for h in (0.05, 0.025, 0.05, 0.05):
        jwkb.certify(P, make_anchor(P, h, 0.62, 0.6), 1, allow_large_h=True)
    assert calls == {"_march": 4, "select_delta": 4}
    assert jwkb._last_build[0] is None


def test_a_reused_chain_is_read_only():
    first = jwkb.certify(IX3, cubic_anchor(0.05), 1).quasimode
    second = jwkb.certify(IX3, cubic_anchor(0.025), 1).quasimode
    chain = jwkb._last_build[0][1]
    assert first.chain is chain and second.chain is chain
    for array in (chain.centers, chain.derivs, chain.tails, chain.leading,
                  chain.coverage):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # each h folds its own phases from the shared chain
    assert second.segments is not first.segments


def test_every_chain_is_read_only():
    # a chain is finished when the march returns it, whether kept or not
    pw = jwkb.build_piecewise(IX3, cubic_anchor(0.05), 1)
    assert jwkb._last_build[0] is None
    chain = pw.chain
    assert np.array_equal(chain.joins, 0.5 * (chain.centers[:-1] + chain.centers[1:]))
    arrays = [getattr(chain, f.name) for f in dataclasses.fields(chain)]
    arrays = [array for array in arrays if isinstance(array, np.ndarray)]
    assert len(arrays) == 6
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_build_piecewise_keeps_no_state(monkeypatch):
    # only build_quasimode keeps a chain: two calls at one anchor march twice
    calls = count_calls(monkeypatch, "_march")
    first = jwkb.build_piecewise(IX3, cubic_anchor(0.05), 1)
    second = jwkb.build_piecewise(IX3, cubic_anchor(0.025), 1)
    assert calls == {"_march": 2} and first.chain is not second.chain
    assert jwkb._last_build[0] is None


def test_certify_refuses_an_anchor_off_its_energy(monkeypatch):
    # z off by 0.01: a typed usage error before any march or quadrature
    good = cubic_anchor()
    calls = count_calls(monkeypatch, "_march", "_panel_quadrature")
    for dz in (0.01, 0.01j):
        anchor = Anchor(a=good.a, eta=good.eta, h=good.h, z=good.z + dz)
        with pytest.raises(UsageError, match="z = eta"):
            jwkb.certify(IX3, anchor, 1)
    assert calls == {"_march": 0, "_panel_quadrature": 0}


def test_sweep_h_needs_three_points():
    with pytest.raises(UsageError):
        jwkb.sweep_h(IX, 0.0, 1.0, 0, [0.1, 0.05])


def test_sweep_h_needs_three_distinct_points():
    # a slope through one repeated h is a rank-deficient fit
    for hs in ([0.1, 0.1, 0.1], [0.1, 0.05, 0.1, 0.05]):
        with pytest.raises(UsageError, match="distinct"):
            jwkb.sweep_h(IX, 0.0, 1.0, 0, hs)
