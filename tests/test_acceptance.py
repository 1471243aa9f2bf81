"""Acceptance suite: one test per criterion, one PASS/FAIL line each."""

import cmath
import time

import numpy as np
import pytest
from chains import anchor_expansion

from quasimodes import jwkb, oracle, scaling
from quasimodes.errors import (
    DegenerateAnchorError,
    InfeasibleEnergyError,
    SectorError,
)
from quasimodes.potential import PotentialFamily, make_anchor

IX = PotentialFamily(((1j, 1, 0),))
IX3 = PotentialFamily(((1j, 3, 0),))
QUARTIC = PotentialFamily(((1 + 1j, 4, 0),))
HALFLINE = PotentialFamily(((1.0, -2, 0), (1 + 1j, 2, 0)), domain="halfline")

H_GRID = [0.2, 0.1, 0.05, 0.025, 0.0125]
Z8 = cmath.exp(1j * cmath.pi / 8)


def report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def phi_vanishing_ratio(P, anchor, n):
    psi, phis, _ = anchor_expansion(P, anchor, n)
    scale = max(np.abs(ps.coeffs).max() for ps in psi)
    worst = max(np.abs(phis[j]).max() for j in range(n + 2))
    return worst / scale


def tail_identity_error(P, anchor, n):
    Q = jwkb.build_quasimode(P, anchor, n, 2 * n + 32)
    s = np.linspace(-0.499 * Q.delta, 0.499 * Q.delta, 81)
    res, _, _ = jwkb.residual_pointwise(P, Q, s)
    pred = Q.tail_at(s) * np.exp(-Q.phase_at(s)[0])
    return float(np.abs(res - pred).max() / np.abs(res).max())


def test_criterion_1_order_law():
    slopes, times = [], []
    for n in (0, 1, 2):
        t0 = time.time()
        _, slope, _ = jwkb.sweep_h(IX3, 1.0, 1.0, n, H_GRID)
        times.append(time.time() - t0)
        slopes.append(slope)
    ok = all(n + 1.5 <= s <= n + 2.5 for n, s in enumerate(slopes))
    report(
        1, "order law",
        ok,
        f"slopes {[f'{s:.2f}' for s in slopes]} vs [n+1.5, n+2.5], "
        f"times {[f'{t:.1f}s' for t in times]}",
    )


def test_criterion_2_phi_vanishing():
    worst = 0.0
    for P, a, eta in ((IX3, 1.0, 1.0), (IX, 0.0, 1.0), (QUARTIC, 1.0, 1.0)):
        for n in (0, 1, 2):
            anchor = make_anchor(P, 0.05, a, eta)
            worst = max(worst, phi_vanishing_ratio(P, anchor, n))
    report(2, "phi-vanishing", worst <= 1e-10, f"max ratio {worst:.2e} <= 1e-10")


def test_criterion_3_tail_identity():
    worst = 0.0
    for P, a, eta in ((IX3, 1.0, 1.0), (IX, 0.0, 1.0), (QUARTIC, 1.0, 1.0)):
        for n in (0, 1, 2):
            anchor = make_anchor(P, 0.05, a, eta)
            worst = max(worst, tail_identity_error(P, anchor, n))
    report(3, "tail identity", worst <= 1e-6, f"max rel error {worst:.2e} <= 1e-6")


def test_criterion_4_certificate_vs_oracle():
    t0 = time.time()
    anchor = make_anchor(IX3, 0.05, 1.0, 1.0)
    cert = jwkb.certify(IX3, anchor, 1, allow_large_h=True)
    errs = []
    for n_grid in (1000, 2000, 4000):
        disc = oracle.Discretization(-4.0, 6.0, n_grid)
        errs.append(abs(oracle.discrete_residual(cert, IX3, disc) - cert.r))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    second_order = errs[0] > errs[1] > errs[2] and min(orders) >= 1.5
    match = errs[-1] <= 0.05 * cert.r
    rep = oracle.validate(cert, IX3, oracle.Discretization(-4.0, 6.0, 4000))
    ok = second_order and match and rep.passed
    report(
        4, "certificate vs oracle",
        ok,
        f"lb {cert.lower_bound:.4g} <= 1.1 * oracle {rep.oracle_norm:.4g}, "
        f"residual match {errs[-1] / cert.r:.2%} (<= 5%), "
        f"convergence orders {[f'{o:.2f}' for o in orders]}, "
        f"{time.time() - t0:.0f}s",
    )


def test_criterion_5_concentration():
    vals = []
    for h in H_GRID:
        anchor = make_anchor(IX3, h, 1.0, 1.0)
        cert = jwkb.certify(IX3, anchor, 0, allow_large_h=True)
        vals.append(cert.diagnostics["norm_f_sq"] / np.sqrt(h))
    factor = max(vals) / min(vals)
    report(5, "concentration", factor < 3.0, f"||f~||^2 h^-1/2 factor {factor:.3f} < 3")


def test_criterion_6_linear_closed_forms():
    anchor = make_anchor(IX, 0.05, 0.0, 1.0)
    psi = anchor_expansion(IX, anchor, 1, 40)[0]

    def binom(alpha, k):
        out = 1.0
        for j in range(k):
            out *= (alpha - j) / (j + 1)
        return out

    k = np.arange(1, 11)
    ref0 = np.concatenate([[0.0], -0.25 * (1j) ** k / k])
    ref1 = np.array(
        [0.0] + [-5.0 / 48.0 * binom(-1.5, kk) * (-1j) ** kk for kk in range(1, 11)]
    )
    err0 = np.abs(psi[1].coeffs[:11] - ref0).max()
    err1 = np.abs(psi[2].coeffs[:11] - ref1).max()
    ok = err0 <= 1e-12 and err1 <= 1e-12
    report(
        6, "linear closed forms",
        ok,
        f"psi_0 err {err0:.2e}, psi_1 err {err1:.2e} (<= 1e-12, degree 10)",
    )


def test_criterion_7_highenergy_growth():
    HE = scaling.HighEnergyOperator(QUARTIC)
    lows = []
    for sigma in (1e2, 1e3, 1e4):
        cert = scaling.highenergy_lower_bound(HE, Z8, sigma, 2)
        lows.append(cert.lower_bound)
    increasing = lows[0] < lows[1] < lows[2]
    ratios = (lows[1] / lows[0], lows[2] / lows[1])
    # cross-check the sigma = 100 bound against the discrete oracle for
    # the original (h = 1) operator at the high-energy point sigma * z
    disc = oracle.Discretization(-8.0, 8.0, 6000)
    T = oracle.assemble(QUARTIC, 1.0, disc)
    smin = oracle.smallest_singular_value(T, 100.0 * Z8)
    oracle_ok = lows[0] <= 1.1 / smin
    ok = increasing and min(ratios) >= 10.0 and oracle_ok
    report(
        7, "high-energy growth",
        ok,
        f"lower bounds {[f'{v:.3g}' for v in lows]}, decade ratios "
        f"{[f'{q:.1f}' for q in ratios]} (>= 10), sigma=1e2 bound "
        f"{lows[0]:.3g} <= 1.1 * oracle {1.0 / smin:.3g}",
    )


def test_criterion_8_halfline_family():
    HE = scaling.HighEnergyOperator(HALFLINE)
    cert = scaling.highenergy_lower_bound(HE, Z8, 1e3, 1)
    smap = scaling.to_semiclassical(HE, 1e3)
    anchor = scaling.solve_anchor(smap.family, smap.h, Z8)
    phi_ratio = phi_vanishing_ratio(smap.family, anchor, 1)
    tail_err = tail_identity_error(smap.family, anchor, 1)
    ok = cert.lower_bound > 0 and phi_ratio <= 1e-10 and tail_err <= 1e-6
    report(
        8, "half-line family",
        ok,
        f"lower bound {cert.lower_bound:.4g} > 0, phi ratio {phi_ratio:.2e}, "
        f"tail error {tail_err:.2e}",
    )


def test_criterion_9_negative_controls():
    real = PotentialFamily(((1.0, 2, 0),))
    with pytest.raises(DegenerateAnchorError):
        make_anchor(real, 0.05, 1.0, 1.0)
    HE = scaling.HighEnergyOperator(QUARTIC)
    with pytest.raises(SectorError):
        scaling.highenergy_lower_bound(HE, cmath.exp(-0.1j), 1e2, 0)
    with pytest.raises(InfeasibleEnergyError):
        scaling.solve_anchor(IX3, 0.05, complex(-50.0, 1.0))
    report(
        9, "negative controls", True,
        "degenerate anchor, sector, infeasible energy all rejected",
    )
