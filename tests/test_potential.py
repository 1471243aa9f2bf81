"""Potential families, the text format, and anchors."""

import dataclasses
import math

import numpy as np
import pytest

from quasimodes.errors import DegenerateAnchorError, DomainError, UsageError
from quasimodes.potential import (
    Anchor,
    PotentialFamily,
    format_potential,
    load_potential,
    make_anchor,
    parse_potential,
    validate_anchor,
)
from quasimodes.series import TruncatedSeries

IX3 = PotentialFamily(((1j, 3, 0),))
IX = PotentialFamily(((1j, 1, 0),))
HALF = PotentialFamily(((1.0, -2, 0), (1 + 1j, 2, 0)), domain="halfline")
FAMILIES = [
    IX,
    IX3,
    PotentialFamily(((1 + 1j, 4, 0),)),
    PotentialFamily(((1.0, 0, 2.0), (2 - 1j, 1, 0), (1j, 3, 0.5))),
    HALF,
    PotentialFamily(((1.0, -2, 2), (1 + 1j, 2, 0)), domain="halfline"),
    PotentialFamily(
        ((0.3j, -1.5, 0), (2.0, 0.5, 1), (1 + 1j, 2, 0)), domain="halfline"
    ),
]


def test_eval_and_deriv():
    assert IX3.eval(0.1, 2.0) == pytest.approx(8j)
    assert IX3.deriv(0.1, 2.0) == pytest.approx(12j)


def test_h_dependent_term():
    P = PotentialFamily(((1.0, 0, 2.0), (1j, 3, 0)))
    assert P.eval(0.5, 1.0) == pytest.approx(0.25 + 1j)
    assert P.eval(0.0, 1.0) == pytest.approx(1j)


def test_eval_many_matches_eval():
    P = PotentialFamily(((1 + 2j, 2, 0.5), (1j, 3, 0)))
    xs = np.linspace(-2, 2, 9)
    many = P.eval_many(0.3, xs)
    each = np.array([P.eval(0.3, x) for x in xs])
    np.testing.assert_allclose(many, each, rtol=1e-15)


def test_deriv_matches_finite_differences():
    P = PotentialFamily(((2 - 1j, 1, 0), (1j, 4, 0.25)))
    x, eps, h = 1.3, 1e-6, 0.7
    fd = (P.eval(h, x + eps) - P.eval(h, x - eps)) / (2 * eps)
    assert abs(P.deriv(h, x) - fd) < 1e-8


def test_taylor_matches_eval():
    P = PotentialFamily(((0.5, 2, 1.0), (1j, 3, 0)))
    h, a = 0.2, 0.7
    ts = TruncatedSeries(P.taylor_at(h, a, 8))
    for s in (-0.3, 0.0, 0.41):
        assert abs(ts.eval(s) - P.eval(h, a + s)) < 1e-9
    with pytest.raises(UsageError, match="truncation degree"):
        P.taylor_at(h, a, 0)


def test_taylor_halfline_centrifugal():
    P = PotentialFamily(((1.0, -2, 0), (1 + 1j, 2, 0)), domain="halfline")
    a = 0.8
    ts = TruncatedSeries(P.taylor_at(0.0, a, 30))
    for s in (-0.2, 0.15):
        ref = P.eval(0.0, a + s)
        assert abs(ts.eval(s) - ref) < 1e-9 * abs(ref)


def bits(z):
    return float(z.real).hex(), float(z.imag).hex()


@pytest.mark.parametrize("P", FAMILIES)
def test_eval_and_deriv_are_the_first_taylor_coefficients(P):
    rng = np.random.default_rng(7)
    points = rng.uniform(0.05, 2.0, 20)
    if P.domain == "line":
        points = np.concatenate([[0.0], points - 1.0])
    for h in (0.0, 0.05, 0.7):
        for x in points:
            x = float(x)
            coeffs = P.taylor_at(h, x, 4)
            assert bits(P.eval(h, x)) == bits(coeffs[0])
            assert bits(P.deriv(h, x)) == bits(coeffs[1])
            # and the same bits as the power law written out term by term
            value = sum(
                c * (h**e if e else 1.0) * complex(x) ** p for c, p, e in P.terms
            )
            slope = sum(
                c * (h**e if e else 1.0) * p * complex(x) ** (p - 1)
                for c, p, e in P.terms
                if p != 0
            )
            assert bits(P.eval(h, x)) == bits(value)
            assert bits(P.deriv(h, x)) == bits(slope)


@pytest.mark.parametrize("P", FAMILIES)
def test_domain_edge_is_enforced_by_every_evaluator(P):
    if P.domain == "line":
        assert P.x_min == -np.inf
        for x in (-3.0, 0.0, 2.0):
            P.eval(0.1, x), P.deriv(0.1, x), P.taylor_at(0.1, x, 3)
        P.eval_many(0.1, np.array([-3.0, 0.0, 2.0]))
        return
    assert P.x_min == 0.0
    for x in (0.0, -0.5):
        for evaluate in (P.eval, P.deriv):
            with pytest.raises(DomainError):
                evaluate(0.1, x)
        with pytest.raises(DomainError):
            P.eval_many(0.1, np.array([1.0, x]))
        with pytest.raises(DomainError):
            P.taylor_at(0.1, x, 3)
    P.eval(0.1, 1e-3), P.deriv(0.1, 1e-3), P.taylor_at(0.1, 1e-3, 3)
    P.eval_many(0.1, np.array([1e-3, 1.0]))


def test_halfline_polynomial_taylor_rejects_the_edge():
    P = PotentialFamily(((1 + 1j, 2, 0),), domain="halfline")
    with pytest.raises(DomainError):
        P.taylor_at(0.1, 0.0, 3)


def test_taylor_rejects_fractional_power_at_origin():
    P = PotentialFamily(((1.0, -2, 0),), domain="halfline")
    with pytest.raises(DomainError):
        P.taylor_at(0.0, -1.0, 4)


def test_domain_validation():
    with pytest.raises(UsageError):
        PotentialFamily(((1.0, 1.5, 0),))  # fractional power on the line
    with pytest.raises(UsageError):
        PotentialFamily(((1.0, -3, 0),), domain="halfline")
    with pytest.raises(UsageError):
        PotentialFamily(((1.0, 1, -1.0),))  # negative h-exponent
    with pytest.raises(UsageError):
        PotentialFamily(((1.0, 2, 0), (1.0, 1, 0)))  # not increasing
    with pytest.raises(UsageError):
        PotentialFamily((), domain="line")
    with pytest.raises(UsageError, match="unknown domain"):
        PotentialFamily(((1.0, 2, 0),), domain="circle")
    P = PotentialFamily(((1.0, -2, 0),), domain="halfline")
    with pytest.raises(DomainError):
        P.eval(0.0, -1.0)
    with pytest.raises(DomainError):
        P.eval_many(0.0, np.array([0.5, -0.5]))


def test_parse_format_roundtrip():
    P = PotentialFamily(
        ((0.123456789012345 + 1j * np.pi, 2, 0.5), (1j, 3, 0)),
        domain="line",
    )
    Q = parse_potential(format_potential(P))
    assert Q.domain == P.domain
    for (c1, p1, e1), (c2, p2, e2) in zip(P.terms, Q.terms):
        assert abs(c1 - c2) <= 1e-15 * abs(c1)
        assert p1 == p2 and e1 == e2


def test_parse_errors():
    with pytest.raises(UsageError):
        parse_potential("0 1 3 0\n")  # no domain header
    with pytest.raises(UsageError):
        parse_potential("domain: line\n0 1 3\n")  # short line
    with pytest.raises(UsageError):
        parse_potential("domain: line\n0 x 3 0\n")  # non-numeric


@pytest.mark.parametrize(
    "terms",
    ["nan 1 3 0", "0 inf 3 0", "0 1 nan 0", "0 1 3 inf", "0 1 3 -inf",
     "0 1 1 0\n0 1 3 nan"],
)
def test_parse_refuses_non_finite_fields(terms):
    with pytest.raises(UsageError, match="not finite"):
        parse_potential(f"domain: line\n{terms}\n")


def test_parse_ignores_comments_and_blanks():
    P = parse_potential("# cubic\ndomain: line\n\n0 1 3 0  # i x^3\n")
    assert P.terms == ((1j, 3.0, 0.0),)


def test_load_potential(tmp_path):
    path = tmp_path / "pot.txt"
    path.write_text("domain: line\n0 1 3 0\n")
    assert load_potential(path).terms == ((1j, 3.0, 0.0),)


def test_make_anchor_cubic():
    anchor = make_anchor(IX3, 0.05, 1.0, 1.0)
    assert anchor.z == pytest.approx(1 + 1j)
    assert anchor.warnings == ()
    assert validate_anchor(IX3, anchor)


def test_anchor_eta_sign_flip():
    anchor = make_anchor(IX3, 0.05, 1.0, -1.0)
    assert anchor.eta == 1.0
    assert "eta_sign_flipped" in anchor.warnings
    assert validate_anchor(IX3, anchor)


def test_anchor_rejects_degenerate():
    real = PotentialFamily(((1.0, 2, 0),))
    with pytest.raises(DegenerateAnchorError):
        make_anchor(real, 0.05, 1.0, 1.0)
    with pytest.raises(DegenerateAnchorError):
        make_anchor(IX3, 0.05, 1.0, 0.0)
    with pytest.raises(DegenerateAnchorError):
        make_anchor(IX3, 0.05, 0.0, 1.0)  # Im V'(0) = 0 for i x^3
    with pytest.raises(DegenerateAnchorError):
        Anchor(a=1.0, eta=0.0, h=0.05, z=1j)


@pytest.mark.parametrize(
    "h, a, eta",
    [(0.0, 1.0, 1.0), (-0.1, 1.0, 1.0), (np.nan, 1.0, 1.0), (np.inf, 1.0, 1.0),
     (0.05, np.nan, 1.0), (0.05, np.inf, 1.0), (0.05, 1.0, np.nan),
     (0.05, 1.0, -np.inf),
     # finite inputs whose V_h(a), V_h'(a) or z = eta^2 + V_h(a) overflows
     (0.05, 1e200, 1.0), (0.05, 1.0, 1e200), (0.05, 1.0, -1e200)],
)
def test_make_anchor_needs_finite_values_and_positive_h(h, a, eta):
    with pytest.raises(UsageError):
        make_anchor(IX3, h, a, eta)


def test_validate_anchor_rejects_tampered_energy():
    anchor = make_anchor(IX, 0.05, 0.0, 1.0)
    bad = type(anchor)(
        a=anchor.a, eta=anchor.eta, h=anchor.h, z=anchor.z + 0.1,
        warnings=anchor.warnings,
    )
    with pytest.raises(UsageError):
        validate_anchor(IX, bad)


@pytest.mark.parametrize(
    "field, value",
    [("h", 0.0), ("h", -0.05), ("h", math.inf), ("h", math.nan),
     ("a", math.nan), ("a", -math.inf), ("eta", math.nan), ("eta", math.inf),
     ("z", complex(math.nan, 1.0)), ("z", complex(1.0, math.inf))],
)
def test_anchor_refuses_non_finite_fields_and_h_at_most_0(field, value):
    fields = {"a": 1.0, "eta": 1.0, "h": 0.05, "z": 1 + 1j, field: value}
    with pytest.raises(UsageError):
        Anchor(**fields)
    # dataclasses.replace builds a new Anchor, so it runs the same check
    with pytest.raises(UsageError):
        dataclasses.replace(make_anchor(IX3, 0.05, 1.0, 1.0), **{field: value})


def test_a_bad_h_is_reported_before_the_family_is_judged():
    # Im V'(1) = 0 for the real x^2, but h = 0 is the error to report
    with pytest.raises(UsageError):
        make_anchor(PotentialFamily(((1.0, 2, 0),)), 0.0, 1.0, 1.0)


def test_validate_anchor_rejects_wrong_sign():
    # Im V'(1) = 3 > 0 for i x^3, so eta = -1 has the wrong sign
    with pytest.raises(DegenerateAnchorError):
        validate_anchor(IX3, Anchor(a=1.0, eta=-1.0, h=0.05, z=1 + 1j))
