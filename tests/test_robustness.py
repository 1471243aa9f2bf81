"""Typed and quick on every input: ``certify`` on random families either
certifies or raises a ``QuasimodeError``, with no warning of any origin."""

import cmath
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quasimodes
from quasimodes import jwkb
from quasimodes.errors import AccuracyError, DegenerateAnchorError, QuasimodeError, UsageError
from quasimodes.potential import PotentialFamily, make_anchor

#: exponents a family may draw from, by domain; a draw takes 1-3 of them, sorted
EXPONENTS = {"line": (1, 2, 3, 4), "halfline": (-2, 0.5, 1, 1.5, 2, 3, 4)}

#: the longest a single certify may take, in seconds
CALL_SECONDS = 2.0

coefficient = st.builds(
    lambda magnitude, phase: 10.0**magnitude * cmath.exp(1j * phase),
    st.floats(-2.0, 2.0), st.floats(0.0, 2.0 * math.pi),
)


@st.composite
def draws(draw):
    """(family, h, a, eta, n) over the ranges of ROADMAP direction 15."""
    domain = draw(st.sampled_from(sorted(EXPONENTS)))
    powers = draw(st.lists(st.sampled_from(EXPONENTS[domain]), min_size=1,
                           max_size=3, unique=True))
    P = PotentialFamily(tuple((draw(coefficient), p, 0) for p in sorted(powers)),
                        domain)
    h = 10.0 ** draw(st.floats(-2.5, -0.7))
    a = draw(st.floats(0.0, 2.0, exclude_min=True) if domain == "halfline"
             else st.floats(-2.0, 2.0))
    eta = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-1.5, 0.7))
    return P, h, a, eta, draw(st.integers(0, 3))


def certify_quietly(P, h, a, eta, n, K=None):
    """certify's certificate or QuasimodeError, and every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = jwkb.certify(P, make_anchor(P, h, a, eta), n, K, allow_large_h=True)
        except QuasimodeError as exc:
            out = exc
    return out, [str(w.message) for w in caught]


def runs_the_whole_schedule(out):
    """The open defect of the first FOUND entry in CHANGES.md: a quadrature
    that does not converge gives up only after its last pass, P0 * 2^8
    panels, which takes 1.5-2.5 s at h ~ 3e-3 (see the xfail below)."""
    return isinstance(out, AccuracyError) and str(out) == "quadrature did not converge"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(draws())
# ||f~||^2 underflows to 0 (was ZeroDivisionError); x^(1/2 - k) overflows at
# the anchor's Taylor coefficients (was a numpy warning)
@example((PotentialFamily(((-0.72 - 23.9j, 4, 0),)), 0.0218, 1.99, 0.077, 2))
@example((PotentialFamily(((cmath.exp(1j), 0.5, 0),), "halfline"), 0.1, 5e-324, -1.0, 0))
def test_certify_is_typed_quick_and_quiet(draw):
    start = time.perf_counter()
    out, caught = certify_quietly(*draw)
    elapsed = time.perf_counter() - start
    assert caught == []
    assert elapsed <= CALL_SECONDS or runs_the_whole_schedule(out), (draw, elapsed)
    if not isinstance(out, QuasimodeError):
        assert math.isfinite(out.r) and out.r > 0
        assert out.lower_bound == 1.0 / out.r


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="FOUND: residual_ratio keeps doubling panels on "
                   "round-off noise (the first FOUND entry in CHANGES.md)")
def test_a_quadrature_that_cannot_converge_gives_up_before_its_last_pass(monkeypatch):
    # V nearly real: gamma ~ 1e-5, so f~ barely concentrates within delta = 5.88
    P = PotentialFamily(((1 + 1e-4j, 1, 0),))
    quadrature, calls = jwkb._panel_quadrature, []

    def refuse_the_last_pass(*args):
        calls.append(args[2:])
        # passes k = -3 .. MAX_DOUBLINGS, the first two in one call
        assert len(calls) < jwkb.MAX_DOUBLINGS + 3, "the quadrature reached its last pass"
        return quadrature(*args)

    monkeypatch.setattr(jwkb, "_panel_quadrature", refuse_the_last_pass)
    out, caught = certify_quietly(P, 0.05, 0.0, -1.0, 0)
    assert caught == [] and isinstance(out, AccuracyError)


HALF_IX = PotentialFamily(((1j, 1, 0),), "halfline")
HUGE = PotentialFamily(((1e50j, 1, 0),))


def test_a_norm_that_underflows_to_zero_is_an_accuracy_error():
    # exp(-psi) underflows at every node: ||f~||^2 = 0 in two agreeing passes
    out, caught = certify_quietly(HUGE, 0.1, 0.0, 1.0, 0, K=1)
    assert caught == []
    assert isinstance(out, AccuracyError)
    assert str(out) == "r^2 = 0.000e+00 / 0.000e+00 is not finite and > 0"
    prev, cur = out.estimates
    assert cur[1] == 0.0 and prev is not None


@pytest.mark.parametrize("a", [1e-152, 1e-155, 1e-156, 1e-159, 1e-160, 1e-200, 5e-324])
def test_a_reach_too_short_for_a_cutoff_is_refused_quietly(a):
    # the grid's s^2 would underflow, or 4/delta^2 overflow, at every delta
    out, caught = certify_quietly(HALF_IX, 0.1, a, 1.0, 0)
    assert caught == []
    assert isinstance(out, DegenerateAnchorError)
    assert str(out) == "analytic continuation has too short a reach"


def test_a_reach_that_cannot_certify_gamma_has_no_cutoff_radius():
    # Re psi_{-1} = s^2/(4 eta) underflows to 0 on the first grid points
    out, caught = certify_quietly(HALF_IX, 0.1, 1e-150, 1e20, 0)
    assert caught == []
    assert isinstance(out, DegenerateAnchorError)
    assert str(out) == "no admissible cutoff radius"


@pytest.mark.parametrize("delta", [1e-160, 1e-200, 1.4e-154, 0.0, -1.0, math.nan,
                                   math.inf, 1e200])
def test_cutoff_refuses_a_delta_whose_scales_are_not_finite(delta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match="delta must be > 0"):
            jwkb.cutoff_eval(delta, [0.0])


@pytest.mark.parametrize("delta", [1.5e-154, 1e154])
def test_cutoff_takes_the_extreme_deltas_it_can_scale(delta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xi, xi1, xi2 = jwkb.cutoff_eval(delta, [0.0, delta])
    assert xi.tolist() == [1.0, 0.0] and (xi1 == 0).all() and (xi2 == 0).all()


def run_cli(tmp_path, potential, *argv):
    """The CLI as a subprocess, so that a numpy warning would reach stderr."""
    path = tmp_path / "pot.txt"
    path.write_text(potential)
    src = os.path.dirname(os.path.dirname(os.path.abspath(quasimodes.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "quasimodes.cli", "quasimode", "--potential",
         str(path), *argv, "--h", "0.1", "--allow-large-h"],
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": src},
    )


@pytest.mark.parametrize("potential, argv, status, line", [
    ("domain: line\n0 1e50 1 0\n", ("--a", "0", "--eta", "1", "--trunc", "1"), 4,
     "error:accuracy: r^2 = 0.000e+00 / 0.000e+00 is not finite and > 0"),
    ("domain: halfline\n0 1 1 0\n", ("--a", "1e-160", "--eta", "1"), 3,
     "error:degenerate_anchor: analytic continuation has too short a reach"),
    ("domain: halfline\n0 1 1 0\n", ("--a", "1e-150", "--eta", "1e20"), 3,
     "error:degenerate_anchor: no admissible cutoff radius"),
])
def test_each_new_refusal_is_one_cli_line(tmp_path, potential, argv, status, line):
    proc = run_cli(tmp_path, potential, *argv)
    assert proc.returncode == status and proc.stdout == ""
    assert proc.stderr.splitlines() == [line]


def test_the_cutoff_check_is_four_over_delta_squared_finite():
    # no threshold of its own: delta fits exactly where 4/delta^2 is finite
    for delta in np.geomspace(1.45e-154, 1.55e-154, 4001).tolist():
        assert jwkb._cutoff_fits(delta) == math.isfinite(4.0 / delta**2)
