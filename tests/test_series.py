"""Truncated power series arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasimodes.errors import UsageError
from quasimodes.series import TruncatedSeries, horner


def geometric(K):
    # 1/(1 - s) truncated at degree K
    return TruncatedSeries(np.ones(K + 1))


def test_constructor_pads_to_degree():
    a = TruncatedSeries([1.0, 2.0], K=4)
    assert a.K == 4
    np.testing.assert_allclose(a.coeffs, [1, 2, 0, 0, 0])


def test_constructor_rejects_bad_input():
    with pytest.raises(UsageError):
        TruncatedSeries([])
    with pytest.raises(UsageError):
        TruncatedSeries([[1.0, 2.0]])
    with pytest.raises(UsageError):
        TruncatedSeries([1, 2, 3], K=1)


def test_coefficients_are_immutable():
    a = TruncatedSeries([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        a.coeffs[0] = 5.0


def test_add_sub_mul_scalar():
    a = TruncatedSeries([1, 2, 3])
    b = TruncatedSeries([0, 1, 0])
    np.testing.assert_allclose((a + b).coeffs, [1, 3, 3])
    np.testing.assert_allclose((a - b).coeffs, [1, 1, 3])
    np.testing.assert_allclose((2.0 * a).coeffs, [2, 4, 6])


def test_mul_truncates():
    a = TruncatedSeries([1, 1, 1])
    prod = a * a
    np.testing.assert_allclose(prod.coeffs, [1, 2, 3])


def test_incompatible_degrees_rejected():
    with pytest.raises(UsageError):
        TruncatedSeries([1, 2]) + TruncatedSeries([1, 2, 3])


def test_recip_of_geometric():
    # (1 + s + s^2 + ...) * (1 - s) = 1
    r = geometric(8).recip()
    expect = np.zeros(9)
    expect[0], expect[1] = 1.0, -1.0
    np.testing.assert_allclose(r.coeffs, expect, atol=1e-14)


def test_recip_raises_at_zero_constant():
    with pytest.raises(UsageError, match="vanishing at 0"):
        TruncatedSeries([0.0, 1.0]).recip()


def test_sqrt_matches_binomial_series():
    # sqrt(1 + s): coefficients C(1/2, k)
    a = TruncatedSeries([1.0, 1.0], K=10)
    got = a.sqrt(1.0).coeffs
    ref = np.zeros(11, dtype=complex)
    c = 1.0
    for k in range(11):
        ref[k] = c
        c *= (0.5 - k) / (k + 1)
    np.testing.assert_allclose(got, ref, atol=1e-14)


def test_sqrt_branch_sign():
    a = TruncatedSeries([4.0, 1.0], K=5)
    plus = a.sqrt(2.0)
    minus = a.sqrt(-2.0)
    np.testing.assert_allclose(plus.coeffs, -minus.coeffs)


def test_sqrt_rejects_bad_branch_and_branch_point():
    a = TruncatedSeries([4.0, 1.0], K=3)
    with pytest.raises(UsageError):
        a.sqrt(1.0)
    with pytest.raises(UsageError, match="vanishing at 0"):
        TruncatedSeries([0.0, 1.0]).sqrt(0.0)


def test_deriv_antideriv_roundtrip():
    a = TruncatedSeries([3.0, 1.0, 4.0, 1.0, 5.0])
    back = a.deriv().antideriv(3.0)
    np.testing.assert_allclose(back.coeffs, a.coeffs, atol=1e-15)


def same_bits(got, ref):
    return np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def polyval_d2(c, s):
    # np.polyval of the coefficients and of their first two derivatives
    k = np.arange(c.size)
    d1 = c[1:] * k[1:]
    d2 = d1[1:] * k[1:-1]
    return [np.polyval(p[::-1], s) for p in (c, d1, d2)]


def test_eval_matches_horner():
    a = TruncatedSeries([1.0, -2.0, 0.5, 1j])
    s = 0.3
    expect = 1.0 - 2.0 * s + 0.5 * s**2 + 1j * s**3
    assert abs(a.eval(s) - expect) < 1e-15
    assert same_bits(a.eval(s), np.polyval(a.coeffs[::-1], s))


def test_eval_vectorized():
    a = TruncatedSeries([2.0, 1.0])
    s = np.array([0.0, 1.0, -1.0])
    np.testing.assert_allclose(a.eval(s), [2.0, 3.0, 1.0])
    rng = np.random.default_rng(3)
    b = TruncatedSeries(rng.standard_normal(12) + 1j * rng.standard_normal(12))
    s = rng.uniform(-1.5, 1.5, (4, 7))
    got = b.eval(s)
    assert got.shape == s.shape
    assert same_bits(got, np.polyval(b.coeffs[::-1], s))


def test_eval_d2_against_finite_differences():
    rng = np.random.default_rng(7)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    a = TruncatedSeries(c)
    s, eps = 0.37, 1e-5
    v, d1, d2 = a.eval_d2(s)
    assert abs(v - a.eval(s)) < 1e-14
    fd1 = (a.eval(s + eps) - a.eval(s - eps)) / (2 * eps)
    fd2 = (a.eval(s + eps) - 2 * a.eval(s) + a.eval(s - eps)) / eps**2
    assert abs(d1 - fd1) < 1e-8 * max(1.0, abs(d1))
    assert abs(d2 - fd2) < 1e-4 * max(1.0, abs(d2))
    for x in (s, rng.uniform(-1.2, 1.2, 50)):
        for got, ref in zip(a.eval_d2(x), polyval_d2(a.coeffs, x)):
            assert np.shape(got) == np.shape(x)
            assert same_bits(got, ref)


def horner_per_point(table, row, t):
    # one point at a time in Python arithmetic, complex for a complex table
    # and float for a real one, top degree first
    kind = complex if np.iscomplexobj(table) else float
    y = kind(table[row, -1])
    for c in table[row, -2::-1]:
        y = y * kind(t) + kind(c)
    return y


@pytest.mark.parametrize("rows_kind", ["scalar", "array"])
@pytest.mark.parametrize("t_kind", ["scalar", "array", "empty"])
def test_horner_matches_a_per_point_loop(rows_kind, t_kind):
    rng = np.random.default_rng(11)
    full = rng.standard_normal((5, 13)) + 1j * rng.standard_normal((5, 13))
    t = {"scalar": 0.7, "array": rng.uniform(-1.5, 1.5, 40),
         "empty": np.zeros(0)}[t_kind]
    count = np.size(t) if np.ndim(t) else 40
    rows = 3 if rows_kind == "scalar" else rng.integers(0, 5, count)
    shape = np.broadcast_shapes(np.shape(rows), np.shape(t))
    r, x = np.broadcast_arrays(rows, t)
    # a real table is a strided view, as the real parts of a complex one are
    for table in (full, full.real):
        got = horner(table, rows, t)
        assert np.shape(got) == shape and np.asarray(got).dtype == table.dtype
        ref = np.array([horner_per_point(table, i, v)
                        for i, v in zip(r.ravel(), x.ravel())], dtype=table.dtype)
        assert same_bits(got, ref.reshape(shape))
        if shape == ():
            assert isinstance(got, table.dtype.type)  # a numpy scalar
    # the real sum has the bits of the complex sum's real part
    assert same_bits(got, np.real(horner(full, rows, t)))


coeff = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(coeff, min_size=1, max_size=9), st.lists(coeff, min_size=1, max_size=9))
def test_mul_commutes(ca, cb):
    K = max(len(ca), len(cb)) - 1
    a = TruncatedSeries(ca, K=K)
    b = TruncatedSeries(cb, K=K)
    lhs, rhs = (a * b).coeffs, (b * a).coeffs
    scale = max(1.0, np.abs(lhs).max())
    np.testing.assert_allclose(lhs, rhs, atol=1e-13 * scale)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(coeff, min_size=1, max_size=7),
    st.lists(coeff, min_size=1, max_size=7),
    st.lists(coeff, min_size=1, max_size=7),
)
def test_mul_associates(ca, cb, cc):
    K = max(len(ca), len(cb), len(cc)) - 1
    a = TruncatedSeries(ca, K=K)
    b = TruncatedSeries(cb, K=K)
    c = TruncatedSeries(cc, K=K)
    lhs, rhs = ((a * b) * c).coeffs, (a * (b * c)).coeffs
    scale = max(1.0, np.abs(lhs).max())
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * scale)


unit_coeff = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(unit_coeff, min_size=1, max_size=9))
def test_recip_inverts(cs):
    cs[0] = 1.0 + cs[0] * 0.25  # keep the constant term away from 0
    a = TruncatedSeries(cs)
    b = a.recip()
    prod = (a * b).coeffs
    expect = np.zeros_like(prod)
    expect[0] = 1.0
    # round-off of coefficient k is bounded by sum_j |a_j| |b_{k-j}|
    mag = np.convolve(np.abs(a.coeffs), np.abs(b.coeffs))[: prod.size]
    err = np.abs(prod - expect)
    assert np.all(err <= 1e-12 * mag), (err, mag)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(unit_coeff, min_size=1, max_size=9))
def test_sqrt_squares_back(cs):
    cs[0] = 1.0 + cs[0] * 0.25
    a = TruncatedSeries(cs)
    root = a.sqrt(np.sqrt(complex(cs[0])))
    np.testing.assert_allclose((root * root).coeffs, a.coeffs, atol=1e-12)
