"""Truncated complex power series in one variable.

A :class:`TruncatedSeries` holds coefficients ``c_0 ... c_K`` of a degree-K
polynomial approximation

    a(s) = c_0 + c_1*s + ... + c_K*s**K + O(s**(K+1))

in a local coordinate ``s``.  All arithmetic truncates back to degree K,
so the degree never grows silently; two operands must share the same K.
Values are immutable and all operations are pure, which makes them safe
to share between workers.

The reciprocal and square root use the standard coefficient recursions
and fail loudly when the constant term vanishes: for the phase
computations this signals a turning point (reciprocal) or a branch point
(square root), both of which must stay outside the working disc.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BranchPointError, SingularityError, UsageError

#: relative tolerance for usage validation (e.g. branch consistency)
VALIDATION_RTOL = 1e-10


class TruncatedSeries:
    """Degree-K truncated power series with complex coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, K=None):
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise UsageError("coefficients must be a nonempty 1-d sequence")
        if K is not None:
            if K < 0:
                raise UsageError("truncation degree must be >= 0")
            if c.size > K + 1:
                raise UsageError(
                    f"got {c.size} coefficients for truncation degree {K}"
                )
            c = np.concatenate([c, np.zeros(K + 1 - c.size, dtype=complex)])
        self.coeffs = c
        self.coeffs.setflags(write=False)

    @property
    def K(self):
        """Truncation degree; ``len(coeffs) == K + 1`` always."""
        return self.coeffs.size - 1

    def __repr__(self):
        return f"TruncatedSeries({self.coeffs.tolist()!r})"

    def _check_compatible(self, other):
        if not isinstance(other, TruncatedSeries):
            raise UsageError("operand must be a TruncatedSeries")
        if other.K != self.K:
            raise UsageError(
                f"truncation degrees differ: {self.K} vs {other.K}"
            )

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        return TruncatedSeries(self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_compatible(other)
        return TruncatedSeries(self.coeffs - other.coeffs)

    def __neg__(self):
        return TruncatedSeries(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return TruncatedSeries(self.coeffs * other)
        self._check_compatible(other)
        full = np.convolve(self.coeffs, other.coeffs)
        return TruncatedSeries(full[: self.K + 1])

    __rmul__ = __mul__

    def shifted_constant(self, delta):
        """Return a copy with ``delta`` added to the constant term."""
        c = self.coeffs.copy()
        c[0] += delta
        return TruncatedSeries(c)

    def recip(self):
        """Multiplicative inverse: b with a*b = 1 + O(s**(K+1)).

        Raises :class:`SingularityError` when the constant term vanishes,
        i.e. when the series has a zero at s = 0 (a turning point for the
        phase derivative).
        """
        a = self.coeffs
        if a[0] == 0:
            raise SingularityError("reciprocal of a series vanishing at 0")
        b = np.zeros_like(a)
        b[0] = 1.0 / a[0]
        for k in range(1, a.size):
            b[k] = -b[0] * np.dot(a[1 : k + 1], b[k - 1 :: -1])
        return TruncatedSeries(b)

    def sqrt(self, branch):
        """Square root with prescribed value ``branch`` at s = 0.

        ``branch**2`` must equal the constant term to relative 1e-10.
        Raises :class:`BranchPointError` when the constant term vanishes.
        """
        a = self.coeffs
        if a[0] == 0:
            raise BranchPointError("square root of a series vanishing at 0")
        branch = complex(branch)
        if abs(branch * branch - a[0]) > VALIDATION_RTOL * abs(a[0]):
            raise UsageError(
                f"branch value {branch!r} is not a square root of {a[0]!r}"
            )
        b = np.zeros_like(a)
        b[0] = branch
        for k in range(1, a.size):
            conv = np.dot(b[1:k], b[k - 1 : 0 : -1]) if k >= 2 else 0.0
            b[k] = (a[k] - conv) / (2.0 * b[0])
        return TruncatedSeries(b)

    # -- calculus ---------------------------------------------------------

    def deriv(self):
        """Term-wise derivative, same K; the top coefficient becomes 0."""
        c = self.coeffs
        d = np.zeros_like(c)
        d[:-1] = c[1:] * np.arange(1, c.size)
        return TruncatedSeries(d)

    def antideriv(self, c0=0.0):
        """Antiderivative with constant term ``c0``, same K.

        The top coefficient of ``self`` is dropped; consequently
        ``a.deriv().antideriv(a.coeffs[0])`` reproduces ``a`` except for
        the (already zeroed) top-degree term.
        """
        c = self.coeffs
        out = np.zeros_like(c)
        out[0] = c0
        out[1:] = c[:-1] / np.arange(1, c.size)
        return TruncatedSeries(out)

    # -- evaluation -------------------------------------------------------

    def eval(self, s):
        """Evaluate the truncated polynomial at ``s`` (scalar or array)."""
        return horner(self.coeffs[None, :], 0, s)

    def eval_d2(self, s):
        """Return (value, first derivative, second derivative) at ``s``."""
        table = derivative_rows(self.coeffs)
        return tuple(horner(table, j, s) for j in range(3))


def estimate_radius(rows):
    """Root-test estimate of the convergence radius, smallest over ``rows``.

    Each row of coefficients gives 1 / max |c_k|**(1/k) over the top half
    of its coefficient range; a row with fewer than 4 nonzero coefficients
    (or an empty top half) is treated as polynomial-like and gives +inf.
    This is a heuristic, typically good to a few tens of percent for
    modest K.
    """
    c = np.asarray(rows)
    lo = max(1, (c.shape[1] - 1) // 2)
    powers = np.abs(c[:, lo:]) ** (1.0 / np.arange(lo, c.shape[1]))
    # fmax skips NaN, which the test |c_k| > 0 also leaves out
    rates = np.fmax.reduce(powers, axis=1, initial=0.0)
    rate = rates[np.count_nonzero(c, axis=1) >= 4].max(initial=0.0)
    return 1.0 / rate if rate > 0 else math.inf


def derivative_rows(coeffs):
    """Coefficients of a, a' and a'' (same width) for each row a of ``coeffs``."""
    k = np.arange(coeffs.shape[-1])
    out = np.zeros((3,) + coeffs.shape, dtype=complex)
    out[0] = coeffs
    out[1, ..., :-1] = coeffs[..., 1:] * k[1:]
    out[2, ..., :-2] = out[1, ..., 1:-1] * k[1:-1]
    return out


def horner(table, rows, t):
    """Evaluate, at each t, the polynomial ``table[rows]`` (lowest degree first).

    ``rows`` is one row index, or one per point.  Sums from the top
    degree down, gathering one column per degree and updating the sum in
    place."""
    t = np.asanyarray(t)
    y = np.zeros(np.broadcast(t, table[rows, 0]).shape, dtype=complex)
    for k in range(table.shape[-1] - 1, -1, -1):
        y *= t
        y += table[rows, k]
    return y[()]
