"""Truncated complex power series in one variable.

A :class:`TruncatedSeries` holds coefficients ``c_0 ... c_K`` of a degree-K
polynomial approximation

    a(s) = c_0 + c_1*s + ... + c_K*s**K + O(s**(K+1))

in a local coordinate ``s``.  All arithmetic truncates back to degree K,
so the degree never grows silently; two operands must share the same K.
Values are immutable and all operations are pure.

The reciprocal and square root use the standard coefficient recursions,
the reference for the batched ones of :mod:`jwkb`, and raise
:class:`UsageError` when the constant term vanishes (a zero of the series
at s = 0).  The package never builds a :class:`TruncatedSeries` itself:
the class is the tests' reference, and it stays here because the
benchmark's tracer patches it in this module.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError

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

    def recip(self):
        """Multiplicative inverse: b with a*b = 1 + O(s**(K+1)).

        Raises :class:`UsageError` when the constant term vanishes,
        i.e. when the series has a zero at s = 0 (a turning point for the
        phase derivative).
        """
        a = self.coeffs
        if a[0] == 0:
            raise UsageError("reciprocal of a series vanishing at 0")
        b = np.zeros_like(a)
        b[0] = 1.0 / a[0]
        for k in range(1, a.size):
            b[k] = -b[0] * np.dot(a[1 : k + 1], b[k - 1 :: -1])
        return TruncatedSeries(b)

    def sqrt(self, branch):
        """Square root with prescribed value ``branch`` at s = 0.

        ``branch**2`` must equal the constant term to relative 1e-10.
        Raises :class:`UsageError` when the constant term vanishes.
        """
        a = self.coeffs
        if a[0] == 0:
            raise UsageError("square root of a series vanishing at 0")
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


def derivative_rows(coeffs):
    """Coefficients of a, a' and a'' (same width) for each row a of ``coeffs``."""
    k = np.arange(coeffs.shape[-1])
    out = np.zeros((3,) + coeffs.shape, dtype=complex)
    out[0] = coeffs
    out[1, ..., :-1] = coeffs[..., 1:] * k[1:]
    out[2, ..., :-2] = out[1, ..., 1:-1] * k[1:-1]
    return out


def horner(table, rows, t):
    """Evaluate, at each t, the polynomial ``table[rows]`` (constant term first).

    ``rows`` is one row index or one per point, and ``t`` one point or an
    array; the result has their broadcast shape (a numpy scalar when both
    are scalars).  Sums from the top degree down, as ``np.polyval`` does,
    in ``np.result_type(table, t)``: a complex table casts t to complex
    once, and a real table at real t stays real, with the bits of the
    real part of the complex sum (at real t the imaginary parts meet only
    t's zero imaginary part).  Each degree gathers its coefficients with
    a 1-d ``take`` from one contiguous column of the transposed table and
    updates the sum in place."""
    cols = np.ascontiguousarray(table.T)  # (degree, row)
    rows = np.asarray(rows)
    tc = np.asarray(t, dtype=np.result_type(cols, t))
    y = np.zeros(np.broadcast_shapes(rows.shape, tc.shape), dtype=tc.dtype)
    y += cols[-1].take(rows)
    for col in cols[-2::-1]:
        y *= tc
        y += col.take(rows)
    return y[()]
