"""Power-law potential families V_h(x) = sum_m c_m h^{e_m} x^{p_m}.

A family is a finite list of terms (c_m, p_m, e_m) with strictly
increasing real exponents p_m and nonnegative h-exponents e_m, so that
V_h converges to the limit family V_0 as h -> 0.  On the full line every
p_m must be a nonnegative integer; on the half-line exponents down to
-2 (a centrifugal term) are allowed.  Every evaluation checks that its
points lie above the domain edge ``PotentialFamily.x_min``.

The module also defines the :class:`Anchor`: the data (a, eta, h, z)
with z = eta^2 + V_h(a), Im V_h'(a) != 0 and sign(eta) = sign(Im V_h'(a)).
An ``Anchor`` checks its own fields when built, :func:`anchor_values` the
family's conditions at a; :func:`make_anchor` calls both, and flips a
user-supplied eta of the wrong sign with a recorded warning.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateAnchorError, DomainError, UsageError

FULL_LINE = "line"
HALF_LINE = "halfline"

#: threshold below which Im V'(a) counts as vanishing
IM_DERIV_TOL = 1e-12

#: relative tolerance for the anchor identity z = eta^2 + V_h(a)
ANCHOR_RTOL = 1e-12

#: largest q for which branch points take the exponents in (1/q)Z exactly
MAX_DENOMINATOR = 12


def _is_nonneg_int(p):
    return p >= 0 and float(p).is_integer()


@dataclass(frozen=True)
class PotentialFamily:
    """V_h(x) = sum of c * h**e * x**p over ``terms``."""

    terms: tuple  # of (c: complex, p: float, e: float)
    domain: str = FULL_LINE

    def __post_init__(self):
        if self.domain not in (FULL_LINE, HALF_LINE):
            raise UsageError(f"unknown domain {self.domain!r}")
        terms = tuple((complex(c), float(p), float(e)) for c, p, e in self.terms)
        if not terms:
            raise UsageError("potential needs at least one term")
        ps = [p for _, p, _ in terms]
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise UsageError("exponents p_m must be strictly increasing")
        for c, p, e in terms:
            if not all(map(cmath.isfinite, (c, p, e))):
                raise UsageError(f"term ({c}, {p}, {e}) is not finite")
            if e < 0:
                raise UsageError(f"h-exponent {e} < 0")
            if self.domain == FULL_LINE and not _is_nonneg_int(p):
                raise UsageError(
                    f"exponent {p} not a nonnegative integer on the full line"
                )
            if self.domain == HALF_LINE and p < -2:
                raise UsageError(f"exponent {p} < -2 on the half-line")
        object.__setattr__(self, "terms", terms)

    # -- evaluation -------------------------------------------------------

    @property
    def x_min(self):
        """The domain edge: points must lie strictly above it."""
        return 0.0 if self.domain == HALF_LINE else -math.inf

    def _taylor(self, h, x, K):
        """Coefficients 0 .. K of V_h(x + s) in s, one row per point of x, by
        the generalized binomial theorem (which stops at degree p for integer
        p >= 0).  Powers have Python's bits: numpy's complex power has them
        for integer p, and ``np.float_power`` for fractional p (x > 0), as
        its float64 loop calls the C library's pow; ``**`` on floats takes
        a SIMD pow that can differ by 1 ulp."""
        x = np.asarray(x, dtype=float)
        if (x <= self.x_min).any():
            raise DomainError(f"x = {x.min()} outside the half-line domain")
        out = np.zeros(x.shape + (K + 1,), dtype=complex)
        k = np.arange(K + 1)
        for c, p, e in self.terms:
            degree = min(K, int(p)) if _is_nonneg_int(p) else K
            q = p - k[: degree + 1]
            binom = np.cumprod(np.append(1.0, q[:-1] / k[1 : degree + 1]))
            powers = (x.astype(complex)[..., None] ** q if p.is_integer()
                      else np.float_power(x[..., None], q))
            out[..., : degree + 1] += c * (h**e if e else 1.0) * binom * powers
        return out

    def eval(self, h, x):
        """V_h(x); h = 0 gives the limit family V_0."""
        return complex(self._taylor(h, x, 0)[0])

    def eval_many(self, h, xs):
        """Vectorized V_h over an array of points."""
        return self._taylor(h, xs, 0)[..., 0]

    def deriv(self, h, x):
        """V_h'(x)."""
        return complex(self._taylor(h, x, 1)[1])

    def taylor_at(self, h, a, K):
        """Coefficients 0 .. K of V_h(a + s) in s, one row per point of a."""
        if K < 1:
            raise UsageError("truncation degree must be >= 1")
        return self._taylor(h, a, K)

    def branch_points(self, h, z):
        """Where sqrt(V_h - z) branches: its zeros on the principal sheet and,
        for a fractional or negative power, 0.  With exponents in (1/q)Z
        (rounded to it if no q <= ``MAX_DENOMINATOR`` fits), x = y**q makes
        y**(-lo) (V_h - z) a polynomial; its roots with |arg y| <= pi/q give
        the zeros."""
        ps = [p for _, p, _ in self.terms]
        fits = (q for q in range(1, MAX_DENOMINATOR)
                if all(abs(q * p - round(q * p)) < 1e-9 for p in ps))
        q = next(fits, MAX_DENOMINATOR)
        powers = [round(q * p) for p in ps] + [0]
        lo = min(powers)
        poly = np.zeros(max(powers) - lo + 1, dtype=complex)
        weights = [c * (h**e if e else 1.0) for c, _, e in self.terms] + [-z]
        np.add.at(poly, np.subtract(powers, lo), weights)
        y = np.roots(poly[::-1])
        x = y[np.abs(np.angle(y)) <= math.pi / q] ** q
        return np.append(x, 0.0) if lo < 0 or q > 1 else x

    @property
    def depends_on_h(self):
        """True when some term of V_h carries a power of h."""
        return any(e != 0 for _, _, e in self.terms)

    @property
    def top(self):
        """The (c, p, e) term with the largest exponent."""
        return self.terms[-1]


# -- text configuration format -------------------------------------------


def parse_potential(text):
    """Parse the text configuration format.

    One header line ``domain: line`` or ``domain: halfline`` followed by
    one term per line: ``c_re c_im p e``.  Blank lines and ``#`` comments
    are ignored.
    """
    domain = None
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("domain:"):
            domain = line.split(":", 1)[1].strip()
            continue
        parts = line.split()
        if len(parts) != 4:
            raise UsageError(f"line {lineno}: expected 'c_re c_im p e'")
        try:
            cre, cim, p, e = (float(v) for v in parts)
        except ValueError:
            raise UsageError(f"line {lineno}: non-numeric field") from None
        terms.append((complex(cre, cim), p, e))
    if domain is None:
        raise UsageError("missing 'domain:' header")
    return PotentialFamily(tuple(terms), domain)


def format_potential(P):
    """Inverse of :func:`parse_potential`; round-trips values to 1e-15."""
    lines = [f"domain: {P.domain}"]
    for c, p, e in P.terms:
        lines.append(f"{c.real:.17g} {c.imag:.17g} {p:.17g} {e:.17g}")
    return "\n".join(lines) + "\n"


def load_potential(path):
    with open(path, encoding="utf-8") as fh:
        return parse_potential(fh.read())


# -- anchors --------------------------------------------------------------


def check_h(h):
    """Raise :class:`UsageError` unless 0 < h < inf."""
    if not 0 < h < math.inf:
        raise UsageError(f"need finite h > 0, got {h}")


@dataclass(frozen=True)
class Anchor:
    """Expansion point data (a, eta, h, z) with z = eta^2 + V_h(a); building
    one refuses a non-finite field, h <= 0 and eta = 0."""

    a: float
    eta: float
    h: float
    z: complex
    warnings: tuple = field(default_factory=tuple)

    def __post_init__(self):
        check_h(self.h)
        if not all(map(cmath.isfinite, (self.a, self.eta, self.z))):
            raise UsageError(f"need finite a, eta, z, got {self.a}, {self.eta}, {self.z}")
        if self.eta == 0:
            raise DegenerateAnchorError("eta = 0 is not admissible")


def anchor_values(P, h, a):
    """(V_h'(a), V_h(a)) for 0 < h < inf and a in the domain, both finite
    (numpy's warnings silenced, so that the error is the one report) and
    Im V_h'(a) != 0."""
    check_h(h)
    with np.errstate(all="ignore"):
        dv, v = P.deriv(h, a), P.eval(h, a)
    if not (cmath.isfinite(dv) and cmath.isfinite(v)):
        raise UsageError(f"V_h(a) or V_h'(a) is not finite at a = {a}")
    if abs(dv.imag) <= IM_DERIV_TOL * (1.0 + abs(dv)):
        raise DegenerateAnchorError(
            f"Im V_h'(a) = {dv.imag:.3e} vanishes at a = {a}"
        )
    return dv, v


def make_anchor(P, h, a, eta):
    """Build a validated :class:`Anchor` for the family ``P``: the checks
    of :func:`anchor_values` at a, then of the ``Anchor`` itself.  When
    sign(eta) differs from sign(Im V_h'(a)) the sign is flipped and
    ``"eta_sign_flipped"`` recorded in the warnings.
    """
    dv, v = anchor_values(P, h, a)
    warnings = ()
    if (eta > 0) != (dv.imag > 0):
        eta = -eta
        warnings = ("eta_sign_flipped",)
    return Anchor(a=float(a), eta=float(eta), h=float(h), z=eta * eta + v,
                  warnings=warnings)


def check_energy(anchor, z):
    """Raise :class:`UsageError` unless the anchor's z is the energy
    z = eta^2 + V_h(a) to ``ANCHOR_RTOL``."""
    if abs(anchor.z - z) > ANCHOR_RTOL * max(1.0, abs(z)):
        raise UsageError("anchor energy does not satisfy z = eta^2 + V_h(a)")


def validate_anchor(P, anchor):
    """Rebuild ``anchor`` with :func:`make_anchor` and compare; raises
    :class:`DegenerateAnchorError` when sign(eta) != sign(Im V_h'(a)) and
    :class:`UsageError` when z is not eta^2 + V_h(a) (:func:`check_energy`)."""
    ref = make_anchor(P, anchor.h, anchor.a, anchor.eta)
    if ref.warnings:
        raise DegenerateAnchorError("sign(eta) != sign(Im V_h'(a))")
    check_energy(anchor, ref.z)
    return True
