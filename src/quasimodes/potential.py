"""Power-law potential families V_h(x) = sum_m c_m h^{e_m} x^{p_m}.

A family is a finite list of terms (c_m, p_m, e_m) with strictly
increasing real exponents p_m and nonnegative h-exponents e_m, so that
V_h converges to the limit family V_0 as h -> 0.  On the full line every
p_m must be a nonnegative integer; on the half-line exponents down to
-2 (a centrifugal term) are allowed and everything is evaluated and
expanded at points a > 0 only.

The module also defines the :class:`Anchor`: the data (a, eta, h, z)
with z = eta^2 + V_h(a), Im V_h'(a) != 0 and sign(eta) = sign(Im V_h'(a)).
Anchors are validated on construction; a user-supplied eta of the wrong
sign is flipped with a recorded warning rather than rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateAnchorError,
    DomainError,
    ExpansionError,
    UsageError,
)
from .series import TruncatedSeries

FULL_LINE = "line"
HALF_LINE = "halfline"

#: threshold below which Im V'(a) counts as vanishing
IM_DERIV_TOL = 1e-12

#: relative tolerance for the anchor identity z = eta^2 + V_h(a)
ANCHOR_RTOL = 1e-12


def im_deriv_vanishes(dv):
    """True when Im V'(a) = ``dv.imag`` counts as zero: the anchor is degenerate."""
    return abs(dv.imag) <= IM_DERIV_TOL * (1.0 + abs(dv))


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

    def _check_point(self, x):
        if self.domain == HALF_LINE and x <= 0:
            raise DomainError(f"x = {x} outside the half-line domain")

    def eval(self, h, x):
        """V_h(x); h = 0 gives the limit family V_0."""
        self._check_point(x)
        return sum(
            c * (h**e if e else 1.0) * complex(x) ** p for c, p, e in self.terms
        )

    def eval_many(self, h, xs):
        """Vectorized V_h over an array of points."""
        xs = np.asarray(xs, dtype=float)
        if self.domain == HALF_LINE and (xs <= 0).any():
            raise DomainError("grid leaves the half-line domain")
        xc = xs.astype(complex)
        out = np.zeros(xs.shape, dtype=complex)
        for c, p, e in self.terms:
            out += c * (h**e if e else 1.0) * xc**p
        return out

    def deriv(self, h, x):
        """V_h'(x)."""
        self._check_point(x)
        if x == 0 and any(p < 1 and p != 0 for _, p, _ in self.terms):
            raise DomainError("derivative at x = 0 with exponent < 1")
        return sum(
            c * (h**e if e else 1.0) * p * complex(x) ** (p - 1)
            for c, p, e in self.terms
            if p != 0
        )

    def taylor_at(self, h, a, K):
        """Series of V_h(a + s) in s, truncated at degree K.

        Each (a+s)**p is expanded by the generalized binomial theorem,
        which requires a > 0 unless p is a nonnegative integer.
        """
        if K < 1:
            raise UsageError("truncation degree must be >= 1")
        need_positive = any(not _is_nonneg_int(p) for _, p, _ in self.terms)
        if need_positive and a <= 0:
            raise ExpansionError(
                f"cannot expand fractional/negative powers at a = {a}"
            )
        if self.domain == HALF_LINE:
            self._check_point(a)
        out = np.zeros(K + 1, dtype=complex)
        for c, p, e in self.terms:
            w = c * (h**e if e else 1.0)
            if a == 0:
                # p is a nonnegative integer here
                k = int(p)
                if k <= K:
                    out[k] += w
                continue
            binom = 1.0
            for k in range(K + 1):
                if _is_nonneg_int(p) and k > p:
                    break
                out[k] += w * binom * complex(a) ** (p - k)
                binom *= (p - k) / (k + 1)
        return TruncatedSeries(out)

    @property
    def depends_on_h(self):
        """True when some term of V_h carries a power of h."""
        return any(e != 0 for _, _, e in self.terms)

    @property
    def top(self):
        """The (c, p, e) term with the largest exponent."""
        return self.terms[-1]

    def limit_family(self):
        """The h -> 0 family: terms with e_m = 0 only."""
        kept = tuple(t for t in self.terms if t[2] == 0)
        if not kept:
            raise UsageError("family vanishes in the h -> 0 limit")
        return PotentialFamily(kept, self.domain)


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


@dataclass(frozen=True)
class Anchor:
    """Expansion point data (a, eta, h, z) with z = eta^2 + V_h(a)."""

    a: float
    eta: float
    h: float
    z: complex
    warnings: tuple = field(default_factory=tuple)


def make_anchor(P, h, a, eta):
    """Build a validated :class:`Anchor` for the family ``P``.

    Raises :class:`DegenerateAnchorError` when Im V_h'(a) vanishes or
    eta = 0.  When sign(eta) differs from sign(Im V_h'(a)) the sign is
    flipped and ``"eta_sign_flipped"`` recorded in the warnings.
    """
    if h < 0:
        raise UsageError("h must be >= 0")
    if eta == 0:
        raise DegenerateAnchorError("eta = 0 is not admissible")
    dv = P.deriv(h, a)
    if im_deriv_vanishes(dv):
        raise DegenerateAnchorError(
            f"Im V_h'(a) = {dv.imag:.3e} vanishes at a = {a}"
        )
    warnings = ()
    if (eta > 0) != (dv.imag > 0):
        eta = -eta
        warnings = ("eta_sign_flipped",)
    z = eta * eta + P.eval(h, a)
    return Anchor(a=float(a), eta=float(eta), h=float(h), z=z, warnings=warnings)


def validate_anchor(P, anchor):
    """Re-check all anchor invariants; raises on violation."""
    dv = P.deriv(anchor.h, anchor.a)
    if im_deriv_vanishes(dv):
        raise DegenerateAnchorError("Im V_h'(a) vanishes")
    if anchor.eta == 0:
        raise DegenerateAnchorError("eta = 0")
    if (anchor.eta > 0) != (dv.imag > 0):
        raise DegenerateAnchorError("sign(eta) != sign(Im V_h'(a))")
    z_ref = anchor.eta**2 + P.eval(anchor.h, anchor.a)
    if abs(anchor.z - z_ref) > ANCHOR_RTOL * max(1.0, abs(z_ref)):
        raise UsageError("anchor energy does not satisfy z = eta^2 + V_h(a)")
    return True
