"""JWKB quasimode construction and residual certification.

Pipeline, for a potential family ``P`` and a validated anchor
``(a, eta, h, z)``:

1. :func:`_local_series` expands at a batch of centres c: the eikonal
   right-hand side ``V_h(a+c+t) - z`` (:func:`eikonal_rhs`) in Taylor
   series, its square root ``psi_{-1}'`` (branch ``i*eta`` at s = 0), the
   transport corrections ``psi_{m+1}' = rho * (psi_m'' - sum_j psi_j'
   psi_{m-j}')`` with ``rho = 1/(2 psi_{-1}')``, and the tail
   ``phi_{n+2} .. phi_{2n+2}`` of ``Hf - zf = (sum_j h^j phi_j) f``.
   The anchor's own expansion is the chain's ``origin`` segment (step 2).
2. :func:`build_piecewise` folds a march.  A series converges only up to
   the nearest branch point of ``psi_{-1}'`` (``P.branch_points``), too
   short a reach for the cutoff, whose commutator needs ``gamma * delta^2
   >> h``.  So :func:`_march` places a chain of centres, each
   ``STEP_FRACTION`` of that distance from the last, then expands them
   all in one batch with principal roots, each root's sign set by its
   inward neighbour's ``psi_{-1}'`` row (a cumulative product outward).
   A side stops before its first centre past ``SPAN_SHARE`` of its wall,
   the nearest of ``DEFAULT_SPAN``, the domain edge and a real branch
   point.  Two safety stops, ``MAX_SEGMENTS`` centres and a non-finite
   row (degenerate at the anchor), cut it short; it then reaches only the
   first centre it drops.
   h enters the march only via V_h.  With its rows it keeps ``psi_{-1}``
   (:func:`_integrate`: constants summed outward from the anchor) and the
   tail magnitudes at s = 0.  :func:`_fold` adds only what depends on h:
   ``psi = sum_m h^m psi_m``, integrated the same way, with its psi' and
   psi'' rows, and ``sum_j h^j phi_j``.
   When V_h has no h term, :func:`build_quasimode` keeps the last chain
   with its cutoff (step 3): the next call at the same anchor only folds
   the chain at its own h.
3. :func:`select_delta` chooses delta on a ``GAMMA_GRID``-point grid and
   certifies gamma with ``gamma*s^2 <= Re psi_{-1}(s)`` and a bound on
   ``|rho|`` on ``[-delta, delta]``.  Re psi_{-1} comes from one real
   Horner pass over the chain, and ``|rho| = 1/(2 |V_h - z|^(1/2))`` from
   the eikonal equation ``psi_{-1}'^2 = V_h - z`` with the exact potential.
4. :func:`residual_ratio` evaluates the exact pointwise residual of the
   :class:`Quasimode` ``f~ = cutoff * exp(-psi)``, the folded phase with
   its cutoff (with the true potential, not a Taylor truncation), by
   composite Gauss-Legendre quadrature and returns a
   :class:`Certificate` whose ``lower_bound = 1/r`` bounds the
   resolvent norm at z from below.  The passes take ``ceil(P0 * 2^k)``
   panels for k = -3 .. ``MAX_DOUBLINGS``, where ``P0 = max(64,
   ceil(8 delta / sqrt(h)))``, and stop at the first pair that agrees to
   ``QUAD_RTOL``.  The first two passes share one evaluation of the
   residual, so a certificate that ends at that pair takes one.  An
   evaluation takes its nodes ``RESIDUAL_BLOCK`` at a time.  One rule
   (:meth:`Quasimode._live`) finds f~'s support for the residual and
   :meth:`Quasimode.values` alike: the cutoff at every node, then psi
   where it is nonzero, then the nodes where exp(-psi) is not 0.  There
   the residual evaluates psi', psi'' and V_h, one expression per part.

The transport recursion forces ``phi_0 .. phi_{n+1}`` to vanish; the
tail ``phi_{n+2} .. phi_{2n+2}`` drives the O(h^{n+2}) residual.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, DegenerateAnchorError, UsageError
from .potential import Anchor, check_energy, make_anchor
from .series import derivative_rows, horner

#: grid points (over [-span, span]) used to choose delta and certify gamma
GAMMA_GRID = 4096

#: quadrature refinement target (relative change between consecutive passes)
QUAD_RTOL = 1e-8

#: the last quadrature pass has P0 * 2**MAX_DOUBLINGS panels (residual_ratio)
MAX_DOUBLINGS = 8

#: quadrature nodes evaluated at a time, which bounds a pass's temporaries
RESIDUAL_BLOCK = 2**14

#: how far the piecewise phase marches out (local coordinate)
DEFAULT_SPAN = 6.0

#: re-expansion step, as a fraction of the exact radius of convergence
STEP_FRACTION = 0.3

#: share of each wall before which a side stops and select_delta looks
SPAN_SHARE = 0.98

MAX_SEGMENTS = 400


def default_truncation(n):
    """Default series truncation degree for JWKB order n."""
    return 2 * n + 16


# -- local expansion ------------------------------------------------------


def eikonal_rhs(P, anchor, K, at=0.0):
    """Coefficients of V_h(a + at + t) - z in t, one row per point of ``at``."""
    rhs = P.taylor_at(anchor.h, anchor.a + np.asarray(at, dtype=float), K)
    rhs[..., 0] -= anchor.z
    return rhs


def _products(x, y):
    """Truncated products of the rows of x and y (x read through windows)."""
    padded = np.concatenate([np.zeros_like(x[..., 1:]), x], axis=-1)
    # windows[..., k, m] = padded[..., k + m]
    windows = np.lib.stride_tricks.sliding_window_view(padded, x.shape[-1], -1)
    return np.einsum("...km,...m->...k", windows, y[..., ::-1])


def _local_series(P, anchor, n, K, centers):
    """(psi_m' for m = -1..n, phi_j for j = n+2..2n+2) at the centres,
    the vector axis of every recursion (over degrees, then over orders).

    psi_{-1}' is the principal root of the right-hand side, or ``i*eta`` at
    the anchor, where f~ must concentrate.  Only the tail of the phi_j is
    built: the transport recursion makes phi_0 .. phi_{n+1} vanish.  Above
    degree K - j, phi_j is truncation noise and is set to 0."""
    if n < 0:
        raise UsageError("JWKB order must be >= 0")
    # a fractional or negative power may overflow near x = 0: a row that is
    # not finite ends the march (:func:`_march`)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        rhs = eikonal_rhs(P, anchor, default_truncation(n) if K is None else K, centers)
        count, width = rhs.shape
        ks = np.arange(1, width)
        derivs = np.zeros((count, n + 2, width), dtype=complex)
        # degree-major (K + 1, segment) rows, so each degree's convolution is
        # a sum over the leading axis of contiguous rows
        root, rho = np.zeros((2, width, count), dtype=complex)
        root[0] = np.where(centers == 0.0, 1j * anchor.eta, np.sqrt(rhs[:, 0]))
        rho[0] = 1.0 / (2.0 * root[0])  # rho = 1/(2 psi_{-1}')
        two_root, minus_rho = 2.0 * root[0], -rho[0]
        for k in ks:
            conv = (root[1:k] * root[k - 1 : 0 : -1]).sum(0)
            root[k] = (rhs[:, k] - conv) / two_root
            conv = (root[1 : k + 1] * rho[k - 1 :: -1]).sum(0)
            rho[k] = minus_rho * (2.0 * conv)
        derivs[:, 0], rho = root.T, rho.T  # back to segment-major
        for m in range(-1, n):
            source = derivative_rows(derivs[:, m + 1])[1]  # psi_m''
            pairs = _products(derivs[:, 1 : m + 2], derivs[:, m + 1 : 0 : -1])
            derivs[:, m + 2] = _products(rho, source - pairs.sum(1))  # j + k = m
        tails = np.zeros((count, n + 1, width), dtype=complex)
        tails[:, 0, :-1] = derivs[:, n + 1, 1:] * ks  # psi_n'' is in phi_{n+2}
        for j, acc in enumerate(tails.transpose(1, 0, 2), start=n + 2):
            m = np.arange(j - 2 - n, n + 1)  # m + k = j - 2 with m, k <= n
            acc -= _products(derivs[:, m + 1], derivs[:, j - 1 - m]).sum(1)
            acc[:, max(width - 1 - j, 0) + 1 :] = 0.0
    if not (root[1, centers == 0.0].real > 0).all():  # f~ must concentrate
        raise DegenerateAnchorError("Re psi_{-1}''(0) = Im V'(a)/(2 eta) <= 0")
    return derivs, tails


# -- piecewise analytic continuation --------------------------------------


@dataclass
class _Chain:
    """The h-free march, one entry per segment, sorted by centre."""

    centers: np.ndarray
    derivs: np.ndarray  # (segment, n + 2, K + 1): psi_{-1}' .. psi_n'
    tails: np.ndarray  # (segment, n + 1, K + 1): phi_{n+2} .. phi_{2n+2}
    leading: np.ndarray  # (segment, K + 1): psi_{-1}, by :func:`_integrate`
    coverage: np.ndarray  # (s_min, s_max): the walls, or a safety stop's cut
    origin: int  # index of the anchor's segment
    n: int
    tail_magnitudes: tuple  # max |coefficient| of phi_{n+2} .. phi_{2n+2} at s = 0


def _march(P, anchor, n, K=None):
    """The :class:`_Chain` from s = 0 each way (module docstring, step 2)."""
    x = P.branch_points(anchor.h, anchor.z)
    points = x - anchor.a
    real = points[abs(x.imag) <= 1e-12 * (1.0 + abs(x))].real
    sides, walls = [], []
    for direction, edge in ((1.0, math.inf), (-1.0, anchor.a - P.x_min)):
        ahead = direction * real
        wall = np.min(ahead[ahead > 0], initial=min(DEFAULT_SPAN, edge))
        side, share = [0.0], SPAN_SHARE * wall
        while direction * side[-1] <= share and len(side) <= MAX_SEGMENTS + 1:
            radius = np.abs(points - side[-1]).min()
            side.append(side[-1] + direction * STEP_FRACTION * radius)
        sides.append(side[1:-1])  # the last centre is past the share or the cap
        walls.append(direction * wall if direction * side[-1] > share else side[-1])
    o = len(sides[1])
    centers = np.array(sides[1][::-1] + [0.0] + sides[0])
    derivs, tails = _local_series(P, anchor, n, K, centers)
    i = np.arange(len(centers))
    inward = i - np.sign(i - o)  # the anchor's own index at the anchor
    with np.errstate(invalid="ignore", over="ignore"):
        root = derivs[:, 0, 0]
        near = horner(derivs[:, 0], inward, centers - centers[inward])
        flip = np.where(abs(root - near) <= abs(root + near), 1.0, -1.0)
        # a non-finite row (near a singularity) ends a side
        usable = np.isfinite(derivs).all(axis=(1, 2))
        for side in (i[o + 1 :], i[:o][::-1]):
            flip[side] = np.cumprod(flip[side])
            usable[side] = np.logical_and.accumulate(usable[side])
        # with psi_{-1}', psi_m' flips for odd m and phi_j for odd j
        derivs[:, 0::2] *= flip[:, None, None]
        tails[:, (n + 1) % 2 :: 2] *= flip[:, None, None]
    if not usable[o]:
        raise DegenerateAnchorError("the expansion at the anchor is not finite")
    cut = centers[~usable]  # a cut side reaches its first dropped centre
    coverage = np.array([np.max(cut[cut < 0], initial=walls[1]),
                         np.min(cut[cut > 0], initial=walls[0])])
    o = int(usable[:o].sum())
    centers, derivs, tails = centers[usable], derivs[usable], tails[usable]
    return _Chain(centers, derivs, tails, _integrate(derivs[:, 0], centers, o),
                  coverage, o, n, tuple(abs(tails[o]).max(1).tolist()))


def _integrate(rows, centers, origin):
    """Antiderivatives of ``rows`` (one per segment, in t = s - its centre).
    Outward from the anchor, the constant at a segment is that of its inward
    neighbour plus the neighbour's antiderivative, with constant 0, at the
    step between them: one cumulative sum per side."""
    out = np.zeros_like(rows, dtype=complex)
    out[:, 1:] = rows[:, :-1] / np.arange(1, rows.shape[1])
    i = np.arange(len(rows))
    inward = i - np.sign(i - origin)
    with np.errstate(invalid="ignore", over="ignore"):
        rise = horner(out, inward, centers - centers[inward])
        for side in (i[origin + 1 :], i[:origin][::-1]):
            out[side, 0] = np.cumsum(rise[side])
    return out


def _fold(chain, anchor):
    """The segments of ``chain`` at the anchor's h, rows as in
    :class:`PiecewisePhase`: psi, the integral of sum_m h^m psi_m' taken
    as psi_{-1}' is in the march, its psi' and psi'' (:func:`derivative_rows`)
    and the tail sum_j h^j phi_j."""
    h, n = anchor.h, chain.n
    dphase = sum(h**m * chain.derivs[:, m + 1] for m in range(-1, n + 1))
    tail = sum(h**j * chain.tails[:, j - n - 2] for j in range(n + 2, 2 * n + 3))
    phase = _integrate(dphase, chain.centers, chain.origin)
    return np.stack([*derivative_rows(phase), tail], axis=1)


@dataclass
class PiecewisePhase:
    """A march's chain at one h: ``segments[i]`` holds four rows of
    coefficients in t = s - chain.centers[i]: psi = sum_m h^m psi_m, psi',
    psi'' and the tail sum_j h^j phi_j (:func:`_fold`)."""

    chain: _Chain
    anchor: Anchor
    segments: np.ndarray  # (segment, 4, K + 1), sorted by center

    def _locate(self, s):
        """(segment, t = s - its centre) of each point: the segment with the
        nearest centre (ties go right), found once for every table."""
        s = np.asarray(s, dtype=float)
        joins = 0.5 * (self.chain.centers[:-1] + self.chain.centers[1:])
        seg = np.searchsorted(joins, s, side="right")
        return seg, s - self.chain.centers[seg]

    def _eval(self, s, *tables):
        """Evaluate tables (one row per segment) at s; results are shaped like s."""
        seg, t = self._locate(s)
        return tuple(horner(table, seg, t) for table in tables)

    def phase_at(self, s):
        """(psi, psi', psi'') of sum_m h^m psi_m at s (scalar or array)."""
        return self._eval(s, *self.segments[:, :3].transpose(1, 0, 2))

    def leading_at(self, s):
        """(psi_{-1}, psi_{-1}') without h weights, for certification."""
        return self._eval(s, self.chain.leading, self.chain.derivs[:, 0])

    def tail_at(self, s):
        """sum_{m=n+2}^{2n+2} h^m phi_m(s), the interior residual factor."""
        return self._eval(s, self.segments[:, 3])[0]


#: one slot, (key, chain, (delta, gamma, beta)) of the last build whose V_h
#: has no h term, with read-only arrays; only :func:`build_quasimode` writes
#: it, replacing the entry whole, so a reader sees key, chain and cutoff of
#: one build, and the module's own names never change.
_last_build = [None]


def _build_key(P, anchor, n, K):
    """Everything the march and :func:`select_delta` read, h aside: floats
    by their bits, so 0.0 and -0.0 differ.  None when V_h carries h."""
    if P.depends_on_h:
        return None
    numbers = [anchor.a, anchor.eta, anchor.z, DEFAULT_SPAN, STEP_FRACTION,
               SPAN_SHARE, *(x for term in P.terms for x in term)]
    K = default_truncation(n) if K is None else K
    return (P, np.array(numbers, dtype=complex).tobytes(), n, K, MAX_SEGMENTS,
            GAMMA_GRID)


def build_piecewise(P, anchor, n, K=None):
    """Phase expansion continued over |s| <~ DEFAULT_SPAN around the anchor:
    one march, folded at the anchor's h."""
    chain = _march(P, anchor, n, K)
    return PiecewisePhase(chain, anchor, _fold(chain, anchor))


# -- cutoff ---------------------------------------------------------------


def _transition(t):
    """g, g', g'' of g(t) = q(t) / (q(t) + q(1-t)) with the bump q(t) =
    exp(-1/t) (0 for t <= 0): exactly (0, 0, 0) for t <= 0 and (1, 0, 0)
    for t >= 1.  Both bumps come from one pass over (t, 1 - t); the
    derivatives of q(1-t) are -q'(1-t) and q''(1-t)."""
    t = np.stack([t, 1.0 - t])
    pos = t > 0
    ts = np.where(pos, t, 1.0)
    q = np.where(pos, np.exp(-1.0 / ts), 0.0)  # q = 0 makes q', q'' 0 too
    (qa, qb), (qa1, qb1), (qa2, qb2) = q, q / ts**2, q * (1.0 / ts**4 - 2.0 / ts**3)
    d = qa + qb
    d1 = qa1 - qb1
    w = qa1 * qb + qa * qb1
    w1 = qa2 * qb - qa * qb2
    g = qa / d
    g1 = w / d**2
    g2 = (w1 * d - 2.0 * w * d1) / d**3
    return g, g1, g2


def _cutoff_fits(delta):
    """True when delta > 0 and the cutoff's delta^2 and 4/delta^2
    (:func:`cutoff_eval`) are finite; it never divides by delta, so it
    never warns."""
    return delta > 0 and 4.0 / sys.float_info.max < delta * delta < math.inf


def cutoff_eval(delta, s):
    """(xi, xi', xi'') of the smooth bump cutoff at local coordinate s.

    xi(s) = g(2 - 2|s|/delta) with the classical exp(-1/t) transition g.
    As q(t) = 0 for t <= 0, this one formula is exactly (1, 0, 0) for
    |s| <= delta/2 and (0, 0, 0) for |s| >= delta, so all derivatives
    vanish at the seams.  t is clamped at -1, which changes no bit and
    keeps the bump's powers finite for any |s|; a NaN s clamps to -1 too,
    so xi = 0 there.  A delta that :func:`_cutoff_fits` refuses is a
    :class:`UsageError`.
    """
    if not _cutoff_fits(delta):
        raise UsageError("delta must be > 0, with delta^2 and 4/delta^2 finite")
    s = np.asarray(s, dtype=float)
    g, g1, g2 = _transition(np.fmax(2.0 - 2.0 * np.abs(s) / delta, -1.0))
    return g, g1 * np.copysign(2.0 / delta, -s), g2 * (4.0 / delta**2)


# -- quasimode assembly ---------------------------------------------------


@dataclass
class Quasimode(PiecewisePhase):
    """f~ = cutoff * exp(-psi): the folded phase with its certified cutoff
    radius and concentration rate."""

    delta: float
    gamma: float
    beta: float  # certified bound on |rho| over [-delta, delta]

    def _live(self, s):
        """(xi, xi', xi''), the nodes, their segments and t, and exp(-psi)
        where f~ can be nonzero among the 1-d nodes s: where xi > 0 (the
        cutoff is evaluated at every node) and exp(-psi) != 0.  A nan psi
        counts as live, and so keeps a non-finite pass non-finite."""
        xi, xi1, xi2 = cutoff_eval(self.delta, s)
        at = np.flatnonzero(xi > 0)
        seg, t = self._locate(s[at])
        e = np.exp(-horner(self.segments[:, 0], seg, t))
        live = np.flatnonzero(e != 0)
        at = at[live]
        return (xi[at], xi1[at], xi2[at]), at, seg[live], t[live], e[live]

    def values(self, s):
        """f~(a + s) = cutoff(s) * exp(-psi(s)) on the local grid s: the
        bits of :func:`residual_pointwise`'s second part, +0 off the
        support."""
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.size, dtype=complex)
        (xi, _, _), at, _, _, e = self._live(s.reshape(-1))
        out[at] = xi * e
        return out.reshape(s.shape)


def select_delta(P, pw):
    """Choose the cutoff radius and certify the concentration rate of the
    phase ``pw`` of the family ``P``.

    The grid has ``GAMMA_GRID`` points over ``SPAN_SHARE`` of the nearer
    wall: the nearest of ``DEFAULT_SPAN``, the domain edge and a real branch
    point, or where a safety stop (``MAX_SEGMENTS``, a non-finite row) cut
    that side.  The admissible zone is the largest symmetric interval on
    which Re psi_{-1}(s) > 0 (so gamma = min Re psi_{-1}/s^2 is positive)
    and |rho| = |1/(2 psi_{-1}')| stays bounded.  Within that zone delta
    maximizes the smallest Re psi_{-1} on the cutoff seam delta/2 <= |s| <=
    delta, which controls the exp(-Re psi_{-1}/h) suppression of the cutoff
    commutator.  gamma and the bound beta on |rho| come from the same
    samples within [-delta, delta].  Each quantity is read from its
    cheapest exact source: Re psi_{-1} from one real Horner pass over the
    real parts of the psi_{-1} rows (the bits of the complex pass's real
    part), and |2 psi_{-1}'| = 2 |V_h(a+s) - z|^(1/2) from the eikonal
    equation and the exact potential, which the grid cannot leave since
    it stays within ``SPAN_SHARE`` of the domain edge.  A reach so short
    that the grid's smallest delta does not suit the cutoff
    (:func:`_cutoff_fits`) is refused before anything is divided.  Returns
    (delta, gamma, beta).
    """
    lo, hi = pw.chain.coverage
    span = SPAN_SHARE * min(-lo, hi)
    half = GAMMA_GRID // 2
    x = span * np.arange(1, half + 1) / half
    # the grid's deltas are x[1] and up; when x[1] suits the cutoff, no s^2
    # of the grid underflows to 0 either
    if not _cutoff_fits(x[1]):
        raise DegenerateAnchorError("analytic continuation has too short a reach")
    s = np.concatenate([-x[::-1], x])
    (re,) = pw._eval(s, pw.chain.leading.real)
    q = re / s**2
    anchor = pw.anchor
    dp = 2.0 * np.sqrt(np.abs(P.eval_many(anchor.h, anchor.a + s) - anchor.z))
    # symmetric prefix condition: both sides admissible out to index k
    q_sym = np.minimum(q[half:], q[half - 1 :: -1])
    dp_sym = np.minimum(dp[half:], dp[half - 1 :: -1])
    ok = np.logical_and.accumulate((q_sym > 0) & (dp_sym > 1e-12))
    if not ok[1]:
        raise DegenerateAnchorError("no admissible cutoff radius")
    kmax = int(ok.sum())  # ok is a prefix: its first False is at kmax
    re_sym = np.minimum(re[half:], re[half - 1 :: -1])
    # seam minima re_sym[(k+1)//2 : k+1] for all k from a sparse table:
    # mins[j, i] is the minimum of re_sym[i : i + 2**j]
    k = np.arange(1, kmax)
    lo = (k + 1) // 2
    j = np.frexp(k + 1 - lo)[1] - 1  # largest j with 2**j <= window width
    mins = np.full((j.max() + 1, kmax), np.inf)
    mins[0] = re_sym[:kmax]
    for i in range(1, mins.shape[0]):
        w = 1 << (i - 1)
        mins[i, :-w] = np.minimum(mins[i - 1, :-w], mins[i - 1, w:])
    seam = np.minimum(mins[j, lo], mins[j, k + 1 - (1 << j)])
    best_k = int(k[np.argmax(seam)])  # the first maximum
    inner = slice(0, best_k + 1)
    return float(x[best_k]), float(q_sym[inner].min()), float(1.0 / dp_sym[inner].min())


def build_quasimode(P, anchor, n, K=None):
    """Full construction: continued phases plus certified (delta, gamma).

    The march and :func:`select_delta` read h only via V_h.  So when no
    term of V_h carries h, the chain and its (delta, gamma, beta) are kept,
    read-only, under a key of all they read but h (:func:`_build_key`); the
    next call with that key only folds the chain at its own h, and a build
    under another key replaces them."""
    key = _build_key(P, anchor, n, K)
    last = _last_build[0]
    if last is not None and last[0] == key:  # a kept key is never None
        return Quasimode(last[1], anchor, _fold(last[1], anchor), *last[2])
    pw = build_piecewise(P, anchor, n, K)
    cutoff = select_delta(P, pw)
    if key is not None:
        for array in (pw.chain.centers, pw.chain.derivs, pw.chain.tails,
                      pw.chain.leading, pw.chain.coverage):
            array.setflags(write=False)
        _last_build[0] = (key, pw.chain, cutoff)
    return Quasimode(pw.chain, anchor, pw.segments, *cutoff)


# -- residual quadrature --------------------------------------------------


@dataclass
class Certificate:
    """A point z with a certified resolvent-norm lower bound 1/r."""

    z: complex
    h: float
    n: int
    r: float
    lower_bound: float
    delta: float
    gamma: float
    panels: int
    tail_magnitudes: list
    warnings: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    quasimode: Quasimode | None = field(default=None, repr=False)

    def to_dict(self):
        return {
            "z_re": self.z.real,
            "z_im": self.z.imag,
            "h": self.h,
            "n": self.n,
            "r": self.r,
            "lower_bound": self.lower_bound,
            "delta": self.delta,
            "gamma": self.gamma,
            "panels": self.panels,
            "tail_magnitudes": list(self.tail_magnitudes),
            "warnings": list(self.warnings),
        }


def residual_pointwise(P, Q, s):
    """(Hf~ - z f~, f~, cutoff commutator part) at a+s on the local grid s.

    The potential is evaluated exactly (not through its Taylor series),
    so series truncation error enters only through the phase.  Nodes are
    taken ``RESIDUAL_BLOCK`` at a time (:func:`_residual_block`); every
    value is computed node by node, so the blocks change no bit.
    """
    s = np.asarray(s, dtype=float)
    flat = s.reshape(-1)
    out = np.zeros((3, flat.size), dtype=complex)
    for lo in range(0, flat.size, RESIDUAL_BLOCK):
        block = slice(lo, lo + RESIDUAL_BLOCK)
        _residual_block(P, Q, flat[block], out[:, block])
    return tuple(out.reshape((3,) + s.shape))


def _residual_block(P, Q, s, out):
    """Write the three parts of :func:`residual_pointwise` at the nodes s
    into the zeroed ``out`` where f~ can be nonzero (:meth:`Quasimode._live`).
    There psi' and psi'' (rows 1 and 2 of ``Q.segments``) and V_h are
    evaluated, and each part is one expression at every such node."""
    h, a, z = Q.anchor.h, Q.anchor.a, Q.anchor.z
    (xi, xi1, xi2), at, seg, t, e = Q._live(s)
    d1 = horner(Q.segments[:, 1], seg, t)
    curv = d1 * d1 - horner(Q.segments[:, 2], seg, t)
    pot = P.eval_many(h, a + s[at]) - z
    comm = xi2 - 2.0 * xi1 * d1
    # -h^2 (xi'' - 2 xi' psi' + xi (psi'^2 - psi'')) + (V_h - z) xi
    out[0, at] = (-(h * h) * (comm + xi * curv) + pot * xi) * e
    out[1, at] = xi * e
    # cutoff commutator alone: -h^2 (xi'' - 2 xi' psi') exp(-psi)
    out[2, at] = -(h * h) * comm * e


#: the positive half of the symmetric 16-point Gauss-Legendre rule: the
#: bits of ``numpy.polynomial.legendre.leggauss(16)``, held here so that
#: certifying loads no numpy.polynomial
_LEGENDRE_NODES = (
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
    0.6178762444026438, 0.755404408355003, 0.8656312023878318,
    0.9445750230732326, 0.9894009349916499,
)
_LEGENDRE_WEIGHTS = (
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
    0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
    0.062253523938647456, 0.027152459411754176,
)

#: Gauss-Legendre nodes per quadrature panel
PANEL_NODES = 2 * len(_LEGENDRE_NODES)


@functools.cache
def _legendre_rule():
    """Gauss-Legendre nodes (ascending) and weights of ``PANEL_NODES`` =
    16 points, mirrored from the constant half rule."""
    x, w = np.array(_LEGENDRE_NODES), np.array(_LEGENDRE_WEIGHTS)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


def _panel_quadrature(P, Q, *counts):
    """Integrals of |residual|^2, |f~|^2 and the cutoff-commutator part,
    one triple per panel count, from one :func:`residual_pointwise` call on
    the nodes of all the counts: a count's nodes and weights, and so its
    sum over its own contiguous slice, keep the bits of a call on it alone."""
    delta = Q.delta
    nodes, weights = _legendre_rule()
    s, w = [], []
    for panels in counts:
        edges = np.linspace(-delta, delta, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1] - edges[0])
        s.append((mid[:, None] + half * nodes[None, :]).ravel())
        w.append(np.broadcast_to(half * weights, (panels, PANEL_NODES)).ravel())
    s, w = np.concatenate(s), np.concatenate(w)
    # exp(-psi) may overflow; residual_ratio turns a non-finite pass into
    # one AccuracyError, so numpy need not warn about it first
    with np.errstate(over="ignore", invalid="ignore"):
        terms = [w * np.abs(part) ** 2 for part in residual_pointwise(P, Q, s)]
    ends = np.cumsum([0, *counts]) * PANEL_NODES
    return [
        tuple(float(np.sum(term[lo:hi])) for term in terms)
        for lo, hi in zip(ends, ends[1:])
    ]


def residual_ratio(P, Q, allow_large_h=False):
    """Certify a resolvent-norm lower bound at the quasimode's energy.

    Computes r = ||Hf~ - z f~|| / ||f~|| by composite Gauss-Legendre
    quadrature with 16 nodes per panel and returns a :class:`Certificate`
    with lower_bound = 1/r.  The passes take ceil(P0/8), ceil(P0/4),
    ceil(P0/2), P0, 2 P0, ..., P0 * 2^MAX_DOUBLINGS panels, with P0 =
    max(64, ceil(8 delta / sqrt(h))); the first two are evaluated together
    (:func:`_panel_quadrature`), each later one alone.  The first pass whose
    ||Hf~ - z f~||^2 and ||f~||^2 both change by at most QUAD_RTOL
    (relative) from the pass before ends the quadrature.  Its panels are
    reported, and the last two passes go into the AccuracyError when no
    pair agrees.  A pass that is not finite raises AccuracyError at once,
    and so does an h whose last pass would have more nodes than numpy can
    allocate, before anything is evaluated, and an accepted pass whose
    r^2 is 0 or not finite (||f~||^2 underflowed, say).

    The construction's error analysis assumes h <= delta^2; by default
    larger h is rejected, but sweeps may pass ``allow_large_h=True`` to
    proceed with an ``h_above_delta_sq`` warning instead.
    """
    anchor = Q.anchor
    h = anchor.h
    warnings = list(anchor.warnings)
    if h > Q.delta**2:
        if not allow_large_h:
            raise UsageError(
                f"h = {h} exceeds delta^2 = {Q.delta**2:.3e}; "
                "pass allow_large_h=True to override"
            )
        warnings.append("h_above_delta_sq")

    base = 8.0 * Q.delta / math.sqrt(h)
    # the last pass's float64 nodes must fit in an array numpy can allocate
    if not base * 2.0**MAX_DOUBLINGS * PANEL_NODES * 8 <= np.iinfo(np.intp).max:
        raise AccuracyError(
            f"h = {h} needs more quadrature nodes than numpy can allocate"
        )
    p0 = max(64, math.ceil(base))
    schedule = [math.ceil(p0 * 2.0**k) for k in range(-3, MAX_DOUBLINGS + 1)]
    passes = (  # (panels, integrals); the first two from one evaluation
        pair
        for counts in [schedule[:2]] + [[panels] for panels in schedule[2:]]
        for pair in zip(counts, _panel_quadrature(P, Q, *counts))
    )
    prev = cur = None
    for panels, quad in passes:
        prev, cur = cur, quad
        if not all(map(math.isfinite, cur[:2])):
            raise AccuracyError("quadrature is not finite", estimates=(prev, cur))
        if prev is not None:
            ok = all(
                abs(c - p) <= QUAD_RTOL * max(abs(c), 1e-300)
                for c, p in zip(cur[:2], prev[:2])
            )
            if ok:
                break
    else:
        raise AccuracyError(
            "quadrature did not converge", estimates=(prev, cur)
        )

    num_sq, den_sq, comm_sq = cur
    if not (den_sq > 0 and 0 < num_sq / den_sq < math.inf):
        raise AccuracyError(f"r^2 = {num_sq:.3e} / {den_sq:.3e} is not finite and > 0",
                            estimates=(prev, cur))
    r = math.sqrt(num_sq / den_sq)
    return Certificate(
        z=anchor.z,
        h=h,
        n=Q.chain.n,
        r=r,
        lower_bound=1.0 / r,
        delta=Q.delta,
        gamma=Q.gamma,
        panels=panels,
        tail_magnitudes=list(Q.chain.tail_magnitudes),
        warnings=warnings,
        diagnostics={
            "beta": Q.beta,
            "norm_f_sq": den_sq,
            "residual_sq": num_sq,
            "cutoff_term_sq": comm_sq,
            "gamma_grid": GAMMA_GRID,
        },
        quasimode=Q,
    )


def certify(P, anchor, n, K=None, allow_large_h=False):
    """Anchor -> certificate in one call.  An anchor whose z is not
    eta^2 + V_h(a) raises :class:`UsageError` before anything is built."""
    with np.errstate(all="ignore"):  # a non-finite V_h(a) fails in the march
        v = P.eval(anchor.h, anchor.a)
    check_energy(anchor, anchor.eta * anchor.eta + v)
    Q = build_quasimode(P, anchor, n, K)
    return residual_ratio(P, Q, allow_large_h=allow_large_h)


def sweep_h(P, a, eta, n, h_list, K=None):
    """Certificates over an h grid at fixed (a, eta), plus the slope fit.

    One :func:`certify` per h: when no term of V_h carries h, the first
    marches and the others fold its chain (:func:`build_quasimode`).
    Returns (certs, slope, fit_residual) where slope is the least-squares
    slope of log r against log h.  The expected law is r ~ h^(n+2).
    """
    h_list = list(h_list)
    if len(set(h_list)) < 3:
        raise UsageError("h sweep needs at least 3 distinct h values")
    certs = [certify(P, make_anchor(P, h, a, eta), n, K, allow_large_h=True)
             for h in h_list]
    logs = np.log([c.h for c in certs])
    logr = np.log([c.r for c in certs])
    (slope, _), res, *_ = np.polyfit(logs, logr, 1, full=True)
    fit_residual = float(res[0]) if len(res) else 0.0
    return certs, float(slope), fit_residual
