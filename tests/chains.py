"""Reference expansions for the tests, built from TruncatedSeries operators.

The package builds the phase once, as the march's segment chain; the
segment at s = 0 (``chain.origin``) is the anchor's own expansion.  These
helpers read that segment and rebuild the phi_j from it one operator at a
time, so that a test checks the batched recursions of ``jwkb`` against an
independent construction.
"""

import numpy as np

from quasimodes import jwkb
from quasimodes.series import TruncatedSeries


def phi_chain(derivs, rhs, n, lowest):
    """phi_j for j = lowest..2n+2 from the psi_m' series by TruncatedSeries
    operators, each with the coefficientwise sum of its terms' magnitudes,
    which bounds the round-off of any order of summation."""
    K = rhs.K
    size = [np.abs(d.coeffs) for d in derivs]
    phis, mags = [], []
    for j in range(lowest, 2 * n + 3):
        acc = TruncatedSeries(np.zeros(K + 1))
        mag = np.zeros(K + 1)
        if -1 <= j - 2 <= n:
            acc = acc + derivs[j - 1].deriv()
            mag[:-1] += size[j - 1][1:] * np.arange(1, K + 1)
        for m in range(-1, n + 1):
            k = j - 2 - m
            if -1 <= k <= n:
                acc = acc - derivs[m + 1] * derivs[k + 1]
                mag += np.convolve(size[m + 1], size[k + 1])[: K + 1]
        if j == 0:
            acc = acc + rhs
            mag += np.abs(rhs.coeffs)
        phis.append(acc.coeffs[: max(K - j, 0) + 1])
        mags.append(mag[: max(K - j, 0) + 1])
    return phis, mags


def operator_chain(rhs, n, branch):
    """psi_m' for m = -1..n built from TruncatedSeries operators only."""
    derivs = [rhs.sqrt(branch)]
    rho = (2.0 * derivs[0]).recip()
    for m in range(-1, n):
        source = derivs[m + 1].deriv()
        for j in range(0, m + 1):
            source = source - derivs[j + 1] * derivs[m - j + 1]
        derivs.append(rho * source)
    return derivs


def anchor_expansion(P, anchor, n, K=None):
    """The expansion at s = 0, read from the chain's origin segment:
    (psi_{-1} .. psi_n, each 0 at s = 0; phi_0 .. phi_{2n+2} and their
    magnitudes from :func:`phi_chain`)."""
    chain = jwkb._march(P, anchor, n, K)
    derivs = [TruncatedSeries(d) for d in chain.derivs[chain.origin]]
    rhs = TruncatedSeries(jwkb.eikonal_rhs(P, anchor, derivs[0].K))
    psi = [d.antideriv(0.0) for d in derivs]
    return (psi, *phi_chain(derivs, rhs, n, 0))


def leading_at(pw, s):
    """(psi_{-1}, psi_{-1}') of the chain of ``pw`` at s, without h weights."""
    return pw._eval(s, pw.chain.leading, pw.chain.derivs[:, 0])
