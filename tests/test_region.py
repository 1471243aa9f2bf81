"""How sharp is the certificate across the region U?  At h = 0.1 and n = 2,
each anchor of a coarse a x eta grid is certified and compared with the
finite-difference oracle on its default grid.  No certificate may claim more
than 1.1 times the oracle's resolvent norm; the sharpness quantiles are
printed, with no target yet."""

import numpy as np
import pytest

from quasimodes import jwkb, oracle
from quasimodes.errors import QuasimodeError
from quasimodes.potential import PotentialFamily, make_anchor

H = 0.1
ORDER = 2
ETAS = np.linspace(0.3, 1.5, 5)

#: family, and the a range of its grid (8 points)
FAMILIES = {
    "ix3": (PotentialFamily(((1j, 3, 0),)), (-1.5, 1.5)),
    "x4": (PotentialFamily(((1 + 1j, 4, 0),)), (-1.5, 1.5)),
    "halfline": (PotentialFamily(((1.0, -2, 0), (1 + 1j, 2, 0)), "halfline"), (0.1, 2.0)),
}


def oracle_sigma(P, cert):
    """(sigma_min(T - z) on the default grid, a bound on ||T - z||: its
    largest row sum)."""
    disc = oracle.default_discretization(P, cert.quasimode.anchor, cert.delta)
    T = oracle.assemble(P, H, disc)
    rows = np.abs(T.diag - cert.z)
    rows[:-1] += np.abs(T.off)
    rows[1:] += np.abs(T.off)
    return oracle.smallest_singular_value(T, cert.z), rows.max()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_no_certificate_claims_more_than_the_oracle_across_the_grid(name):
    P, (a_lo, a_hi) = FAMILIES[name]
    sharpness, refused, inconclusive = [], 0, 0
    for a in np.linspace(a_lo, a_hi, 8):
        for eta in ETAS:
            try:  # a point that does not certify raises a QuasimodeError
                cert = jwkb.certify(P, make_anchor(P, H, a, eta), ORDER)
            except QuasimodeError:
                refused += 1
                continue
            sigma, norm = oracle_sigma(P, cert)
            # conclusive: sigma_min well above the float64 floor of its solves
            if not sigma > 1e4 * np.finfo(float).eps * norm:
                inconclusive += 1
                continue
            assert cert.lower_bound <= 1.1 / sigma, (a, eta)
            sharpness.append(cert.lower_bound * sigma)
    q25, median = np.quantile(sharpness, [0.25, 0.5])
    print(f"{name}: {len(sharpness)} conclusive, {inconclusive} inconclusive, "
          f"{refused} refused; lower_bound * sigma_min q25 {q25:.3g}, "
          f"median {median:.3g}")
    assert sharpness
