"""Exact symmetries of the operators: pairs of anchors whose certificates
must agree, with no reference solution needed.

- PT for i x^3: (a, eta) -> (-a, eta) conjugates z and keeps the norm.
- Parity for (1 + i) x^4: a -> -a keeps z; the anchor flips eta.
- Translation for i x: any a at fixed eta gives the same operator, shifted.

The r of a pair agree within ``SYMMETRY_RTOL``, about ten times the worst
difference measured over these cases (9e-10, 1e-11 and 1.6e-9, all at
h = 0.00625, n = 2).
"""

import pytest

from quasimodes import jwkb
from quasimodes.potential import PotentialFamily, make_anchor

IX = PotentialFamily(((1j, 1, 0),))
IX3 = PotentialFamily(((1j, 3, 0),))
X4 = PotentialFamily(((1 + 1j, 4, 0),))

SYMMETRY_RTOL = 1e-8

HS = (0.1, 0.025, 0.00625)
ORDERS = (0, 2)


def certify_pair(P, first, second, h, n):
    anchors = [make_anchor(P, h, a, eta) for a, eta in (first, second)]
    certs = [jwkb.certify(P, anchor, n, allow_large_h=True) for anchor in anchors]
    return anchors, certs


def assert_same_r(certs):
    r0, r1 = (c.r for c in certs)
    assert abs(r1 - r0) <= SYMMETRY_RTOL * r0


@pytest.mark.parametrize("h", HS)
@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("a, eta", [(1.0, 1.0), (0.95, 1.05)])
def test_pt_symmetry_of_the_cubic(a, eta, h, n):
    (A, B), certs = certify_pair(IX3, (a, eta), (-a, eta), h, n)
    assert B.z == A.z.conjugate()
    assert_same_r(certs)


@pytest.mark.parametrize("h", HS)
@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("a, eta", [(1.0, 1.0), (0.95, 1.05)])
def test_parity_of_the_quartic(a, eta, h, n):
    (A, B), certs = certify_pair(X4, (a, eta), (-a, eta), h, n)
    assert (B.z, B.eta, B.warnings) == (A.z, -A.eta, ("eta_sign_flipped",))
    assert "eta_sign_flipped" not in A.warnings
    assert_same_r(certs)


@pytest.mark.parametrize("h", HS)
@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("first, second", [((0.0, 0.8), (0.37, 0.8)),
                                           ((0.0, 1.0), (-0.4, 1.0))])
def test_translation_of_the_linear_potential(first, second, h, n):
    _, certs = certify_pair(IX, first, second, h, n)
    assert_same_r(certs)
