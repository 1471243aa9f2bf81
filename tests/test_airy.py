"""The complex Airy operator in closed form: a reference past the oracle.

For V = i x the anchor (a, eta) only shifts x, and x = h^(2/3) y turns
H_h - z into h^(2/3) (A - lambda) with A = -d^2/dy^2 + i y and lambda =
eta^2 h^(-2/3).  As lambda -> +inf, ||(A - lambda)^-1|| ~ sqrt(pi/2)
lambda^(-1/4) exp((4/3) lambda^(3/2)) (W. Bordeaux Montrieux, 2013; B.
Helffer, Spectral Theory and its Applications, CUP 2013), so

    ||(H_h - z)^-1|| ~ sqrt(pi/2) eta^(-1/2) h^(-1/2) exp(4 eta^3 / (3 h)).

The oracle approaches it like 1 + O(h) (measured 1.0114, 1.0055 and
1.0039 at h = 0.2, 0.1 and 0.07 on [-8, 8], N = 16000).  At h = 0.0125
it reads about e^106.7, far past any float64 oracle, and still bounds
every certificate from above.
"""

import math

import pytest

from quasimodes import jwkb, oracle
from quasimodes.potential import PotentialFamily, make_anchor

IX = PotentialFamily(((1j, 1, 0),))

#: criterion 1's h grid
H_GRID = (0.2, 0.1, 0.05, 0.025, 0.0125)


def airy_norm(h, eta=1.0):
    """The closed-form resolvent norm of -h^2 d^2/dx^2 + i x at eta^2 + i a."""
    return math.sqrt(math.pi / 2) / math.sqrt(eta * h) * math.exp(4 * eta**3 / (3 * h))


@pytest.mark.parametrize("h", [0.2, 0.1, 0.07])
def test_the_oracle_meets_the_closed_form(h):
    T = oracle.assemble(IX, h, oracle.Discretization(-8.0, 8.0, 16000))
    norm = 1.0 / oracle.smallest_singular_value(T, 1.0 + 0j)
    assert abs(norm / airy_norm(h) - 1.0) <= 0.02


@pytest.mark.parametrize("n", [0, 1, 2])
def test_certificates_stay_below_the_closed_form(n):
    for h in H_GRID:
        cert = jwkb.certify(IX, make_anchor(IX, h, 0.0, 1.0), n, allow_large_h=True)
        assert cert.lower_bound <= airy_norm(h)
