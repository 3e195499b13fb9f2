from fractions import Fraction

import pytest

from keyval import BaseFieldConfig, WeightedBasis
from keyval.parsing import parse_poly


@pytest.fixture(scope="session")
def base():
    return BaseFieldConfig.function_field()


def _mk(base, pairs):
    return WeightedBasis(base, [(parse_poly(t, base), Fraction(b)) for t, b in pairs])


@pytest.fixture(scope="session")
def b1(base):
    return _mk(base, [("x", "1/2"), ("x^2 - y", "3/2")])


@pytest.fixture(scope="session")
def b2(base):
    return _mk(
        base,
        [("x", "1/2"), ("x^2 - y", "5/4"), ("(x^2 - y)^2 + x*y^2", "11/4")],
    )


@pytest.fixture(scope="session")
def q3():
    return _mk(BaseFieldConfig.p_adic(3), [("x", "1/2"), ("x^2 - 3", "3/2")])


@pytest.fixture(scope="session")
def b3(base):
    return _mk(base, [("x", "1"), ("x^2 - y^2", "3")])
