import signal
from contextlib import contextmanager
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
def q3b2():
    """b2 with y replaced by 3, over Q_3."""
    return _mk(
        BaseFieldConfig.p_adic(3),
        [("x", "1/2"), ("x^2 - 3", "5/4"), ("(x^2 - 3)^2 + 9*x", "11/4")],
    )


@pytest.fixture(scope="session")
def ram(base):
    """A ramified basis over Q(y): beta_1 = 3/2 has denominator 2."""
    return _mk(base, [("x", "3/2"), ("x^2 - y^3", "4")])


@pytest.fixture(scope="session")
def b3(base):
    return _mk(base, [("x", "1"), ("x^2 - y^2", "3")])


@contextmanager
def alarm(seconds, what):
    """Fail the test when the body is not done within seconds.

    pytest.fail raises a BaseException, so a hang inside ``cli.main`` cannot
    pass as an input error, as a TimeoutError (an OSError) would.
    """

    def fail(signum, frame):
        pytest.fail("%s was not done within %d s" % (what, seconds))

    previous = signal.signal(signal.SIGALRM, fail)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
