import signal
from contextlib import contextmanager

import pytest

import cli_cases
from keyval import BaseFieldConfig
from keyval.io import basis_from_json


@pytest.fixture(scope="session")
def base():
    return BaseFieldConfig.function_field()


def _basis_fixture(name):
    @pytest.fixture(scope="session", name=name)
    def basis():
        return basis_from_json(cli_cases.BASES[name])

    return basis


# Every named basis of cli_cases.BASES, built by the CLI's own loader.
for _name in cli_cases.BASES:
    globals()[_name] = _basis_fixture(_name)


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
