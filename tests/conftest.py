import pytest
from hypothesis import settings

from supercoh import corpus

# A failing property prints its @reproduce_failure blob, so the failing
# example can be replayed anywhere; example counts and deadlines stay as set
settings.register_profile("supercoh", print_blob=True)
settings.load_profile("supercoh")


@pytest.fixture(scope="session")
def point():
    return corpus.complex_by_name("point")


@pytest.fixture(scope="session")
def s1():
    return corpus.complex_by_name("s1")


@pytest.fixture(scope="session")
def s2():
    return corpus.complex_by_name("s2")


@pytest.fixture(scope="session")
def t2():
    return corpus.complex_by_name("t2")


@pytest.fixture(scope="session")
def klein():
    return corpus.complex_by_name("klein")


@pytest.fixture(scope="session")
def rp2():
    return corpus.complex_by_name("rp2")


@pytest.fixture(scope="session")
def rp2xrp2():
    return corpus.complex_by_name("rp2xrp2")


@pytest.fixture(scope="session")
def all_surfaces(s1, s2, t2, klein, rp2):
    return {"s1": s1, "s2": s2, "t2": t2, "klein": klein, "rp2": rp2}
