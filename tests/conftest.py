import pytest

from irtopo import from_open_sets, from_reach
from irtopo.core import canon_sorted
from irtopo.verifier import enumerate_spaces


def discrete(n):
    return from_reach([str(i) for i in range(n)], [1 << i for i in range(n)])


def indiscrete(n):
    full = (1 << n) - 1
    return from_reach([str(i) for i in range(n)], [full] * n)


def sphere_model(levels):
    """The minimal finite model of the sphere of dimension levels - 1: two
    points per level, each reaching both points of every level below."""
    rows = [(1 << 2 * (i // 2)) - 1 | 1 << i for i in range(2 * levels)]
    return from_reach([str(i) for i in range(2 * levels)], rows)


def union_closure_opens(space):
    """Oracle: the open sets as every union of minimal neighborhoods,
    closed one distinct neighborhood at a time, in canonical order."""
    opens = {0}
    for m in set(space.min_opens):
        opens |= {o | m for o in opens}
    return canon_sorted(opens)


@pytest.fixture
def sierpinski():
    return from_open_sets(["0", "1"], [0, 0b01, 0b11])


@pytest.fixture
def pseudocircle():
    # four points a, b, c, d with minimal opens {a}, {b}, {a,b,c}, {a,b,d}
    return from_reach(["a", "b", "c", "d"], [0b1101, 0b1110, 0b0100, 0b1000])


@pytest.fixture(scope="session")
def spaces_upto3():
    out = []
    for n in range(1, 4):
        out.extend(enumerate_spaces(n))
    return out


@pytest.fixture(scope="session")
def spaces_upto4():
    out = []
    for n in range(1, 5):
        out.extend(enumerate_spaces(n))
    return out
