import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from blockforge.permgroup import PermutationGroup


def random_subgroup(rng, degree, n_gens):
    gens = []
    for _ in range(n_gens):
        img = list(range(degree))
        rng.shuffle(img)
        gens.append(tuple(img))
    return PermutationGroup(degree, gens)


def cyclic(n):
    return PermutationGroup(n, [tuple(range(1, n)) + (0,)], name=f"C{n}")


def symmetric(n):
    gens = [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]
    return PermutationGroup(n, gens, name=f"S{n}")


def alternating(n):
    three = (1, 2, 0) + tuple(range(3, n))
    if n % 2:
        rot = tuple(range(1, n)) + (0,)
    else:
        rot = (0,) + tuple(range(2, n)) + (1,)
    return PermutationGroup(n, [three, rot], name=f"A{n}")


def dihedral8():
    return PermutationGroup(4, [(1, 2, 3, 0), (2, 1, 0, 3)], name="D8")


# The degree-8 groups act on the nonzero vectors of GF(3)^2 listed as
# (1,0),(2,0),(0,1),(1,1),(2,1),(0,2),(1,2),(2,2); the generators below
# are the permutations induced by unimodular matrices.
SL23_A = (0, 1, 3, 4, 2, 7, 5, 6)  # [[1,1],[0,1]]
SL23_B = (2, 5, 1, 4, 7, 0, 3, 6)  # [[0,2],[1,0]]
Q8_C = (3, 7, 6, 1, 2, 4, 5, 0)  # [[1,1],[1,2]]


def quaternion8():
    return PermutationGroup(8, [SL23_B, Q8_C], name="Q8")


def sl_2_3():
    return PermutationGroup(8, [SL23_A, SL23_B], name="SL(2,3)")


def frobenius20():
    return PermutationGroup(5, [(1, 2, 3, 4, 0), (1, 3, 0, 2, 4)], name="F20")


def frobenius21():
    return PermutationGroup(
        7, [(1, 2, 3, 4, 5, 6, 0), (1, 3, 5, 0, 2, 4, 6)], name="F21"
    )


def c3_wreath_c2():
    gens = [
        (1, 2, 0, 3, 4, 5),
        (0, 1, 2, 4, 5, 3),
        (3, 4, 5, 0, 1, 2),
    ]
    return PermutationGroup(6, gens, name="C3wrC2")


@pytest.fixture(scope="session")
def s3():
    return symmetric(3)


@pytest.fixture(scope="session")
def s4():
    return symmetric(4)


@pytest.fixture(scope="session")
def a4():
    return alternating(4)


@pytest.fixture(scope="session")
def a5():
    return alternating(5)


@pytest.fixture(scope="session")
def d8():
    return dihedral8()


@pytest.fixture(scope="session")
def q8():
    return quaternion8()


@pytest.fixture(scope="session")
def sl23():
    return sl_2_3()
