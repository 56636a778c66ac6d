import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

import blockforge
from blockforge import catalog
from blockforge.groupfile import parse_group_file
from blockforge.permgroup import PermutationGroup

import oracles
from oracles import from_root_combination


def random_subgroup(rng, degree, n_gens):
    gens = []
    for _ in range(n_gens):
        img = list(range(degree))
        rng.shuffle(img)
        gens.append(tuple(img))
    return PermutationGroup(degree, gens)


def random_value(rng, e, terms, bound):
    """A seeded random value r_0 + sum of c_i zeta_e^(k_i) over `terms`
    roots, every coefficient drawn from [-bound, bound], built in one
    root list."""
    coefficients = [0] * e
    coefficients[0] = rng.randrange(-bound, bound + 1)
    for _ in range(terms):
        c, k = rng.randrange(-bound, bound + 1), rng.randrange(e)
        coefficients[k] += c
    return from_root_combination(e, coefficients)


def oracle_groups(families):
    """Every catalog group, the five benchmark groups, the given
    families and seeded random subgroups of S5 and S6, one at a time.

    After each group every cache is emptied: C2^5 alone has 374
    subgroups, and keeping them all would raise the peak memory of the
    whole suite.  No later test is handed the table or report section
    of an equal group under another name either."""
    bench = Path(__file__).parents[1] / "perfbench" / "groups"
    groups = [ent.load() for ent in catalog.entries()]
    groups += [parse_group_file(path) for path in sorted(bench.glob("*.grp"))]
    groups += families
    for seed in range(20):
        rng = random.Random(seed)
        groups.append(random_subgroup(rng, rng.choice((5, 6)), rng.choice((1, 2))))
    for G in groups:
        yield G
        blockforge.clear_caches()
        oracles._conjugations.cache_clear()


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


def dihedral(n):
    """The dihedral group of order 2n on the n vertices of a polygon."""
    rotation = tuple(range(1, n)) + (0,)
    reflection = tuple(-i % n for i in range(n))
    return PermutationGroup(n, [rotation, reflection], name=f"D{2 * n}")


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


def _from_cycles(n, *cycles):
    img = list(range(n))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            img[a] = b
    return tuple(img)


def elementary_abelian(p, k):
    """C_p^k, one p-cycle on each of k blocks of p points."""
    n = p * k
    gens = [_from_cycles(n, tuple(range(p * i, p * i + p))) for i in range(k)]
    return PermutationGroup(n, gens, name=f"C{p}^{k}")


def psl_2_7():
    """PSL(2,7) on the 7 points of the Fano plane."""
    gens = [_from_cycles(7, (0, 1, 2, 3, 4, 5, 6)), _from_cycles(7, (0, 1), (2, 5))]
    return PermutationGroup(7, gens, name="PSL(2,7)")


def s4_times_s3():
    gens = [
        _from_cycles(7, (0, 1)),
        _from_cycles(7, (0, 1, 2, 3)),
        _from_cycles(7, (4, 5)),
        _from_cycles(7, (4, 5, 6)),
    ]
    return PermutationGroup(7, gens, name="S4xS3")


def s4_times_s4():
    gens = [
        _from_cycles(8, (0, 1)),
        _from_cycles(8, (0, 1, 2, 3)),
        _from_cycles(8, (4, 5)),
        _from_cycles(8, (4, 5, 6, 7)),
    ]
    return PermutationGroup(8, gens, name="S4xS4")


def c2_wreath_s4():
    """C2 wr S4, the hyperoctahedral group of order 384, on four blocks
    of two points."""
    gens = [
        _from_cycles(8, (0, 1)),
        _from_cycles(8, (0, 2), (1, 3)),
        _from_cycles(8, (0, 2, 4, 6), (1, 3, 5, 7)),
    ]
    return PermutationGroup(8, gens, name="C2wrS4")


def c3_wreath_c3():
    gens = [
        _from_cycles(9, (0, 1, 2)),
        _from_cycles(9, (0, 3, 6), (1, 4, 7), (2, 5, 8)),
    ]
    return PermutationGroup(9, gens, name="C3wrC3")


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
