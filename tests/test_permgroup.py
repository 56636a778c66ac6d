import random
import re
from itertools import chain

import pytest

from blockforge import build_report, chartab, clear_caches, permgroup, perms
from blockforge.arith import p_part, prime_factors
from blockforge.chartab import (
    _class_column,
    character_table,
    is_p_solvable,
    normal_class_sets,
    normal_subgroups,
    p_core,
    p_prime_core,
)
from blockforge.correspond import coprime_setup
from blockforge.errors import DomainError, InternalCheckError
from blockforge.perms import identity, mult, order, power, right_factor
from blockforge.permgroup import (
    PermutationGroup,
    are_conjugate_subgroups,
    centralizer,
    group_from_elements,
    intersection,
    is_normal_in,
    normal_closure,
    normalizer,
    sylow_subgroup,
)

import oracles
from conftest import (
    alternating,
    c3_wreath_c2,
    cyclic,
    frobenius20,
    frobenius21,
    oracle_groups,
    random_subgroup,
    s4_times_s3,
    sl_2_3,
    symmetric,
)
from oracles import subgroups_of_order


def _seeded_generator_lists(rng, count):
    """Generator lists of degree 1 to 8 with 1 to 4 generators, each
    list with the identity or a repeated generator mixed in half the
    time."""
    for _ in range(count):
        degree = rng.randint(1, 8)
        gens = []
        for _ in range(rng.randint(1, 4)):
            img = list(range(degree))
            rng.shuffle(img)
            gens.append(tuple(img))
        if rng.random() < 0.5:
            gens.insert(rng.randrange(len(gens) + 1), identity(degree))
        if rng.random() < 0.5:
            gens.append(rng.choice(gens))
        yield degree, gens


def test_order_and_membership_match_closure_oracle():
    rng = random.Random(17)
    lists = list(_seeded_generator_lists(rng, 30))
    seeded = (PermutationGroup(d, gens) for d, gens in lists)
    for G in chain(oracle_groups([]), seeded):
        n = G.degree
        elems = oracles.mulclose(n, G.generators)
        assert G.order() == len(elems), G
        assert G.element_set() == elems, G
        assert G.elements() == tuple(sorted(elems)), G
        for _ in range(5):
            img = list(range(n))
            rng.shuffle(img)
            x = tuple(img)
            assert G.contains(x) == (x in elems), (G, x)
            assert G.contains(img) == (x in elems), (G, img)
            assert not G.contains(x + (n,)), (G, x)
            assert not G.contains(x[1:]), (G, x)
        assert not G.contains((0,) * (n + 1))
        if n > 1:
            assert not G.contains((0,) * n), G
        # the same group from a reversed generator list with the
        # identity, a repeat and a product of two elements added
        extra = rng.choice(G.elements()), rng.choice(G.elements())
        gens = list(reversed(G.generators)) + [identity(n), mult(*extra)]
        gens += gens[:1]
        K = PermutationGroup(n, gens)
        assert K == G and G == K, G
        assert hash(K) == hash(G), G
        if G.order() > 1:
            assert G != PermutationGroup(n, ())


def test_contains_rejects_non_permutations_and_non_members(a4):
    assert a4.contains((1, 2, 0, 3))
    assert not a4.contains((1, 0, 2, 3))  # odd
    assert not a4.contains((1, 1, 2, 3))  # not a permutation
    assert not a4.contains((0, 1, 2))  # wrong degree
    assert not a4.contains((0, 1, 2, 3, 4))


def test_s4_classes_frozen():
    G = symmetric(4)
    assert G.order() == 24
    data = [(c.element_order, c.size) for c in G.conjugacy_classes()]
    assert data == [(1, 1), (2, 3), (2, 6), (3, 8), (4, 6)]


def test_a5_classes_frozen():
    G = alternating(5)
    assert G.order() == 60
    data = [(c.element_order, c.size) for c in G.conjugacy_classes()]
    assert data == [(1, 1), (2, 15), (3, 20), (5, 12), (5, 12)]


def test_classes_match_brute_force():
    rng = random.Random(23)
    for _ in range(10):
        G = random_subgroup(rng, 6, 2)
        got = {frozenset(G.class_elements(i)) for i in range(len(G.conjugacy_classes()))}
        want = set(oracles.brute_classes(G.element_set()))
        assert got == want


def test_class_reps_are_lex_minimal_and_identity_first():
    G = symmetric(4)
    classes = G.conjugacy_classes()
    assert classes[0].representative == identity(4)
    for c in classes:
        assert c.representative == min(G.class_elements(c.index))
        assert order(c.representative) == c.element_order


def test_class_index_roundtrip(s4):
    for c in s4.conjugacy_classes():
        for x in s4.class_elements(c.index):
            assert s4.class_index(x) == c.index
    with pytest.raises(DomainError):
        s4.class_index((1, 0, 2, 3, 4))


def test_centralizer_sizes(s3, s4):
    assert centralizer(s3, ((1, 2, 0),)).order() == 3
    assert centralizer(s4, ((1, 0, 2, 3),)).order() == 4
    assert centralizer(s4, ((1, 0, 2, 3), (0, 1, 3, 2))).order() == 4
    assert centralizer(s4, ()) == s4
    for c in s4.conjugacy_classes():
        assert centralizer(s4, (c.representative,)).order() * c.size == 24


def test_centralizer_rejects_an_entry_that_is_not_a_permutation(s4):
    for x in ((1, 0, 2), (0, 0, 1, 2), (1, 0, 2, 3, 4)):
        message = re.escape(f"not a permutation of degree 4: {x}")
        with pytest.raises(DomainError, match=message):
            centralizer(s4, ((1, 0, 2, 3), x))


def test_normalizer_of_v4_in_a5(a5):
    v4 = PermutationGroup(5, [(1, 0, 3, 2, 4), (2, 3, 0, 1, 4)])
    assert v4.order() == 4
    assert normalizer(a5, v4).order() == 12


def test_normal_closure_and_normality(s4):
    assert normal_closure(s4, ((1, 0, 2, 3),)).order() == 24
    v4 = normal_closure(s4, ((1, 0, 3, 2),))
    assert v4.order() == 4
    assert is_normal_in(v4, s4)
    transposition_group = PermutationGroup(4, [(1, 0, 2, 3)])
    assert not is_normal_in(transposition_group, s4)


def test_sylow_subgroups(s4, a5):
    assert sylow_subgroup(s4, 2).order() == 8
    assert sylow_subgroup(s4, 3).order() == 3
    assert sylow_subgroup(a5, 2).order() == 4
    assert sylow_subgroup(a5, 3).order() == 3
    assert sylow_subgroup(a5, 5).order() == 5
    assert sylow_subgroup(a5, 7).order() == 1


def test_sylow_is_actual_subgroup(a5):
    P = sylow_subgroup(a5, 2)
    assert P.is_subgroup_of(a5)
    for x in P.elements():
        assert order(x) in (1, 2, 4)


def test_cores(s4, a4, a5):
    assert p_core(s4, 2).order() == 4
    assert p_core(s4, 3).order() == 1
    assert p_prime_core(s4, 3).order() == 4
    assert p_core(a4, 2).order() == 4
    assert p_core(a5, 2).order() == 1
    assert p_prime_core(a5, 2).order() == 1


def test_p_solvability(s4, a4, a5):
    for p in (2, 3):
        assert is_p_solvable(s4, p)
        assert is_p_solvable(a4, p)
    assert not is_p_solvable(a5, 2)
    assert not is_p_solvable(a5, 3)
    assert not is_p_solvable(a5, 5)
    assert is_p_solvable(a5, 7)


def test_p_solvability_matches_composition_factors():
    rng = random.Random(41)
    for _ in range(8):
        G = random_subgroup(rng, 4, 2)
        for p in (2, 3):
            assert is_p_solvable(G, p) == oracles.is_p_solvable_by_factors(
                G.element_set(), p
            )


def test_subgroup_classes_of_prime_power_order(s4, a5):
    classes = subgroups_of_order(s4, 4)
    assert len(classes) == 3
    orders = sorted(sorted(order(x) for x in H.elements()) for H in classes)
    assert orders == [[1, 2, 2, 2], [1, 2, 2, 2], [1, 2, 4, 4]]
    assert len(subgroups_of_order(a5, 4)) == 1
    assert len(subgroups_of_order(s4, 8)) == 1


def test_subgroup_class_members_are_conjugate(s4):
    for H in subgroups_of_order(s4, 2):
        K = H
        for g in s4.elements()[:5]:
            K2 = PermutationGroup(4, [oracles.oconj(g, x) for x in K.generators])
            assert are_conjugate_subgroups(s4, H, K2)


def test_intersection(s4):
    P = sylow_subgroup(s4, 2)
    A = group_from_elements(4, tuple(x for x in s4.elements() if _sign(x) == 1))
    assert intersection(P, A).order() == 4
    assert intersection(P, P).order() == 8


def _sign(p):
    seen = [False] * len(p)
    sgn = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sgn = -sgn
    return sgn


def test_normal_subgroups_of_s4(s4):
    ns = normal_subgroups(s4)
    assert [N.order() for N in ns] == [1, 4, 12, 24]
    for N in ns:
        assert is_normal_in(N, s4)


def test_normal_subgroups_of_a5(a5):
    assert [N.order() for N in normal_subgroups(a5)] == [1, 60]


def test_kernel_closure_gate_names_the_group(monkeypatch):
    G = symmetric(4)
    transpositions = next(
        c.index for c in G.conjugacy_classes() if c.element_order == 2 and c.size == 6
    )
    # a set of classes that is no normal subgroup: the identity and the
    # transpositions close to all of S4
    message = re.escape(
        f"normal closure of a kernel intersection of {G!r} has order 24,"
        " not the 7 elements of its classes"
    )
    with monkeypatch.context() as patch:
        patch.setattr(chartab, "kernel_classes", lambda G: (frozenset({0, transpositions}),))
        patch.setattr(chartab, "normal_class_sets", normal_class_sets.__wrapped__)
        with pytest.raises(InternalCheckError, match=message):
            normal_subgroups(G)
    # the true kernels, with a closure that stays trivial
    monkeypatch.setattr(chartab, "normal_closure", lambda G, seeds: PermutationGroup(4, ()))
    message = re.escape(f"normal closure of a kernel intersection of {G!r} has order 1")
    with pytest.raises(InternalCheckError, match=message):
        normal_subgroups(G)


def test_core_largest_set_gate_names_the_group_and_prime(monkeypatch):
    G = symmetric(4)
    # classes of S4: 1, 3 double transpositions, 6 transpositions, ...;
    # {1} + double transpositions (order 4) and {1} + transpositions
    # (order 7) are both prime to 3 and neither contains the other
    sizes = [c.size for c in G.conjugacy_classes()]
    assert sizes[:3] == [1, 3, 6]
    sets = (frozenset({0}), frozenset({0, 1}), frozenset({0, 2}))
    monkeypatch.setattr(chartab, "normal_class_sets", lambda G: sets)
    message = re.escape(
        f"no largest normal class set for O_p' of {G!r} at p = 3:"
        " the one of order 7 misses 1 of the 3 accepted"
    )
    with pytest.raises(InternalCheckError, match=message):
        p_prime_core(G, 3)


def test_coset_gate_names_the_group(monkeypatch):
    # every product forged to its right factor: the coset H (2 3 4 1) of
    # H = <(1 2)> is listed as that one element twice
    monkeypatch.setattr(permgroup, "right_factor", lambda q: lambda p: q)
    message = re.escape(
        "cosets overlap while enumerating 'S4' of degree 4:"
        " 4 coset elements, 3 distinct"
    )
    with pytest.raises(InternalCheckError, match=message):
        symmetric(4)


def test_sylow_growth_gate_names_the_group_and_prime(monkeypatch):
    G = symmetric(4)
    # a normalizer that is P itself holds no p-element outside P; the
    # growth reads N_G(P) as the stabilizer of P's element set
    monkeypatch.setattr(
        permgroup, "_stabilizer", lambda G, P, moves, elems, factors: ({}, P)
    )
    message = re.escape(
        f"Sylow growth stalled below the p-part on {G!r} at p = 2: order 2 of 8"
    )
    with pytest.raises(InternalCheckError, match=message):
        sylow_subgroup.__wrapped__(G, 2)


def test_exponent(s4, a5):
    assert s4.exponent() == 12
    assert a5.exponent() == 30
    assert cyclic(6).exponent() == 6


def test_group_equality_and_hash(s4):
    P1 = sylow_subgroup(s4, 2)
    P2 = group_from_elements(4, P1.elements())
    assert P1 == P2
    assert hash(P1) == hash(P2)
    assert P1 != sylow_subgroup(s4, 3)


def test_degrees_one_and_two_keep_their_results():
    # the degrees where a bare itemgetter would return a scalar or fail
    S1 = PermutationGroup(1, ())
    assert S1.elements() == ((0,),)
    assert S1.conjugacy_classes() == (permgroup.ConjugacyClass(0, (0,), 1, 1),)
    assert _class_column(S1, 0, 0) == {0: 1}
    table = character_table.__wrapped__(S1)
    assert [list(map(str, row)) for row in table.values] == [["1"]]
    assert table.coords == (((1,),),)
    C2 = PermutationGroup(2, [(1, 0)])
    assert C2.elements() == ((0, 1), (1, 0))
    assert C2.conjugacy_classes() == (
        permgroup.ConjugacyClass(0, (0, 1), 1, 1),
        permgroup.ConjugacyClass(1, (1, 0), 1, 2),
    )
    assert [[_class_column(C2, i, k) for k in range(2)] for i in range(2)] == [
        [{0: 1}, {1: 1}],
        [{1: 1}, {0: 1}],
    ]
    table = character_table.__wrapped__(C2)
    assert [list(map(str, row)) for row in table.values] == [["1", "1"], ["1", "-1"]]
    assert table.coords == (((1,), (1,)), ((1,), (-1,)))


def test_conjugacy_class_is_an_immutable_record():
    c = permgroup.ConjugacyClass(index=1, representative=(1, 0), size=1, element_order=2)
    assert c == permgroup.ConjugacyClass(1, (1, 0), 1, 2)
    assert hash(c) == hash(permgroup.ConjugacyClass(1, (1, 0), 1, 2))
    assert repr(c) == (
        "ConjugacyClass(index=1, representative=(1, 0), size=1, element_order=2)"
    )
    with pytest.raises(AttributeError):
        c.size = 2


def test_hot_loops_make_no_mult_calls(monkeypatch):
    # a loop with one fixed factor applies a map built once
    # (perms.right_factor); mult is for one-off products
    P = sylow_subgroup(symmetric(6), 2)
    calls = []

    def counting_mult(p, q):
        calls.append((p, q))
        return mult(p, q)

    for module in (perms, permgroup, chartab):
        monkeypatch.setattr(module, "mult", counting_mult, raising=False)
    G = PermutationGroup(6, symmetric(6).generators)
    assert len(G.elements()) == 720
    classes = G.conjugacy_classes()
    for i, c in enumerate(classes):
        columns = [_class_column(G, i, k) for k in range(len(classes))]
        assert [sum(col.values()) for col in columns] == [c.size] * len(classes)
    assert normalizer.__wrapped__(G, P) == P
    assert calls == []


def test_trivial_group():
    T = PermutationGroup(5, ())
    assert T.order() == 1
    assert T.contains(identity(5))


def test_degree_mismatch_raises():
    with pytest.raises(DomainError):
        PermutationGroup(4, [(1, 0, 2)])


def test_bad_generator_raises():
    with pytest.raises(DomainError):
        PermutationGroup(3, [(0, 0, 1)])


def _cyclic_and_sylow_subgroups(G):
    """The subgroup of each class representative, then each Sylow
    subgroup."""
    classes = G.conjugacy_classes()
    subgroups = [PermutationGroup(G.degree, [c.representative]) for c in classes]
    return subgroups + [sylow_subgroup(G, p) for p in prime_factors(G.order())]


def test_subgroups_by_orbits_match_the_scans():
    for G in oracle_groups([]):
        subgroups = _cyclic_and_sylow_subgroups(G)
        for H in subgroups:
            for got, want in (
                (
                    centralizer(G, H.generators),
                    oracles.centralizer_by_scan(G, H.generators),
                ),
                (normalizer(G, H), oracles.normalizer_by_scan(G, H)),
            ):
                assert got.element_set() == want, (G, H)
                want = oracles.generators_by_closure(G.degree, want)
                assert got.generators == want, (G, H)
        # each subgroup against the others of its order, and against its
        # conjugate by each generator of G, which is often another subgroup
        moved = [
            PermutationGroup(G.degree, [oracles.oconj(g, x) for x in H.generators])
            for H in subgroups
            for g in G.generators
        ]
        for H in subgroups:
            for K in subgroups + moved:
                if K.order() == H.order():
                    want = oracles.conjugate_by_scan(G, H, K)
                    assert are_conjugate_subgroups(G, H, K) == want, (G, H, K)


def test_orbit_walk_meets_orbit_stabilizer():
    # Schreier's lemma makes the walk's stabilizer the whole stabilizer,
    # so |orbit| |S| = |G|; checked here rather than in the package.  The
    # walk runs on element sets under conjugation, and on the row indices
    # of Irr(N) under the character action, seeded with N
    for G in oracle_groups([]):
        moves = permgroup._by_conjugation(G)
        for H in _cyclic_and_sylow_subgroups(G):
            hset = H.element_set()
            seed = list(hset), list(map(right_factor, H.generators))
            orbit, found = permgroup._stabilizer(G, hset, moves, *seed)
            want = {frozenset(oracles.oconj(g, x) for x in hset) for g in G.elements()}
            assert set(orbit) == want, (G, H)
            assert len(orbit) * len(found) == G.order(), (G, H)
            for v, (t, t_inverse) in orbit.items():
                assert frozenset(oracles.oconj(oracles.oinv(t), x) for x in hset) == v
                assert oracles.omult(t, t_inverse) == identity(G.degree)
        for N in normal_subgroups(G):
            rows = character_table(N).values
            row_of = {v: k for k, v in enumerate(rows)}
            moves = [(g, a.__getitem__) for g, a in chartab.character_action(G, N)]
            for k, theta in enumerate(rows):
                seed = list(N.element_set()), list(map(right_factor, N.generators))
                orbit, found = permgroup._stabilizer(G, k, moves, *seed)
                want = {
                    row_of[tuple(theta[j] for j in a)]
                    for _, a in oracles._conjugations(G, N)
                }
                assert set(orbit) == want, (G, N, k)
                assert len(orbit) * len(found) == G.order(), (G, N, k)
                for v, (t, t_inverse) in orbit.items():
                    moved = tuple(theta[j] for j in oracles._conjugation(N, t))
                    assert moved == rows[v], (G, N, k)
                    assert oracles.omult(t, t_inverse) == identity(G.degree)


def test_right_regular_matches_permutation_products():
    identity_and_repeat = PermutationGroup(
        4, [(0, 1, 2, 3), (1, 0, 2, 3), (1, 2, 3, 0), (1, 0, 2, 3)]
    )
    groups = [
        PermutationGroup(1, []),
        cyclic(6),
        symmetric(4),
        sl_2_3(),
        s4_times_s3(),
        identity_and_repeat,
    ]
    for G in groups:
        elements = G.elements()
        position, right, inv = permgroup._right_regular(G)
        assert position == {x: i for i, x in enumerate(elements)}
        n = len(elements)
        assert len(right) == len(inv) == n, G
        for b in range(n):
            assert len(right[b]) == n
            for a in range(n):
                assert right[b][a] == position[mult(elements[a], elements[b])]
        assert all(right[inv[a]][a] == 0 for a in range(n)), G


def test_sylow_chains_of_s7_match_the_scans():
    # each step of the growth adjoins the p-part of the first element of
    # N_G(P), in sorted order, whose p-part lies outside P
    G = symmetric(7)
    for p in (2, 3, 5, 7):
        S = sylow_subgroup(G, p)
        assert S.order() == p_part(G.order(), p)
        N = G.element_set()
        for i, y in enumerate(S.generators):
            P = oracles.mulclose(7, S.generators[:i])
            parts = (power(x, order(x) // p_part(order(x), p)) for x in sorted(N))
            assert next(z for z in parts if z not in P) == y, (p, i)
            P = PermutationGroup(7, S.generators[: i + 1])
            N = oracles.normalizer_by_scan(G, P)
            got = normalizer(G, P)
            assert got.element_set() == N, (p, i)
            assert got.generators == oracles.generators_by_closure(7, N), (p, i)


def test_centralizers_of_outside_actions_match_the_scans():
    # a Sylow subgroup or core acting on the p'-core from outside it, as
    # the Glauberman correspondence reads C_L(Q)
    cases = (
        (c3_wreath_c2(), 2),
        (symmetric(4), 3),
        (sl_2_3(), 3),
        (frobenius20(), 2),
        (frobenius21(), 3),
        (s4_times_s3(), 2),
    )
    for G, p in cases:
        L, Q = coprime_setup(G, p)
        assert L.order() > 1 and not Q.is_subgroup_of(L), (G, p)
        C = centralizer(L, Q.generators)
        want = oracles.centralizer_by_scan(L, Q.generators)
        assert C.element_set() == want, (G, p)
        want = oracles.generators_by_closure(G.degree, want)
        assert C.generators == want, (G, p)


def test_cold_reports_build_each_group_once(monkeypatch):
    # every grown group extends one element set by Dimino steps and is
    # built once on its kept generators; when each kept element rebuilt
    # the group from scratch, these reports built 72 and 34 groups, and
    # 25 and 13 when each defect class built its cyclic group to key the
    # centralizer
    init = PermutationGroup.__init__
    for G, p, bound in ((s4_times_s3(), 2, 21), (symmetric(6), 3, 10)):
        built = []

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        clear_caches()
        monkeypatch.setattr(PermutationGroup, "__init__", counting)
        build_report(G, p)
        monkeypatch.setattr(PermutationGroup, "__init__", init)
        clear_caches()
        assert len(built) <= bound, (G, p, len(built))
