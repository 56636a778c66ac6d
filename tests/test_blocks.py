import copy
import random
import re
from functools import lru_cache

import pytest

from blockforge import blocks, catalog
from blockforge.arith import prime_factors
from blockforge.blocks import (
    BlockSet,
    block_data,
    block_idempotent,
    brauer_correspondent,
    brauer_image_is_nonzero,
    covered_blocks,
    induced_block,
    induced_central,
    p_regular_classes,
    osima_partition,
)
from blockforge.chartab import character_table, normal_subgroups
from blockforge.cyclotomic import Cyclotomic
from blockforge.errors import DomainError, InternalCheckError
from blockforge.finitefield import build_reduction
from blockforge.permgroup import (
    PermutationGroup,
    are_conjugate_subgroups,
    normalizer,
    sylow_subgroup,
)

from conftest import (
    alternating,
    c3_wreath_c3,
    cyclic,
    elementary_abelian,
    oracle_groups,
    random_subgroup,
    s4_times_s4,
    symmetric,
)
import oracles
from oracles import defect_group_by_subgroup_search


def degree_multisets(bs):
    return sorted(sorted(b.degrees()) for b in bs.blocks)


def test_s4_p2_single_block_of_full_defect(s4):
    bs = block_data(s4, 2)
    assert len(bs.blocks) == 1
    b = bs.blocks[0]
    assert sorted(b.degrees()) == [1, 1, 2, 3, 3]
    assert b.defect == 3
    assert b.dim == 24
    assert 0 in b.char_indices


def test_s4_p2_idempotent_is_the_identity(s4):
    bs = block_data(s4, 2)
    coeffs = block_idempotent(bs.blocks[0])
    zero = (0,) * bs.rmap.width
    assert coeffs[0] == (1,) + zero[1:]
    assert all(c == zero for c in coeffs[1:])


def test_a5_p2_partition(a5):
    bs = block_data(a5, 2)
    assert degree_multisets(bs) == [[1, 3, 3, 5], [4]]
    principal = bs.blocks[0]
    assert 0 in principal.char_indices
    assert sorted(principal.degrees()) == [1, 3, 3, 5]
    assert principal.defect == 2
    other = bs.blocks[1]
    assert other.defect == 0
    assert other.dim == 16
    assert principal.dim == 44


def test_a5_p2_defect_groups(a5):
    bs = block_data(a5, 2)
    D = bs.blocks[0].defect_group()
    assert D.order() == 4
    assert sorted(c.element_order for c in D.conjugacy_classes()) == [1, 2, 2, 2]
    assert bs.blocks[1].defect_group().order() == 1


def test_a5_p2_heights(a5):
    bs = block_data(a5, 2)
    principal = bs.blocks[0]
    assert principal.heights == (0, 0, 0, 0)
    assert sorted(principal.height_zero_degrees()) == [1, 3, 3, 5]
    other = bs.blocks[1]
    assert other.heights == (0,)
    assert other.height_zero_degrees() == (4,)


def test_sl23_p3_defects(sl23):
    bs = block_data(sl23, 3)
    assert sorted(b.defect for b in bs.blocks) == [0, 1, 1]
    dims = sorted(b.dim for b in bs.blocks)
    assert sum(dims) == 24
    defect_zero = [b for b in bs.blocks if b.defect == 0]
    assert len(defect_zero) == 1
    assert defect_zero[0].degrees() == (3,)


def test_sl23_p3_defect_groups(sl23):
    bs = block_data(sl23, 3)
    for b in bs.blocks:
        D = b.defect_group()
        assert D.order() == 3**b.defect


def test_a4_p2_single_block(a4):
    bs = block_data(a4, 2)
    assert len(bs.blocks) == 1
    b = bs.blocks[0]
    assert sorted(b.degrees()) == [1, 1, 1, 3]
    assert b.defect == 2
    assert b.dim == 12
    assert sorted(b.height_zero_degrees()) == [1, 1, 1, 3]


def test_coprime_prime_gives_singleton_blocks(s4):
    bs = block_data(s4, 5)
    assert len(bs.blocks) == 5
    for b in bs.blocks:
        assert b.defect == 0
        assert len(b.char_indices) == 1


def test_blocks_ordered_principal_first(a5, sl23):
    for G, p in ((a5, 2), (sl23, 3)):
        bs = block_data(G, p)
        assert 0 in bs.blocks[0].char_indices
        firsts = [min(b.char_indices) for b in bs.blocks]
        assert firsts == sorted(firsts)


def test_block_dims_sum_to_group_order():
    for G, p in (
        (symmetric(4), 2),
        (symmetric(4), 3),
        (alternating(5), 2),
        (alternating(5), 3),
        (alternating(5), 5),
        (cyclic(6), 2),
        (cyclic(6), 3),
    ):
        bs = block_data(G, p)
        assert sum(b.dim for b in bs.blocks) == G.order()


def test_central_character_values_are_class_sums(s4):
    chi = oracles.characters(s4)[0]
    omega = oracles.central_character(chi)
    sizes = [c.size for c in s4.conjugacy_classes()]
    assert [v.integer_value() for v in omega] == sizes


def test_p_regular_classes_s4(s4):
    assert p_regular_classes(s4, 2) == (0, 3)
    assert p_regular_classes(s4, 3) == (0, 1, 2, 4)


def test_defect_class_method_agrees(s4, a5, sl23, a4):
    for G, p in (
        (s4, 2),
        (s4, 3),
        (a5, 2),
        (a5, 3),
        (a5, 5),
        (sl23, 2),
        (sl23, 3),
        (a4, 2),
        (a4, 3),
    ):
        bs = block_data(G, p)
        for b in bs.blocks:
            via_search = defect_group_by_subgroup_search(b)
            assert are_conjugate_subgroups(G, b.defect_group(), via_search)


def test_defect_groups_of_random_subgroups_match_subgroup_search():
    # 40 seeded subgroups of S5 and S6, orders 2 to 720, every prime
    for seed in range(40):
        rng = random.Random(seed)
        degree = rng.choice((5, 6))
        G = random_subgroup(rng, degree, rng.choice((1, 2)))
        for p in prime_factors(G.order()):
            for b in block_data(G, p).blocks:
                D = b.defect_group()
                assert D.order() == p**b.defect, (seed, p, b.index)
                via_search = defect_group_by_subgroup_search(b)
                assert are_conjugate_subgroups(G, D, via_search), (seed, p, b.index)
                assert brauer_correspondent(b).defect == b.defect, (seed, p)


def _uncached_blocks(G, p):
    """A BlockSet outside the block_data cache, safe to corrupt."""
    return BlockSet(G, p, build_reduction(G.exponent(), p))


def test_defect_group_needs_a_p_regular_defect_class(a5):
    bs = _uncached_blocks(a5, 2)
    b = bs.blocks[0]
    regular = p_regular_classes(a5, 2)
    b.reduced_central = tuple(
        (0,) * bs.rmap.width if k in regular else v
        for k, v in enumerate(b.reduced_central)
    )
    message = re.escape(f"no p-regular defect class on {a5!r} at p = 2, block 0")
    with pytest.raises(InternalCheckError, match=message):
        b.defect_group()


def test_brauer_image_gate_names_group_prime_and_block(sl23):
    bs = _uncached_blocks(sl23, 3)
    b = bs.blocks[1]
    assert b.defect == 1
    b.idempotent = ((0,) * bs.rmap.width,) * len(b.idempotent)
    message = re.escape(
        f"Brauer image of the idempotent vanishes at the defect group"
        f" on {sl23!r} at p = 3, block 1"
    )
    with pytest.raises(InternalCheckError, match=message):
        b.defect_group()


def test_idempotents_are_orthogonal(a5):
    bs = block_data(a5, 2)
    e0 = block_idempotent(bs.blocks[0])
    e1 = block_idempotent(bs.blocks[1])
    F = oracles.ResidueField.of_map(bs.rmap)
    product = oracles.class_algebra_product_by_elements(a5, e0, e1, F)
    assert all(c == F.zero for c in product)


def test_brauer_image_vanishes_above_defect_group(a5):
    bs = block_data(a5, 2)
    defect_zero = bs.blocks[1]
    V = bs.blocks[0].defect_group()
    assert not brauer_image_is_nonzero(defect_zero, V)
    assert brauer_image_is_nonzero(bs.blocks[0], V)


def test_induction_from_sylow_normalizer_s4(s4):
    P = sylow_subgroup(s4, 2)
    assert normalizer(s4, P) == P
    local = block_data(P, 2)
    assert len(local.blocks) == 1
    induced = induced_block(local.blocks[0], s4)
    assert induced is not None
    assert induced == block_data(s4, 2).blocks[0]


def test_induction_a4_to_a5(a5):
    V = block_data(a5, 2).blocks[0].defect_group()
    A4 = normalizer(a5, V)
    assert A4.order() == 12
    local = block_data(A4, 2)
    induced = induced_block(local.blocks[0], a5)
    assert induced == block_data(a5, 2).blocks[0]


def test_brauer_correspondent_a5_principal(a5):
    bs = block_data(a5, 2)
    principal = bs.blocks[0]
    b = brauer_correspondent(principal)
    assert b.blockset.group.order() == 12
    assert sorted(b.degrees()) == [1, 1, 1, 3]
    assert b.defect == 2
    assert induced_block(b, a5) == principal


def test_brauer_correspondent_defect_zero_is_itself(a5):
    bs = block_data(a5, 2)
    defect_zero = bs.blocks[1]
    assert brauer_correspondent(defect_zero) == defect_zero


def test_brauer_correspondent_s4(s4):
    bs = block_data(s4, 2)
    b = brauer_correspondent(bs.blocks[0])
    assert b.blockset.group.order() == 8
    assert b.defect == 3
    assert sorted(b.height_zero_degrees()) == [1, 1, 1, 1]


def test_brauer_correspondent_sl23_p3(sl23):
    bs = block_data(sl23, 3)
    principal = bs.blocks[0]
    b = brauer_correspondent(principal)
    H = b.blockset.group
    assert H.order() % 3 == 0
    assert b.defect == 1
    assert induced_block(b, sl23) == principal


def test_covered_blocks_s4_over_a4(s4):
    bs = block_data(s4, 2)
    A4 = [N for N in normal_subgroups(s4) if N.order() == 12][0]
    covered = covered_blocks(bs.blocks[0], A4)
    assert len(covered) == 1
    assert sorted(covered[0].degrees()) == [1, 1, 1, 3]


def test_covered_blocks_requires_normal(s4):
    bs = block_data(s4, 2)
    C = cyclic_subgroup_of_s4()
    with pytest.raises(DomainError):
        covered_blocks(bs.blocks[0], C)


def cyclic_subgroup_of_s4():
    return PermutationGroup(4, [(1, 0, 2, 3)])


def test_partition_stable_under_larger_conductor(a4, a5):
    small = block_data(a4, 2)
    big = BlockSet(a4, 2, build_reduction(a5.exponent(), 2))
    assert [b.char_indices for b in small.blocks] == [
        b.char_indices for b in big.blocks
    ]
    assert small.rmap.e == 6
    assert big.rmap.e == 30


def test_induced_central_lands_in_the_target_field(s4, a5):
    # A4 = N_A5(V4) at 2: A4's own map lands in GF(2)[x]/(Phi_3), of
    # width 2, A5's in GF(2)[x]/(Phi_15), of width phi(15) = 8.
    # Induction reduces under A5's map alone, so every entry is a tuple
    # of length 8, and it finds A5's principal block
    target = block_data(a5, 2)
    a4 = normalizer(a5, target.blocks[0].defect_group())
    assert a4.order() == 12
    assert block_data(a4, 2).rmap.width == 2
    assert target.rmap.width == 8
    for b in block_data(a4, 2).blocks:
        assert all(len(v) == 8 for v in induced_central(b, a5))
        assert induced_block(b, a5) is target.blocks[0]
    # C4 <= S4 at 2: the classes of r and r^3 fuse into the 4-cycles, so
    # lambda^G sums 1 + 1 there, which is 0 mod 2
    c4 = PermutationGroup(4, [(1, 2, 3, 0)])
    values = induced_central(block_data(c4, 2).blocks[0], s4)
    assert all(len(v) == 2 and set(v) <= {0, 1} for v in values)
    assert sorted(values) == [(0, 0)] * 3 + [(1, 0)] * 2


def test_blocks_of_random_subgroups_need_no_common_map():
    # 40 seeded subgroups of S5 and S6 at every prime: the partition is
    # the same under the group's own map and under the map at conductor
    # 60, a multiple of every exponent here; and inducing a same-defect
    # block of N_G(D) through the class fusion agrees with the
    # element-walking oracle on that normalizer's blocks built under
    # G's map.
    for seed in range(40):
        rng = random.Random(seed)
        degree = rng.choice((5, 6))
        G = random_subgroup(rng, degree, rng.choice((1, 2)))
        for p in prime_factors(G.order()):
            bs = block_data(G, p)
            wide = BlockSet(G, p, build_reduction(60, p))
            assert [b.char_indices for b in bs.blocks] == [
                b.char_indices for b in wide.blocks
            ], (seed, p)
            under_g = {}
            for B in bs.blocks:
                N = normalizer(G, B.defect_group())
                if N not in under_g:
                    under_g[N] = BlockSet(N, p, bs.rmap)
                for b in block_data(N, p).blocks:
                    if b.defect != B.defect:
                        continue
                    twin = under_g[N].block_of(b.char_indices[0])
                    assert twin.char_indices == b.char_indices, (seed, p)
                    expected = oracles.induced_central(twin, G)
                    assert induced_central(b, G) == expected, (seed, p, B.index)


def test_covered_blocks_sl23_over_q8(sl23, q8):
    bs = block_data(sl23, 3)
    principal = bs.blocks[0]
    covered = covered_blocks(principal, q8)
    assert len(covered) >= 1
    local = block_data(q8, 3)
    assert all(b in local.blocks for b in covered)


def test_covered_blocks_match_the_scan_oracle():
    # every block, normal subgroup and prime; the oracle also checks
    # that the blocks it finds are one orbit under every element of G.
    # 43 of the 650 coverings hold more than one block
    cases = []
    for G in oracle_groups([]):
        for N in normal_subgroups(G):
            for p in prime_factors(G.order()):
                for B in block_data(G, p).blocks:
                    got = covered_blocks(B, N)
                    want = oracles.covered_blocks_by_scan(B, N)
                    assert sorted(got, key=lambda b: b.index) == list(want), (G, N, p)
                    cases.append(len(got) > 1)
    assert (len(cases), sum(cases)) == (650, 43)


def test_covered_blocks_hash_no_value_once_warm(monkeypatch, s4, a4, sl23, q8):
    # Once the character action of (G, N) is built, a covering walks
    # row indices and hashes no character value.
    cases = [(G, N, p) for G, N in ((s4, a4), (sl23, q8)) for p in (2, 3)]
    for G, N, p in cases:
        for B in block_data(G, p).blocks:
            covered_blocks(B, N)
    calls = []
    hash_value = Cyclotomic.__hash__

    def counted(self):
        calls.append(self)
        return hash_value(self)

    monkeypatch.setattr(Cyclotomic, "__hash__", counted)
    for G, N, p in cases:
        for B in block_data(G, p).blocks:
            covered_blocks(B, N)
    assert calls == []


def _corrupted_table(table, i, k):
    """A copy of the table whose first coordinate of row i at class k is
    raised by one; the table itself stays untouched."""
    rows = [list(row) for row in table.coords]
    x = rows[i][k]
    rows[i][k] = (x[0] + 1,) + x[1:]
    forged = copy.copy(table)
    forged.coords = tuple(map(tuple, rows))
    return forged


def test_central_character_gate_names_group_and_prime(monkeypatch, s4):
    # row 3 has degree 3; its value at the identity raised to 4 makes
    # omega(1) = 4/3
    table = character_table(s4)
    assert table.degrees[3] == 3
    forged = _corrupted_table(table, 3, 0)
    monkeypatch.setattr(
        blocks, "character_table", lambda H: forged if H == s4 else character_table(H)
    )
    message = re.escape(
        f"central character of row 3 is not integral on {s4!r} at p = 2"
    )
    with pytest.raises(InternalCheckError, match=message):
        _uncached_blocks(s4, 2)


def test_idempotent_gate_names_group_prime_and_block(s4):
    # S4 at 2 has one block; the trivial row raised by one at class 1
    # moves that class's coefficient sum from 0 to 1, which |S4|_2 = 8
    # does not divide
    bs = _uncached_blocks(s4, 2)
    bs.table = _corrupted_table(bs.table, 0, 1)
    b = bs.blocks[0]
    b.idempotent = None
    message = re.escape(
        f"idempotent coefficient is not p-local on {s4!r} at p = 2, block 0"
    )
    with pytest.raises(InternalCheckError, match=message):
        block_idempotent(b)


def test_osima_partition_matches_central_characters():
    # two routes to the partition: the table gate's partial sums at
    # element orders prime to p, and the reduced central characters
    cases = 0
    for G in oracle_groups([]):
        table = character_table(G)
        for p in prime_factors(G.order()):
            rmap = build_reduction(G.exponent(), p)
            buckets = {}
            for i in range(len(table.values)):
                lam = blocks._reduced_central(table, i, rmap, p)
                buckets.setdefault(lam, set()).add(i)
            want = {frozenset(c) for c in buckets.values()}
            assert osima_partition(table, p) == want, (G, p)
            cases += 1
    assert cases == 74


def test_sum_to_one_gate_fires_on_a_dropped_idempotent(monkeypatch, a5):
    # A5 at 2 has two blocks; with the defect-zero block's idempotent
    # forged to zero, the idempotents sum to the principal one, not to 1
    real = blocks.block_idempotent

    def forged(b):
        coeffs = real(b)
        return tuple((0,) * len(c) for c in coeffs) if b.index == 1 else coeffs

    monkeypatch.setattr(blocks, "block_idempotent", forged)
    message = re.escape(f"block idempotents do not sum to one on {a5!r} at p = 2")
    with pytest.raises(InternalCheckError, match=message):
        _uncached_blocks(a5, 2)


def test_osima_gate_fires_on_merged_central_characters(monkeypatch, a5):
    # one central character for every row merges A5's two 2-blocks into
    # one bucket; its idempotent is 1, so p-locality and the sum to one
    # both pass, and only the Osima comparison sees it
    monkeypatch.setattr(blocks, "_reduced_central", lambda table, i, rmap, p: ())
    message = re.escape(
        f"Osima's criterion disagrees with the central characters on {a5!r} at p = 2"
    )
    with pytest.raises(InternalCheckError, match=message):
        block_data.__wrapped__(a5, 2)


def test_osima_gate_fires_on_a_forged_embedded_row(monkeypatch, a5):
    # rows 0 (degree 1) and 3 (degree 4) lie in different 2-blocks of A5;
    # row 0's embedded value at the identity, which is 2-regular, raised
    # by one adds chi_3(1) = 4 to their sum mod Q and links them
    table = character_table(a5)
    assert [table.degrees[i] for i in (0, 3)] == [1, 4]
    assert table.inverted[3][0] == 4
    forged = copy.copy(table)
    row = table.weighted[0]
    forged.weighted = ((row[0] + 1,) + row[1:],) + table.weighted[1:]
    monkeypatch.setattr(blocks, "character_table", lambda G: forged)
    message = re.escape(
        f"Osima's criterion disagrees with the central characters on {a5!r} at p = 2"
    )
    with pytest.raises(InternalCheckError, match=message):
        _uncached_blocks(a5, 2)


def test_induction_miss_names_both_groups_and_prime(monkeypatch, a5):
    B = block_data(a5, 2).blocks[0]
    b = brauer_correspondent(B)
    H = b.blockset.group
    zero = (0,) * block_data(a5, 2).rmap.width
    monkeypatch.setattr(
        blocks, "induced_central", lambda b, G: (zero,) * len(G.conjugacy_classes())
    )
    message = re.escape(
        f"induced central character of block {b.index} of {H!r}"
        f" matches no block of {a5!r} at p = 2"
    )
    with pytest.raises(InternalCheckError, match=message):
        induced_block(b, a5)


def test_correspondent_gate_fires_when_no_local_block_induces_up(monkeypatch, a5):
    # block induction forged to match nothing: no block of N_G(D) then
    # induces to B, so B has no Brauer correspondent
    B = block_data(a5, 2).blocks[0]
    monkeypatch.setattr(blocks, "induced_block", lambda b, G: None)
    message = re.escape(
        f"Brauer correspondent not unique: 0 candidates on {a5!r} at p = 2, block 0"
    )
    with pytest.raises(InternalCheckError, match=message):
        brauer_correspondent(B)


def test_covering_gate_fires_when_the_action_fixes_every_row(monkeypatch, sl23, q8):
    # The 3-block of SL(2,3) holding its degree-3 character covers the
    # blocks of Q8's three nontrivial linear characters, which SL(2,3)
    # permutes in one orbit.  An action forged to fix every row of
    # Irr(Q8) leaves each of them in an orbit of its own.
    B = block_data(sl23, 3).block_of(character_table(sl23).degrees.index(3))
    assert len(covered_blocks(B, q8)) == 3
    every_row = tuple(range(len(character_table(q8).values)))
    fixed = tuple((g, every_row) for g in sl23.generators)
    monkeypatch.setattr(blocks, "character_action", lambda G, N: fixed)
    message = re.escape(
        f"covered blocks do not form a single orbit on {sl23!r} at p = 3,"
        f" block {B.index}"
    )
    with pytest.raises(InternalCheckError, match=message):
        covered_blocks(B, q8)


def test_block_layer_builds_no_cyclotomic_value(monkeypatch, s4, a5, sl23):
    cases = [(G, p) for G in (s4, a5, sl23) for p in prime_factors(G.order())]
    for G, p in cases:
        for B in block_data(G, p).blocks:
            character_table(brauer_correspondent(B).blockset.group)
    # fresh block data over the tables built above
    monkeypatch.setattr(
        blocks, "block_data", lru_cache(maxsize=None)(block_data.__wrapped__)
    )
    built = []
    init = Cyclotomic.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Cyclotomic, "__init__", counting_init)
    for G, p in cases:
        for B in blocks.block_data(G, p).blocks:
            block_idempotent(B)
            brauer_correspondent(B)
    assert built == []


def test_blocks_match_cyclotomic_oracle():
    # central characters and idempotents from integer row coordinates
    # against the same built value by value in cyclotomic arithmetic,
    # each reduced at its minimal conductor
    families = [
        elementary_abelian(2, 5),
        sylow_subgroup(s4_times_s4(), 2),
        c3_wreath_c3(),
    ]
    cases = 0
    for G in oracle_groups(families):
        for p in prime_factors(G.order()):
            bs = _uncached_blocks(G, p)
            centrals, idempotents = oracles.blocks_by_cyclotomic_values(bs)
            for b, want in zip(bs.blocks, idempotents):
                for i in b.char_indices:
                    assert centrals[i] == b.reduced_central, (G, p, i)
                assert block_idempotent(b) == want, (G, p, b.index)
            assert len(set(centrals)) == len(bs.blocks), (G, p)
            cases += 1
    assert cases == 77


def test_integer_field_loops_match_element_oracle():
    # reduce accumulates integer lists and the oracle sums one field
    # element per term, on every row coordinate of the catalog; the
    # oracle's class-algebra product checks e_u e_v = delta_uv e_u on
    # every pair of block idempotents, which the package proves without
    # a product
    cases = 0
    for ent in catalog.entries():
        G = ent.load()
        for p in ent.primes:
            bs = block_data(G, p)
            rmap = bs.rmap
            for row in bs.table.coords:
                for c, x in zip(G.conjugacy_classes(), row):
                    want = oracles.reduce_by_elements(rmap, x, c.element_order)
                    assert rmap.reduce(x, c.element_order) == want, (G, p)
            idempotents = [block_idempotent(b) for b in bs.blocks]
            F = oracles.ResidueField.of_map(rmap)
            zero = (F.zero,) * len(G.conjugacy_classes())
            for u in idempotents:
                for v in idempotents:
                    product = oracles.class_algebra_product_by_elements(
                        G, u, v, F
                    )
                    assert product == (u if u is v else zero), (G, p)
            cases += 1
    assert cases == 17
