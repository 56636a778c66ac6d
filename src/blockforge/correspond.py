"""Verifiers for the degree-divisibility statements: height-zero
matchings across the Brauer correspondence, block dimension
divisibility, the Glauberman lift, Sylow numbers (Navarro's theorem),
regular-character covering, Fong's block lemma, Fong-Reynolds
induction, and the exploratory decomposition-number compatibility
search of Question 3.5, which enumerates the Brauer-side matchings only
and decides the ordinary side of each with the one bipartite matcher.

Navarro's exhaustive verdict reads the subgroup-class search of
``permgroup.sylow_numbers_by_class``.  Every verifier sees the group
and the prime alone (navarro also its job's fixed instances) and
returns plain dict records with stable key order and no job fields;
``report`` stamps each with its group and prime.  Pass verdicts,
wherever they assert a theorem, are backed by an explicit certificate
in the record (a matching, an integer quotient, or an equality
witness).

Characters are named by row index on both sides; their degrees are
``CharacterTable.degrees`` and ``ModularData.brauer_degrees``.
"""

from math import gcd

from .arith import is_prime, p_part, vp
from .blocks import _where, block_data, brauer_correspondent, covered_blocks
from .chartab import (
    character_action,
    character_table,
    inertia_group,
    irr_over,
    is_p_solvable,
    normal_subgroups,
    p_core,
    p_prime_core,
    restriction_multiplicities,
)
from .errors import DomainError, InternalCheckError
from .matching import divisibility_matching, maximum_matching
from .modular import modular_data
from .permgroup import (
    PermutationGroup,
    are_conjugate_subgroups,
    centralizer,
    intersection,
    is_normal_in,
    normalizer,
    sylow_numbers_by_class,
    sylow_subgroup,
)

BRAUER_MATCHING_CAP = 10**6


def _try_modular(G, p):
    try:
        return modular_data(G, p)
    except DomainError:
        return None


def _matching_fields(prefix, left, right, where):
    outcome = divisibility_matching(left, right, f"{prefix} degrees on {where}")
    fields = {
        f"{prefix}_left": list(left),
        f"{prefix}_right": list(right),
    }
    if outcome.ok:
        fields[f"{prefix}_matching"] = [
            [left[i], right[j]] for i, j in outcome.pairs
        ]
    else:
        fields[f"{prefix}_violator"] = {
            "side": outcome.violator_side,
            "degrees": list(outcome.violator),
            "reason": outcome.reason,
        }
    return outcome.ok, fields


def block_section(G, p):
    """Per-block records covering the height-zero matchings on both
    character levels and the dimension divisibilities.  The report
    computes them once (``report.SECTIONS["blocks"]``) and reads both
    the am and the dim verdict off them (``report.VERIFIERS``)."""
    bs = block_data(G, p)
    md_big = _try_modular(G, p)
    records = []
    for B in bs.blocks:
        b = brauer_correspondent(B)
        H = b.blockset.group
        # without G's Brauer data the record is unavailable: skip b's
        md_small = None if md_big is None else _try_modular(H, p)
        rec = {
            "id": B.index,
            "degrees": list(B.degrees()),
            "defect": B.defect,
            "defect_group_order": p**B.defect,
            "correspondent": {
                "group_order": H.order(),
                "id": b.index,
                "degrees": list(b.degrees()),
                "defect": b.defect,
            },
        }
        where = _where(G, p, B.index)
        _, fields = _matching_fields(
            "irr0",
            list(B.height_zero_degrees()),
            list(b.height_zero_degrees()),
            where,
        )
        rec.update(fields)
        if md_small is None:
            rec["ibr0_left"] = None
            rec["ibr0_right"] = None
            rec["ibr0_unavailable"] = "no Brauer character data"
        else:
            _, fields = _matching_fields(
                "ibr0",
                list(md_big.height_zero_brauer_degrees(B)),
                list(md_small.height_zero_brauer_degrees(b)),
                where,
            )
            rec.update(fields)
        rec["dim_B"] = B.dim
        rec["dim_b"] = b.dim
        rec["dim_divides"] = B.dim % b.dim == 0
        rec["dim_p_part_divides"] = (
            p_part(B.dim, p) % p_part(b.dim, p) == 0
        )
        records.append(rec)
    return records


# --- Glauberman correspondence and its lift -------------------------


def glauberman_correspondent(L, Q, k, p):
    """The unique constituent of theta, row k of Irr(L), restricted to
    the fixed-point centralizer C whose multiplicity is not divisible by
    p: returns C and the constituent's row index in Irr(C)."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if Q.order() != p ** vp(Q.order(), p):
        raise DomainError("the acting group is not a p-group")
    if gcd(L.order(), Q.order()) != 1:
        raise DomainError("the action is not coprime")
    if not _is_invariant(Q, L, k):
        raise DomainError("character is not invariant under the action")
    C = centralizer(L, Q.generators)
    row = restriction_multiplicities(L, C)[k]
    survivors = [j for j, m in enumerate(row) if m % p]
    if len(survivors) != 1:
        raise InternalCheckError(
            f"expected one constituent of multiplicity prime to {p},"
            f" found {len(survivors)}, on {_where(L, p)}"
        )
    j = survivors[0]
    if character_table(L).degrees[k] % character_table(C).degrees[j]:
        raise InternalCheckError(
            "correspondent degree does not divide the original degree"
            f" on {_where(L, p)}"
        )
    return C, j


def coprime_setup(G, p):
    """The canonical coprime pair for this group and prime: the odd
    core acted on by a Sylow p-subgroup when their product is normal,
    by the p-core otherwise."""
    L = p_prime_core(G, p)
    S = sylow_subgroup(G, p)
    product = PermutationGroup(G.degree, L.generators + S.generators)
    if is_normal_in(product, G):
        return L, S
    return L, p_core(G, p)


def _is_invariant(G, N, k):
    """Whether G fixes theta, row k of Irr(N), under conjugation."""
    return all(a[k] == k for _, a in character_action(G, N))


def _brauer_degrees_over(md, K, k):
    """Degrees of the Brauer characters whose restriction to the
    p'-subgroup K contains theta, row k of Irr(K).

    Each phi is read at its ordinary lift (``ModularData.lifts``): the
    chi whose restriction to the p-regular classes found phi, so that
    it is phi (its decomposition row is the unit vector of phi).  Every
    class of K is p-regular, so phi and chi agree on K and the
    restriction table of (G, K) answers the question."""
    G = md.group
    rows = restriction_multiplicities(G, K)
    out = []
    for j, (d, lift) in enumerate(zip(md.brauer_degrees, md.lifts)):
        if lift is None:
            raise InternalCheckError(
                f"Brauer character {j} of {G!r} at p = {md.prime}"
                " has no ordinary lift"
            )
        if rows[lift][k]:
            out.append(d)
    return out


def verify_glauberman_lifts(G, L, Q, p):
    """The lift instance of each theta in Irr(L) (``_glauberman_lift``).
    The hypotheses are on (G, L, Q) alone, so they are checked once: L is
    a normal p'-subgroup and LQ is normal."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if L.order() % p == 0:
        raise DomainError("the normal subgroup is not a p'-group")
    if not is_normal_in(L, G):
        raise DomainError("the acted-on subgroup is not normal")
    product = PermutationGroup(G.degree, L.generators + Q.generators)
    if not is_normal_in(product, G):
        raise DomainError("the product subgroup is not normal")
    count = len(character_table(L).values)
    return [_glauberman_lift(G, L, Q, k, p) for k in range(count)]


def _glauberman_lift(G, L, Q, k, p):
    """One lift instance for theta, row k of Irr(L): character sets over
    theta and over its correspondent, their cardinalities, and
    divisibility matchings on the full sets and on the p'-degree
    subsets."""
    rec = {
        "l_order": L.order(),
        "q_order": Q.order(),
        "theta_degree": character_table(L).degrees[k],
        "hypothesis_met": True,
    }
    if not _is_invariant(G, L, k):
        rec["hypothesis_met"] = False
        rec["reason"] = "character is not invariant"
        rec["verdict"] = "hypothesis not met"
        return rec
    C, j = glauberman_correspondent(L, Q, k, p)
    H = normalizer(G, Q)
    rec["correspondent_degree"] = character_table(C).degrees[j]
    left = [character_table(G).degrees[i] for i in irr_over(G, L, k)]
    right = [character_table(H).degrees[i] for i in irr_over(H, C, j)]
    rec["counts_equal"] = len(left) == len(right)
    where = f"{_where(G, p)}, Glauberman lift from {L!r}"
    ok_full, fields = _matching_fields("ordinary", left, right, where)
    rec.update(fields)
    left_reg = [d for d in left if d % p]
    right_reg = [d for d in right if d % p]
    ok_reg, fields = _matching_fields("prime_regular", left_reg, right_reg, where)
    rec.update(fields)
    ok_brauer = True
    if is_p_solvable(G, p):
        md_big = modular_data(G, p)
        md_small = modular_data(H, p)
        bleft = _brauer_degrees_over(md_big, L, k)
        bright = _brauer_degrees_over(md_small, C, j)
        rec["brauer_counts_equal"] = len(bleft) == len(bright)
        ok_brauer, fields = _matching_fields("brauer", bleft, bright, where)
        rec.update(fields)
        ok_brauer = ok_brauer and rec["brauer_counts_equal"]
    passed = rec["counts_equal"] and ok_full and ok_reg and ok_brauer
    rec["verdict"] = "pass" if passed else "fail"
    return rec


def glauberman_instances(G, p):
    return verify_glauberman_lifts(G, *coprime_setup(G, p), p)


# --- Sylow normalizer index divisibility ----------------------------


def _normalizer_index(G, H):
    """|G : N_G(H)|."""
    return G.order() // normalizer(G, H).order()


def verify_sylow_normalizer_divisibility(G, p, U, P):
    """Index of the intersection's normalizer in U against the index
    of the p-subgroup's normalizer in G."""
    I = intersection(P, U)
    reasons = []
    if not is_p_solvable(G, p):
        reasons.append("group is not p-solvable")
    if I.order() != p_part(U.order(), p):
        reasons.append("intersection is not a Sylow p-subgroup of U")
    if P.order() != p_part(G.order(), p):
        reasons.append("P is not a Sylow p-subgroup of G")
    index_sub = _normalizer_index(U, I)
    index_big = _normalizer_index(G, P)
    divides = index_big % index_sub == 0
    met = not reasons
    return {
        "subgroup_order": U.order(),
        "p_subgroup_order": P.order(),
        "hypothesis_met": met,
        "reasons": reasons,
        "index_in_subgroup": index_sub,
        "index_in_group": index_big,
        "divides": divides,
        "verdict": (
            "pass" if met and divides
            else "fail" if met
            else "hypothesis not met"
        ),
    }


def navarro_instances(G, p, fixed):
    """Navarro's theorem decided over every subgroup when G is
    p-solvable: one ``exhaustive`` record with the number of classes of
    p-generated subgroups, n_p(G) and the number of classes whose n_p(U)
    does not divide it, each of which adds a ``violation`` record.  Then
    any fixed instances from the catalog."""
    records = []
    if is_p_solvable(G, p):
        index_big, pairs = sylow_numbers_by_class(G, p)
        bad = [(order, index_sub) for order, index_sub in pairs if index_big % index_sub]
        records.append(
            {"kind": "exhaustive", "classes": len(pairs), "sylow_number": index_big,
             "violations": len(bad), "verdict": "fail" if bad else "pass"}
        )
        records += (
            {"kind": "violation", "subgroup_order": order, "index_in_subgroup": index_sub,
             "index_in_group": index_big, "verdict": "fail"}
            for order, index_sub in bad
        )
    for u_gens, p_gens in fixed:
        U = PermutationGroup(G.degree, [tuple(g) for g in u_gens])
        P = PermutationGroup(G.degree, [tuple(g) for g in p_gens])
        records.append(
            {"kind": "fixed", **verify_sylow_normalizer_divisibility(G, p, U, P)}
        )
    return records


# --- regular character covering -------------------------------------


def verify_regular_covering(G, N, p):
    """Per covered orbit: the restriction of the block's weighted
    regular part (the sum of chi(1) chi) against the orbit sum on the
    normal subgroup, compared as multiplicities on Irr(N)."""
    bs = block_data(G, p)
    rows = restriction_multiplicities(G, N)
    degrees = character_table(N).degrees
    records = []
    for B in bs.blocks:
        covered = covered_blocks(B, N)
        orbit_sum = [0] * len(degrees)
        for b in covered:
            for k in b.char_indices:
                orbit_sum[k] = degrees[k]
        restricted = [
            sum(d * rows[i][k] for i, d in zip(B.char_indices, B.degrees()))
            for k in range(len(degrees))
        ]
        n, remainder = divmod(B.dim, sum(b.dim for b in covered))
        holds = remainder == 0 and restricted == [n * d for d in orbit_sum]
        dim_small = covered[0].dim
        rec = {
            "normal_order": N.order(),
            "block": B.index,
            "covered_blocks": len(covered),
            "n": n if holds else None,
            "holds": holds,
            "dim_divides": B.dim % dim_small == 0,
            "verdict": "pass" if holds and B.dim % dim_small == 0 else "fail",
        }
        records.append(rec)
    return records


def regular_covering_instances(G, p):
    return [r for N in normal_subgroups(G) for r in verify_regular_covering(G, N, p)]


# --- Fong's block lemma ----------------------------------------------


def fong_block_instances(G, p):
    """For each invariant character of the p'-core: the characters
    over it must be exactly one block, with Sylow defect.

    The lemma presupposes p-solvability, so other groups contribute
    no instances.
    """
    if not is_p_solvable(G, p):
        return []
    K = p_prime_core(G, p)
    bs = block_data(G, p)
    rows = restriction_multiplicities(G, K)
    sylow_defect = vp(G.order(), p)
    records = []
    for k, d in enumerate(character_table(K).degrees):
        if not _is_invariant(G, K, k):
            continue
        over = {i for i, row in enumerate(rows) if row[k]}
        owner = next(
            (b for b in bs.blocks if set(b.char_indices) == over), None
        )
        is_one_block = owner is not None
        has_sylow_defect = owner is not None and owner.defect == sylow_defect
        records.append(
            {
                "theta_degree": d,
                "characters_over": len(over),
                "is_one_block": is_one_block,
                "sylow_defect": has_sylow_defect,
                "verdict": (
                    "pass" if is_one_block and has_sylow_defect else "fail"
                ),
            }
        )
    return records


# --- Fong-Reynolds ---------------------------------------------------


def _fong_reynolds_data(B, L, k):
    """The inertia group T of theta, row k of Irr(L), and the pairs
    (j, i) where psi_j in Irr(T) lies over theta and induces to chi_i in
    the block B; by Frobenius reciprocity that is when column j of the
    (G, T) restriction table is the unit vector e_i."""
    G = B.blockset.group
    T = inertia_group(G, L, k)
    over_theta = restriction_multiplicities(T, L)
    induced = restriction_multiplicities(G, T)
    members = []
    for j, row in enumerate(over_theta):
        if not row[k]:
            continue
        column = [induced_row[j] for induced_row in induced]
        if sum(column) != 1:
            continue
        i = column.index(1)
        if i in B.char_indices:
            members.append((j, i))
    return T, members


def verify_fong_reynolds(B, L, k):
    """Induction from the inertia group of a good character, row k of
    Irr(L), must hit the block bijectively, preserving heights and the
    defect group."""
    G = B.blockset.group
    p = B.blockset.prime
    T, members = _fong_reynolds_data(B, L, k)
    induced_indices = sorted(idx for _, idx in members)
    bijective = induced_indices == sorted(B.char_indices)
    local = block_data(T, p)
    owners = {local.block_of(j) for j, _ in members}
    single_block = len(owners) == 1
    heights_ok = False
    defect_ok = False
    if single_block and bijective:
        B_theta = owners.pop()
        height_in_T = dict(
            zip(B_theta.char_indices, B_theta.heights)
        )
        height_in_G = dict(zip(B.char_indices, B.heights))
        heights_ok = all(
            height_in_T[j] == height_in_G[idx] for j, idx in members
        )
        D_local = B_theta.defect_group()
        D = B.defect_group()
        defect_ok = D_local.order() == D.order() and (
            D.order() == 1 or are_conjugate_subgroups(G, D_local, D)
        )
    verdict = bijective and single_block and heights_ok and defect_ok
    return {
        "theta_degree": character_table(L).degrees[k],
        "inertia_index": G.order() // T.order(),
        "characters": len(B.char_indices),
        "bijective": bijective,
        "single_block": single_block,
        "heights_preserved": heights_ok,
        "defect_preserved": defect_ok,
        "verdict": "pass" if verdict else "fail",
    }


def find_good_character(B, L):
    """The row index in Irr(L) of a constituent theta of the block's
    restriction to the normal p'-subgroup over which the whole block
    lives and whose Fong-Reynolds block keeps the defect group, with the
    passing ``verify_fong_reynolds`` record."""
    G = B.blockset.group
    p = B.blockset.prime
    if L.order() % p == 0 or not is_normal_in(L, G):
        raise DomainError("need a normal p'-subgroup")
    rows = restriction_multiplicities(G, L)
    for k in range(len(character_table(L).values)):
        if not all(rows[i][k] for i in B.char_indices):
            continue
        outcome = verify_fong_reynolds(B, L, k)
        if outcome["verdict"] == "pass":
            return k, outcome
    raise InternalCheckError(
        f"no good character over the p'-core on {_where(G, p, B.index)}"
    )


def fong_reynolds_instances(G, p):
    K = p_prime_core(G, p)
    return [
        {"block": B.index, **find_good_character(B, K)[1]}
        for B in block_data(G, p).blocks
    ]


# --- Question 3.5 exploration ----------------------------------------


def _matchings(left, right):
    """Every assignment of distinct right positions to left positions
    with the divisibility constraint, in lexicographic order, generated
    one at a time by a depth-first search with an explicit stack.  The
    Question 3.5 search walks the Brauer-side matchings psi with it."""
    n = len(left)
    if n == 0:
        yield ()
        return
    options = [[j for j, b in enumerate(right) if a % b == 0] for a in left]
    chosen = []
    used = set()
    pending = [iter(options[0])]
    while pending:
        for j in pending[-1]:
            if j not in used:
                break
        else:
            pending.pop()
            if chosen:
                used.discard(chosen.pop())
            continue
        if len(chosen) + 1 == n:
            yield (*chosen, j)
        else:
            chosen.append(j)
            used.add(j)
            pending.append(iter(options[len(chosen)]))


def question35_instances(G, p):
    """Search for a pair of height-zero matchings compatible with the
    decomposition numbers.  Exploratory: results are data points.

    For each Brauer-side matching psi, in lexicographic order, the
    ordinary side is one bipartite perfect-matching problem: row a of
    D_B may go to row a' of D_b when d_a' divides d_a and the two rows
    agree on the height-zero Brauer columns paired by psi.  The first
    psi whose problem has a perfect matching omega gives ``found``;
    ``none`` means every psi was tried, and ``inconclusive`` that there
    are more than BRAUER_MATCHING_CAP of them."""
    if not is_p_solvable(G, p):
        return [{"result": "skipped", "reason": "group is not p-solvable"}]
    bs = block_data(G, p)
    md_big = modular_data(G, p)
    records = []
    for B in bs.blocks:
        b = brauer_correspondent(B)
        H = b.blockset.group
        md_small = modular_data(H, p)
        rec = {"block": B.index}
        left0 = B.height_zero
        right0 = b.height_zero
        lbr = md_big.height_zero_brauer(B)
        rbr = md_small.height_zero_brauer(b)
        if len(left0) != len(right0) or len(lbr) != len(rbr):
            rec["result"] = "none"
            rec["reason"] = "height-zero sets have different sizes"
            records.append(rec)
            continue
        ldeg = B.height_zero_degrees()
        rdeg = b.height_zero_degrees()
        lbdeg = md_big.height_zero_brauer_degrees(B)
        rbdeg = md_small.height_zero_brauer_degrees(b)
        big_rows = [[md_big.decomposition[i][j] for j in lbr] for i in left0]
        for tried, psi in enumerate(_matchings(lbdeg, rbdeg)):
            if tried == BRAUER_MATCHING_CAP:
                rec["result"] = "inconclusive"
                rec["reason"] = "Brauer matchings exceed the cap"
                break
            small_rows = [
                [md_small.decomposition[i][rbr[c]] for c in psi] for i in right0
            ]
            adj = [
                [
                    a2
                    for a2, row2 in enumerate(small_rows)
                    if d % rdeg[a2] == 0 and row == row2
                ]
                for d, row in zip(ldeg, big_rows)
            ]
            omega = maximum_matching(adj, range(len(adj)))
            if None not in omega:
                rec["result"] = "found"
                rec["ordinary_witness"] = [
                    [d, rdeg[a2]] for d, a2 in zip(ldeg, omega)
                ]
                rec["brauer_witness"] = [
                    [d, rbdeg[c2]] for d, c2 in zip(lbdeg, psi)
                ]
                break
        else:
            rec["result"] = "none"
        records.append(rec)
    return records
