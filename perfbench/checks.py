"""Independent checks of blockforge's JSON output.

Nothing here imports blockforge.  Every certificate a report prints is
re-derived from the printed numbers with integer arithmetic, so a wrong
matching, a false divisibility claim or an invented violator is caught
even when the program agrees with itself.

A ``fail`` verdict is *certified* when one of the records behind it
carries a witness that re-checks: a Hall violator of a divisibility
matching, or a non-dividing pair of integers.  Other fails are counted
as uncertified; they are reported, not treated as errors.
"""

from collections import Counter


def _p_part(n, p):
    part = 1
    while n and n % p == 0:
        n //= p
        part *= p
    return part


def matching_problems(rec):
    """Every ``<prefix>_matching`` must pair each listed left degree with
    a distinct listed right degree that divides it."""
    problems = []
    for key in rec:
        if not key.endswith("_matching"):
            continue
        prefix = key[: -len("_matching")]
        left, right = rec.get(f"{prefix}_left"), rec.get(f"{prefix}_right")
        pairs = rec[key]
        if left is None or right is None:
            problems.append(f"{key} without both degree lists")
            continue
        if any(b == 0 or a % b for a, b in pairs):
            problems.append(f"{key} pairs a degree with a non-divisor: {pairs}")
        if Counter(a for a, _ in pairs) != Counter(left):
            problems.append(f"{key} does not cover {prefix}_left {left}")
        if Counter(b for _, b in pairs) != Counter(right):
            problems.append(f"{key} does not cover {prefix}_right {right}")
    return problems


def violator_holds(left, right, violator):
    """A Hall violator: a sub-multiset of one side adjacent (by
    divisibility) to fewer entries of the other side than it has."""
    side, degrees = violator.get("side"), violator.get("degrees")
    if side not in ("left", "right") or not degrees:
        return False
    mine, other = (left, right) if side == "left" else (right, left)
    if Counter(degrees) - Counter(mine):
        return False
    if side == "left":
        adjacent = [b for b in other if any(a % b == 0 for a in degrees)]
    else:
        adjacent = [a for a in other if any(a % b == 0 for b in degrees)]
    return len(adjacent) < len(degrees)


def _violators(rec):
    """(prefix, whether it re-checks) for every ``<prefix>_violator``."""
    for key, value in rec.items():
        if key.endswith("_violator"):
            prefix = key[: -len("_violator")]
            left, right = rec.get(f"{prefix}_left"), rec.get(f"{prefix}_right")
            holds = left is not None and right is not None and violator_holds(left, right, value)
            yield prefix, holds


def violator_problems(rec):
    return [
        f"{prefix}_violator {rec[prefix + '_violator']} is not a Hall violator"
        for prefix, holds in _violators(rec)
        if not holds
    ]


def _has_violator(rec, prefixes=None):
    return any(
        holds for prefix, holds in _violators(rec) if prefixes is None or prefix in prefixes
    )


def _dim_pair(rec, p):
    big, small = rec.get("dim_B"), rec.get("dim_b")
    if not big or not small:
        return False
    return big % small != 0 or _p_part(big, p) % _p_part(small, p) != 0


def _index_pair(rec, p):
    big, small = rec.get("index_in_group"), rec.get("index_in_subgroup")
    return bool(small) and big is not None and big % small != 0


# kind -> (record lists in the report, witness test on one record)
WITNESSES = {
    "am": (("blocks",), lambda r, p: _has_violator(r, ("irr0", "ibr0"))),
    "dim": (("blocks",), _dim_pair),
    "glauberman": (("glauberman",), lambda r, p: _has_violator(r)),
    "navarro": (("navarro",), _index_pair),
    "regular": (("regular_covering",), lambda r, p: _has_violator(r)),
    "fong": (("fong_block", "fong_reynolds"), lambda r, p: _has_violator(r)),
}


def _records(report, key):
    if key == "blocks":
        return report.get("blocks") or []
    return (report.get("propositions") or {}).get(key) or []


def is_certified(report, kind):
    """Whether a ``fail`` verdict of this kind has a checked witness."""
    if kind not in WITNESSES:
        return False
    keys, test = WITNESSES[kind]
    p = report["prime"]
    return any(test(rec, p) for key in keys for rec in _records(report, key))


def uncertified_fails(report, verdicts):
    """Kinds whose verdict is ``fail`` with no witness behind it."""
    return [
        kind for kind, verdict in sorted(verdicts.items())
        if verdict == "fail" and not is_certified(report, kind)
    ]


def report_problems(report, degrees):
    """Problems with one verify report, given the group's published
    character degrees."""
    problems = []
    order = report.get("order")
    blocks = report.get("blocks") or []
    p = report.get("prime")
    if blocks:
        listed = sorted(d for b in blocks for d in b["degrees"])
        if listed != sorted(degrees):
            problems.append(f"block degrees {listed} differ from {sorted(degrees)}")
        if sum(b["dim_B"] for b in blocks) != order:
            problems.append(f"sum of dim_B is not |G| = {order}")
        for b in blocks:
            if b["dim_B"] != sum(d * d for d in b["degrees"]):
                problems.append(f"block {b['id']}: dim_B is not the sum of squared degrees")
            corr = b.get("correspondent", {})
            if "degrees" in corr and b["dim_b"] != sum(d * d for d in corr["degrees"]):
                problems.append(f"block {b['id']}: dim_b is not the sum of squared degrees")
            if b["dim_divides"] != (b["dim_B"] % b["dim_b"] == 0):
                problems.append(f"block {b['id']}: dim_divides is wrong")
            p_divides = _p_part(b["dim_B"], p) % _p_part(b["dim_b"], p) == 0
            if b["dim_p_part_divides"] != p_divides:
                problems.append(f"block {b['id']}: dim_p_part_divides is wrong")
    records = list(blocks)
    for recs in (report.get("propositions") or {}).values():
        records.extend(recs)
    for rec in records:
        problems.extend(matching_problems(rec))
        problems.extend(violator_problems(rec))
        if rec.get("kind") == "fixed" and rec.get("index_in_subgroup"):
            if rec["divides"] != (rec["index_in_group"] % rec["index_in_subgroup"] == 0):
                problems.append("navarro fixed instance: divides is wrong")
        if "n" in rec and rec.get("holds") and not (isinstance(rec["n"], int) and rec["n"] > 0):
            problems.append(f"regular covering multiple {rec['n']} is not a positive integer")
    return problems


def unexpected_verdicts(verdicts, expected_fail):
    """Pass/fail verdicts that disagree with the catalog's expectations."""
    out = []
    for kind, verdict in sorted(verdicts.items()):
        if verdict not in ("pass", "fail"):
            continue
        expected = "fail" if kind in expected_fail else "pass"
        if verdict != expected:
            out.append(f"{kind}: {verdict} (expected {expected})")
    return out


def table_problems(payload, degrees):
    """Problems with one ``table --format json`` payload."""
    problems = []
    order = payload.get("order")
    classes = payload.get("classes") or []
    rows = payload.get("irreducibles") or []
    if sum(c["size"] for c in classes) != order:
        problems.append("class sizes do not sum to |G|")
    if len(rows) != len(classes):
        problems.append(f"{len(rows)} characters for {len(classes)} classes")
    if not classes or classes[0]["element_order"] != 1:
        problems.append("the first class is not the identity")
        return problems
    try:
        found = sorted(int(row[0]) for row in rows)
    except ValueError:
        return problems + ["a character degree is not an integer"]
    if found != sorted(degrees):
        problems.append(f"degrees {found} differ from {sorted(degrees)}")
    if sum(d * d for d in found) != order:
        problems.append(f"sum of squared degrees is not |G| = {order}")
    return problems
