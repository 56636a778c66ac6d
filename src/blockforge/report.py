"""Assembly of one verification report per group and prime, with JSON
and plain-text renderings that carry the same verdicts."""

import json
import time
from functools import lru_cache

from .arith import is_prime
from .chartab import is_p_solvable
from .correspond import (
    block_section,
    fong_block_instances,
    fong_reynolds_instances,
    glauberman_instances,
    navarro_instances,
    question35_instances,
    regular_covering_instances,
)
from .errors import DomainError


def _degs(values):
    return "[" + ",".join(str(v) for v in values) + "]"


def _matching_line(label, rec, prefix):
    left = rec.get(f"{prefix}_left")
    right = rec.get(f"{prefix}_right")
    if left is None:
        reason = rec.get(f"{prefix}_unavailable", "unavailable")
        return f"  {label}: unavailable ({reason})"
    head = f"  {label}: {_degs(left)} -> {_degs(right)}"
    if f"{prefix}_matching" in rec:
        pairs = " ".join(f"{a}|{b}" for a, b in rec[f"{prefix}_matching"])
        return f"{head}  matched {pairs}"
    v = rec[f"{prefix}_violator"]
    return f"{head}  violator {v['side']} {_degs(v['degrees'])} ({v['reason']})"


def _block_lines(rec):
    yield (
        f"block {rec['id']}: degrees {_degs(rec['degrees'])}"
        f"  defect {rec['defect']}"
        f"  defect group order {rec['defect_group_order']}"
    )
    c = rec["correspondent"]
    yield (
        f"  correspondent: group order {c['group_order']}"
        f"  block {c['id']}  degrees {_degs(c['degrees'])}"
        f"  defect {c['defect']}"
    )
    yield _matching_line("height-zero ordinary", rec, "irr0")
    yield _matching_line("height-zero Brauer", rec, "ibr0")
    divides = "yes" if rec["dim_divides"] else "no"
    p_part = "yes" if rec["dim_p_part_divides"] else "no"
    yield (
        f"  dims {rec['dim_B']} vs {rec['dim_b']}"
        f"  divides {divides}  p-part divides {p_part}"
    )


def _glauberman_line(r):
    if not r["hypothesis_met"]:
        return f"  theta degree {r['theta_degree']}: hypothesis not met ({r['reason']})"
    parts = [
        f"  theta degree {r['theta_degree']}",
        f"ordinary {_degs(r['ordinary_left'])} -> {_degs(r['ordinary_right'])}",
    ]
    if "brauer_left" in r:
        parts.append(
            f"brauer {_degs(r['brauer_left'])} -> {_degs(r['brauer_right'])}"
        )
    return "  ".join(parts) + f": {r['verdict']}"


def _navarro_line(r):
    if r["kind"] == "exhaustive":
        return (
            f"  exhaustive {r['classes']} classes  sylow number {r['sylow_number']}"
            f"  {r['violations']} violations: {r['verdict']}"
        )
    indices = f"indices {r['index_in_subgroup']} vs {r['index_in_group']}"
    if r["kind"] == "violation":
        return f"  violation |U|={r['subgroup_order']}  {indices}: {r['verdict']}"
    return (
        f"  fixed |U|={r['subgroup_order']} |P|={r['p_subgroup_order']}  {indices}"
        f"  divides {'yes' if r['divides'] else 'no'}: {r['verdict']}"
    )


def _regular_line(r):
    n = "-" if r["n"] is None else r["n"]
    return (
        f"  N order {r['normal_order']} block {r['block']}"
        f"  covered {r['covered_blocks']}  n={n}: {r['verdict']}"
    )


def _fong_block_line(r):
    return (
        f"  theta degree {r['theta_degree']}"
        f"  over {r['characters_over']} characters: {r['verdict']}"
    )


def _fong_reynolds_line(r):
    return (
        f"  block {r['block']}  theta degree {r['theta_degree']}"
        f"  inertia index {r['inertia_index']}: {r['verdict']}"
    )


def _question35_line(r):
    if r["result"] == "skipped":
        return f"  skipped ({r['reason']})"
    detail = f" ({r['reason']})" if "reason" in r else ""
    return f"  block {r['block']}: {r['result']}{detail}"


def _all_matched(blocks):
    return all("irr0_matching" in b and "ibr0_matching" in b for b in blocks)


def _all_dims_divide(blocks):
    return all(b["dim_divides"] and b["dim_p_part_divides"] for b in blocks)


def _none_failed(records):
    return not any(r["verdict"] == "fail" for r in records)


# Each record list of a report, in report order, as key: (text heading,
# line renderer, compute).  "blocks" is the report's top-level list;
# every other key sits under "propositions".  compute(G, p,
# navarro_fixed) returns the list with no job fields (build_report
# stamps each proposition record's group and prime); only navarro reads
# navarro_fixed, and nothing draws at random, so _section caches it.
# compute looks the correspond functions up in this module's globals at
# call time, so wrappers installed on those names (perfbench's tracer)
# see every computation.
SECTIONS = {
    "blocks": (
        None,
        lambda rec: "\n".join(_block_lines(rec)),
        lambda G, p, _: block_section(G, p),
    ),
    "glauberman": (
        "glauberman", _glauberman_line, lambda G, p, _: glauberman_instances(G, p)
    ),
    "navarro": (
        "navarro", _navarro_line, lambda G, p, fixed: navarro_instances(G, p, fixed)
    ),
    "regular_covering": (
        "regular covering",
        _regular_line,
        lambda G, p, _: regular_covering_instances(G, p),
    ),
    "fong_block": (
        "fong block", _fong_block_line, lambda G, p, _: fong_block_instances(G, p)
    ),
    "fong_reynolds": (
        "fong-reynolds",
        _fong_reynolds_line,
        lambda G, p, _: fong_reynolds_instances(G, p),
    ),
    "question35": (
        "question 3.5", _question35_line, lambda G, p, _: question35_instances(G, p)
    ),
}

# One verifier kind per entry, as kind: (the section keys it reads,
# passed).  am and dim read the same block list.  passed(records) gives
# the verdict on those sections' records; None: the kind never gives one.
VERIFIERS = {
    "am": (("blocks",), _all_matched),
    "dim": (("blocks",), _all_dims_divide),
    "glauberman": (("glauberman",), _none_failed),
    "navarro": (("navarro",), _none_failed),
    "regular": (("regular_covering",), _none_failed),
    "fong": (("fong_block", "fong_reynolds"), _none_failed),
    "q35": (("question35",), None),
}
KINDS = tuple(VERIFIERS)


@lru_cache(maxsize=None)
def _section(key, G, p, fixed):
    """One section's records for (G, p) and the navarro instances fixed,
    a tuple of (tuple, tuple) generator pairs, computed once per
    process: every gate runs on that first computation.  Kinds that read
    one section share its entry, and so do equal groups; the records
    carry no group name, so the entry serves an equal group under any
    name.  Callers take copies (``_fresh``), never the shared records."""
    return tuple(SECTIONS[key][2](G, p, fixed))


def _fresh(obj):
    """obj with each dict and list in it copied, down to the leaves."""
    kind = type(obj)
    if kind is dict:
        return {k: _fresh(v) for k, v in obj.items()}
    if kind is list:
        return [_fresh(v) for v in obj]
    return obj


def build_report(G, p, name=None, kinds=KINDS, navarro_fixed=(), timings=False):
    """All requested verifier records for one group at one prime.

    Unrequested kinds come back as empty lists so the schema is stable,
    and a kind not in KINDS, a string in place of a sequence of kinds,
    or a p that is not a prime int raises DomainError.  elapsed_ms
    stays null unless timings are requested, keeping repeat runs
    byte-identical.
    Each section is memoized per (G, p, navarro_fixed), so a repeat
    does no verifier work, and its elapsed_ms times the cached path;
    every report gets its own copy of the records.
    """
    if isinstance(kinds, str):
        raise DomainError(
            f"kinds must be a sequence of verifier kinds, not the string"
            f" {kinds!r}; the kinds are {', '.join(KINDS)}"
        )
    unknown = [kind for kind in kinds if kind not in VERIFIERS]
    if unknown:
        raise DomainError(
            f"unknown verifier kind {unknown[0]!r}; the kinds are {', '.join(KINDS)}"
        )
    if not (type(p) is int and is_prime(p)):
        raise DomainError(f"{p!r} is not prime")
    start = time.monotonic()
    name = name if name is not None else (G.name or f"degree-{G.degree}")
    fixed = tuple(
        (tuple(map(tuple, u_gens)), tuple(map(tuple, p_gens)))
        for u_gens, p_gens in navarro_fixed
    )
    wanted = {key for kind in kinds for key in VERIFIERS[kind][0]}
    records = {
        key: _section(key, G, p, fixed) if key in wanted else ()
        for key in SECTIONS
    }
    blocks = records.pop("blocks")
    return {
        "group": name,
        "order": G.order(),
        "prime": p,
        "p_solvable": is_p_solvable(G, p),
        "blocks": [_fresh(rec) for rec in blocks],
        "propositions": {
            key: [{"group": name, "prime": p, **_fresh(rec)} for rec in recs]
            for key, recs in records.items()
        },
        "elapsed_ms": (
            int((time.monotonic() - start) * 1000) if timings else None
        ),
    }


def _records(report, key):
    if key == "blocks":
        return report["blocks"]
    return report["propositions"][key]


def collect_verdicts(report):
    """Pass/fail per verifier kind, derived from the records.

    A kind with no records gets no verdict.  Hypothesis-not-met rows
    never fail a kind, and the exploratory question35 search never
    produces a verdict at all.
    """
    out = {}
    for kind, (keys, passed) in VERIFIERS.items():
        records = [r for key in keys for r in _records(report, key)]
        if passed is not None and records:
            out[kind] = "pass" if passed(records) else "fail"
    return out


_encode_str = json.encoder.encode_basestring_ascii
_WORDS = {None: "null", True: "true", False: "false"}


def _render(obj, indent):
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return int.__repr__(obj)
    inner = indent + "  "
    if kind is dict:
        if not obj:
            return "{}"
        # _encode_str raises TypeError on a key that is not a str
        items = [_encode_str(k) + ": " + _render(v, inner) for k, v in obj.items()]
        head, tail = "{", "}"
    elif kind is list or kind is tuple:
        if not obj:
            return "[]"
        items = [_render(v, inner) for v in obj]
        head, tail = "[", "]"
    elif kind is float:
        return json.dumps(obj)
    elif obj is None or kind is bool:
        return _WORDS[obj]
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return head + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + tail


def to_json(obj):
    """json.dumps(obj, indent=2) plus a newline, byte for byte, for
    values built of str, int, float, bool, None, list, tuple and dicts
    with str keys; any other type or key raises TypeError.  The stdlib
    runs its C encoder only when indent is None, and its pure-Python one
    takes about twice as long on a report."""
    return _render(obj, "") + "\n"


def to_text(report):
    solvable = "yes" if report["p_solvable"] else "no"
    lines = [
        f"group {report['group']}  order {report['order']}"
        f"  prime {report['prime']}  p-solvable {solvable}"
    ]
    if report["elapsed_ms"] is not None:
        lines.append(f"elapsed {report['elapsed_ms']} ms")
    for key, (title, render, _) in SECTIONS.items():
        records = _records(report, key)
        if records and title:
            lines.append(f"{title}:")
        lines.extend(render(r) for r in records)
    return "\n".join(lines) + "\n"
