"""Assembly of one verification report per group and prime, with JSON
and plain-text renderings that carry the same verdicts."""

import json
import time
from collections import namedtuple

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


def _block_records(G, p, _):
    return (block_section(G, p),)


def _all_matched(blocks):
    return all("irr0_matching" in b and "ibr0_matching" in b for b in blocks)


def _all_dims_divide(blocks):
    return all(b["dim_divides"] and b["dim_p_part_divides"] for b in blocks)


def _none_failed(records):
    return not any(r["verdict"] == "fail" for r in records)


# One verifier kind per entry, in report order.  sections lists the
# record lists the kind fills as (key, text heading, line renderer):
# "blocks" is the report's top-level list, shared by am and dim and
# computed once; every other key sits under "propositions".
# compute(G, p, navarro_fixed) returns one record list per section,
# with no job fields (build_report stamps each proposition record's
# group and prime); only navarro reads navarro_fixed, and no kind
# draws at random.
# passed(records) gives the verdict (None: the kind never gives one).
# compute looks the correspond functions up in this module's globals at
# call time, so wrappers installed on those names (perfbench's tracer)
# see every call.
Verifier = namedtuple("Verifier", "kind sections compute passed")

_BLOCKS = ("blocks", None, lambda rec: "\n".join(_block_lines(rec)))

VERIFIERS = (
    Verifier("am", (_BLOCKS,), _block_records, _all_matched),
    Verifier("dim", (_BLOCKS,), _block_records, _all_dims_divide),
    Verifier(
        "glauberman",
        (("glauberman", "glauberman", _glauberman_line),),
        lambda G, p, _: (glauberman_instances(G, p),),
        _none_failed,
    ),
    Verifier(
        "navarro",
        (("navarro", "navarro", _navarro_line),),
        lambda G, p, fixed: (navarro_instances(G, p, fixed),),
        _none_failed,
    ),
    Verifier(
        "regular",
        (("regular_covering", "regular covering", _regular_line),),
        lambda G, p, _: (regular_covering_instances(G, p),),
        _none_failed,
    ),
    Verifier(
        "fong",
        (
            ("fong_block", "fong block", _fong_block_line),
            ("fong_reynolds", "fong-reynolds", _fong_reynolds_line),
        ),
        lambda G, p, _: (fong_block_instances(G, p), fong_reynolds_instances(G, p)),
        _none_failed,
    ),
    Verifier(
        "q35",
        (("question35", "question 3.5", _question35_line),),
        lambda G, p, _: (question35_instances(G, p),),
        None,
    ),
)
KINDS = tuple(v.kind for v in VERIFIERS)
_SECTIONS = tuple(dict.fromkeys(s for v in VERIFIERS for s in v.sections))


def build_report(G, p, name=None, kinds=KINDS, navarro_fixed=(), timings=False):
    """All requested verifier records for one group at one prime.

    Unrequested kinds come back as empty lists so the schema is stable.
    elapsed_ms stays null unless timings are requested, keeping repeat
    runs byte-identical.
    """
    start = time.monotonic()
    name = name if name is not None else (G.name or f"degree-{G.degree}")
    records = {key: [] for key, _, _ in _SECTIONS}
    done = set()
    for v in VERIFIERS:
        if v.kind in kinds and v.sections not in done:
            done.add(v.sections)
            lists = v.compute(G, p, navarro_fixed)
            for (key, _, _), recs in zip(v.sections, lists):
                records[key] = recs
    blocks = records.pop("blocks")
    return {
        "group": name,
        "order": G.order(),
        "prime": p,
        "p_solvable": is_p_solvable(G, p),
        "blocks": blocks,
        "propositions": {
            key: [{"group": name, "prime": p, **rec} for rec in recs]
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
    for v in VERIFIERS:
        records = [r for key, _, _ in v.sections for r in _records(report, key)]
        if v.passed is not None and records:
            out[v.kind] = "pass" if v.passed(records) else "fail"
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
    for key, title, render in _SECTIONS:
        records = _records(report, key)
        if records and title:
            lines.append(f"{title}:")
        lines.extend(render(r) for r in records)
    return "\n".join(lines) + "\n"
