"""Command line interface.

Exit codes: 0 when every requested verdict comes out as expected
(including failures the catalog marks as expected), 1 when any verdict
is unexpected, 2 for usage or parse errors.
"""

import argparse
import sys
from functools import lru_cache
from pathlib import Path

from . import catalog
from .arith import is_prime
from .blocks import block_data
from .chartab import character_table
from .errors import DomainError
from .groupfile import parse_group_file
from .perms import format_perm
from .report import KINDS, build_report, collect_verdicts, to_json, to_text


class UsageError(Exception):
    pass


def resolve_group(spec):
    """A group argument is a catalog reference or a file path.

    Returns (group, display name, catalog entry or None).
    """
    if spec.startswith("catalog:"):
        ent = catalog.entry(spec[len("catalog:") :])
        return ent.load(), ent.name, ent
    try:
        ent = catalog.entry(spec)
    except DomainError:
        ent = None
    if ent is not None:
        return ent.load(), ent.name, ent
    path = Path(spec)
    if not path.exists():
        raise UsageError(
            f"unknown group {spec!r}: not a catalog name and not a file"
        )
    G = parse_group_file(path)
    return G, G.name, None


def _require_prime(value):
    if value is None:
        raise UsageError("this command needs a prime (-p)")
    if not is_prime(value):
        raise UsageError(f"{value} is not a prime")
    return value


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror}")


def run_table(args):
    G, name, _ = resolve_group(args.group)
    table = character_table(G)
    classes = table.classes
    if args.format == "json":
        payload = {
            "group": name,
            "order": G.order(),
            "exponent": table.exponent,
            "classes": [
                {
                    "index": c.index,
                    "size": c.size,
                    "element_order": c.element_order,
                    "representative": format_perm(c.representative),
                }
                for c in classes
            ],
            "irreducibles": [[str(v) for v in row] for row in table.values],
        }
        _emit(to_json(payload), args.out)
        return 0
    headers = ["", *(str(c.index) for c in classes)]
    rows = [
        ["size", *(str(c.size) for c in classes)],
        ["order", *(str(c.element_order) for c in classes)],
        ["rep", *(format_perm(c.representative) for c in classes)],
    ]
    for i, row in enumerate(table.values):
        rows.append([f"chi{i}", *map(str, row)])
    widths = [
        max(len(r[col]) for r in [headers, *rows])
        for col in range(len(headers))
    ]
    lines = [f"group {name}  order {G.order()}  exponent {table.exponent}"]
    for row in [headers, *rows]:
        lines.append(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip()
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def run_blocks(args):
    G, name, _ = resolve_group(args.group)
    p = _require_prime(args.prime)
    bs = block_data(G, p)
    if args.format == "json":
        payload = {
            "group": name,
            "order": G.order(),
            "prime": p,
            "blocks": [
                {
                    "id": B.index,
                    "characters": list(B.char_indices),
                    "degrees": list(B.degrees()),
                    "defect": B.defect,
                    "dim": B.dim,
                    "heights": list(B.heights),
                    "defect_group_order": p**B.defect,
                }
                for B in bs.blocks
            ],
        }
        _emit(to_json(payload), args.out)
        return 0
    lines = [f"group {name}  order {G.order()}  prime {p}  blocks {len(bs.blocks)}"]
    for B in bs.blocks:
        degrees = ",".join(str(d) for d in B.degrees())
        chars = ",".join(str(i) for i in B.char_indices)
        lines.append(
            f"block {B.index}: defect {B.defect}  dim {B.dim}"
            f"  degrees [{degrees}]  characters [{chars}]"
            f"  defect group order {p**B.defect}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def run_catalog(args):
    lines, records = [], []
    for ent in catalog.entries():
        G = ent.load()
        primes = ",".join(str(p) for p in ent.primes)
        line = (
            f"{ent.name:10s} order {ent.order:4d}  degree {G.degree}"
            f"  primes {primes}"
        )
        fails = sorted(ent.expected_fail.items())
        tags = [f"{p}:{','.join(kinds)}" for p, kinds in fails]
        if tags:
            line += f"  expected-fail {' '.join(tags)}"
        lines.append(line)
        records.append(
            {
                "name": ent.name,
                "order": ent.order,
                "degree": G.degree,
                "primes": list(ent.primes),
                "expected_fail": {str(p): list(kinds) for p, kinds in fails},
            }
        )
    if args.format == "json":
        _emit(to_json(records), args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _verify_jobs(args, kinds):
    """(group, name, prime, kinds, entry) tuples to verify."""
    if args.group is not None:
        G, name, ent = resolve_group(args.group)
        return [(G, name, _require_prime(args.prime), kinds, ent)]
    if args.prime is not None:
        raise UsageError("a prime filter needs an explicit group")
    jobs = []
    for ent in catalog.entries():
        G = ent.load()
        jobs.extend((G, ent.name, p, kinds, ent) for p in ent.primes)
        if "navarro" in kinds:
            extra = catalog.navarro_extra_primes(ent.name)
            jobs.extend((G, ent.name, p, ("navarro",), ent) for p in extra)
    return jobs


def run_verify(args):
    kinds = KINDS if args.kind == "all" else (args.kind,)
    jobs = _verify_jobs(args, kinds)
    reports = []
    unexpected = []
    for G, name, p, job_kinds, ent in jobs:
        fixed = catalog.navarro_fixed(name, p) if ent else []
        expected_fail = ent.expected_failures(p) if ent else ()
        report = build_report(
            G,
            p,
            name=name,
            kinds=job_kinds,
            navarro_fixed=fixed,
            timings=args.timings,
        )
        reports.append(report)
        verdicts = collect_verdicts(report)
        for kind in job_kinds:
            if kind not in verdicts:
                continue
            expected = "fail" if kind in expected_fail else "pass"
            if verdicts[kind] != expected:
                unexpected.append(
                    {
                        "group": name,
                        "prime": p,
                        "kind": kind,
                        "verdict": verdicts[kind],
                        "expected": expected,
                    }
                )
    if args.format == "json":
        payload = {"reports": reports, "unexpected": unexpected}
        _emit(to_json(payload), args.out)
    else:
        chunks = [to_text(r) for r in reports]
        for u in unexpected:
            chunks.append(
                f"unexpected: {u['group']} p={u['prime']} {u['kind']}:"
                f" {u['verdict']} (expected {u['expected']})\n"
            )
        if unexpected:
            plural = "s" if len(unexpected) != 1 else ""
            chunks.append(
                f"overall: {len(unexpected)} unexpected verdict{plural}\n"
            )
        else:
            chunks.append("overall: all verdicts as expected\n")
        _emit("\n".join(chunks), args.out)
    return 1 if unexpected else 0


@lru_cache(maxsize=None)
def build_parser():
    """Built once: parsing leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="blockforge",
        description="Exact block data and degree-divisibility checks"
        " for finite permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, prime=True):
        p.add_argument(
            "--format", choices=("text", "json"), default="text"
        )
        p.add_argument("--out", help="write output to this file")
        if prime:
            p.add_argument("-p", "--prime", type=int)

    t = sub.add_parser("table", help="print the ordinary character table")
    t.add_argument("group")
    common(t, prime=False)
    t.set_defaults(func=run_table)

    b = sub.add_parser("blocks", help="print block data at a prime")
    b.add_argument("group")
    common(b)
    b.set_defaults(func=run_blocks)

    v = sub.add_parser("verify", help="run verifiers")
    v.add_argument("kind", nargs="?", default="all", choices=(*KINDS, "all"))
    v.add_argument("group", nargs="?")
    common(v)
    v.add_argument("--seed", type=int, help="accepted, has no effect")
    v.add_argument("--timings", action="store_true")
    v.set_defaults(func=run_verify)

    c = sub.add_parser("catalog", help="list bundled groups")
    c.add_argument("action", choices=("list",))
    common(c, prime=False)
    c.set_defaults(func=run_catalog)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
