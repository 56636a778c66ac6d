"""The three benchmark workloads: the CLI jobs each one runs, the group
files it builds, and the published data its outputs are checked against.

A job is one ``blockforge`` command line (without ``--out``) and the keys
of the outputs it must produce: (group label, prime) per ``verify``
report, (group label, None) for a ``table``.  Only ``verify`` takes the
benchmark's seed, through its own ``--seed`` flag.
"""

import json
import re
from pathlib import Path

GROUP_DIR = Path(__file__).resolve().parent / "groups"

# Ordinary character degrees from the literature (ATLAS of Finite Groups
# for S6, A7 and PSL(2,7); products of the factors' degrees for S4 x S3;
# the standard small-group tables for the rest).  Sum of squares = |G|.
PUBLISHED_DEGREES = {
    "C6": [1, 1, 1, 1, 1, 1],
    "D8": [1, 1, 1, 1, 2],
    "Q8": [1, 1, 1, 1, 2],
    "A4": [1, 1, 1, 3],
    "C3wrC2": [1, 1, 1, 1, 1, 1, 2, 2, 2],
    "F20": [1, 1, 1, 1, 4],
    "F21": [1, 1, 1, 3, 3],
    "S4": [1, 1, 2, 3, 3],
    "SL(2,3)": [1, 1, 1, 2, 2, 2, 3],
    "A5": [1, 3, 3, 4, 5],
    "S5": [1, 1, 4, 4, 5, 5, 6],
    "S6": [1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16],
    "A7": [1, 6, 10, 10, 14, 14, 15, 21, 35],
    "PSL(2,7)": [1, 3, 3, 6, 7, 8],
    "S4xS3": [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 6, 6],
}

# label -> file under groups/; the file's first comment states the order.
BENCH_GROUPS = {
    "S5": "s5.grp",
    "S6": "s6.grp",
    "A7": "a7.grp",
    "PSL(2,7)": "psl27.grp",
    "S4xS3": "s4xs3.grp",
}

TABLE_GROUPS = ("S6", "PSL(2,7)", "S4xS3", "A7")
STRESS_JOBS = (("S4xS3", 2), ("S5", 2), ("S6", 3), ("S6", 5), ("PSL(2,7)", 7))


def group_path(label):
    return GROUP_DIR / BENCH_GROUPS[label]


def stated_order(path):
    """The order a benchmark group file states in its header comment."""
    match = re.search(r"order (\d+)", Path(path).read_text(encoding="utf-8"))
    if match is None:
        raise ValueError(f"{path} states no order")
    return int(match.group(1))


def catalog_index():
    """The shipped catalog's index, read as plain JSON."""
    import blockforge

    path = Path(blockforge.__file__).parent / "data" / "catalog" / "index.json"
    return json.loads(path.read_text(encoding="utf-8"))


def catalog_expectations():
    """(name, prime) -> kinds expected to fail, for every catalog job.

    The catalog's Sylow-normalizer fixtures add jobs at primes outside an
    entry's list; those run only the navarro kind and expect a pass.
    """
    index = catalog_index()
    jobs = {}
    for g in index["groups"]:
        fails = g.get("expected_fail", {})
        for p in g["primes"]:
            jobs[(g["name"], p)] = tuple(fails.get(str(p), ()))
    for rec in index["navarro_fixed"]:
        jobs.setdefault((rec["group"], rec["prime"]), ())
    return jobs


def jobs(workload, seed):
    """[(argv, [report keys])] for one pass of the workload."""
    if workload == "catalog":
        keys = sorted(catalog_expectations())
        return [(["verify", "all", "--format", "json", "--seed", str(seed)], keys)]
    if workload == "tables":
        return [
            (["table", str(group_path(g)), "--format", "json"], [(g, None)])
            for g in TABLE_GROUPS
        ]
    if workload == "stress":
        return [
            (
                ["verify", "all", str(group_path(g)), "-p", str(p),
                 "--format", "json", "--seed", str(seed)],
                [(g, p)],
            )
            for g, p in STRESS_JOBS
        ]
    raise ValueError(f"unknown workload {workload!r}")


def load_groups(workload):
    """Parse and build every group the workload uses; check each order.

    Returns {label: PermutationGroup}.
    """
    from blockforge import catalog, parse_group_file

    groups = {}
    if workload == "catalog":
        for ent in catalog.entries():
            groups[ent.name] = (ent.load(), ent.order)
    else:
        labels = TABLE_GROUPS if workload == "tables" else {g for g, _ in STRESS_JOBS}
        for label in sorted(labels):
            path = group_path(label)
            groups[label] = (parse_group_file(path), stated_order(path))
    for label, (G, order) in groups.items():
        if G.order() != order:
            raise ValueError(f"{label}: built order {G.order()}, stated {order}")
    return {label: G for label, (G, _) in groups.items()}
