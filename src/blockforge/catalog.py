"""Access to the bundled group catalog.

The catalog carries the standard verification targets: each entry
names a group file, the primes it is verified at, and any verdicts
that are expected to fail there.  A handful of fixed subgroup pairs
for the Sylow-normalizer check ride along, keyed by group and prime.
"""

import json
from functools import lru_cache
from pathlib import Path

from .errors import DomainError
from .groupfile import parse_group_file

CATALOG_DIR = Path(__file__).parent / "data" / "catalog"


class CatalogEntry:
    __slots__ = ("name", "file", "order", "primes", "expected_fail")

    def __init__(self, name, file, order, primes, expected_fail):
        self.name = name
        self.file = file
        self.order = order
        self.primes = tuple(primes)
        self.expected_fail = {
            int(p): tuple(kinds) for p, kinds in expected_fail.items()
        }

    def load(self):
        return parse_group_file(CATALOG_DIR / self.file, name=self.name)

    def expected_failures(self, p):
        return self.expected_fail.get(p, ())


@lru_cache(maxsize=1)
def _index():
    with open(CATALOG_DIR / "index.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def entries():
    return [
        CatalogEntry(
            g["name"],
            g["file"],
            g["order"],
            g["primes"],
            g.get("expected_fail", {}),
        )
        for g in _index()["groups"]
    ]


def entry(name):
    for e in entries():
        if e.name == name:
            return e
    raise DomainError(f"no catalog group named {name!r}")


def navarro_fixed(name, p):
    """Fixed (subgroup, p-subgroup) generator pairs for this group and
    prime, as a tuple of (tuple, tuple) pairs of permutation tuples, so
    that the instances can key a cache."""
    return tuple(
        (
            tuple(tuple(g) for g in rec["subgroup"]),
            tuple(tuple(g) for g in rec["p_subgroup"]),
        )
        for rec in _index()["navarro_fixed"]
        if rec["group"] == name and rec["prime"] == p
    )


def navarro_extra_primes(name):
    """Primes with a fixed instance that are outside the entry's
    verified prime list."""
    listed = set(entry(name).primes)
    return sorted(
        {
            rec["prime"]
            for rec in _index()["navarro_fixed"]
            if rec["group"] == name and rec["prime"] not in listed
        }
    )
