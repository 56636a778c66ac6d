"""Regenerate the bundled group catalog under src/blockforge/data/catalog.

Writes one .grp file per group plus the index with verification
metadata, then parses everything back as a sanity check.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from blockforge.chartab import is_p_solvable
from blockforge.groupfile import format_group_text, parse_group_file
from blockforge.permgroup import PermutationGroup
from blockforge.arith import prime_factors

CATALOG = Path(__file__).resolve().parents[1] / "src" / "blockforge" / "data" / "catalog"

GROUPS = [
    ("C6", "c6.grp", 6, [(1, 2, 3, 4, 5, 0)]),
    ("D8", "d8.grp", 4, [(1, 2, 3, 0), (2, 1, 0, 3)]),
    ("Q8", "q8.grp", 8, [(2, 5, 1, 4, 7, 0, 3, 6), (3, 7, 6, 1, 2, 4, 5, 0)]),
    ("A4", "a4.grp", 4, [(1, 2, 0, 3), (0, 2, 3, 1)]),
    ("C3wrC2", "c3wrc2.grp", 6,
     [(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3), (3, 4, 5, 0, 1, 2)]),
    ("F20", "f20.grp", 5, [(1, 2, 3, 4, 0), (1, 3, 0, 2, 4)]),
    ("F21", "f21.grp", 7, [(1, 2, 3, 4, 5, 6, 0), (1, 3, 5, 0, 2, 4, 6)]),
    ("S4", "s4.grp", 4, [(1, 2, 3, 0), (1, 0, 2, 3)]),
    ("SL(2,3)", "sl23.grp", 8,
     [(0, 1, 3, 4, 2, 7, 5, 6), (2, 5, 1, 4, 7, 0, 3, 6)]),
    ("A5", "a5.grp", 5, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]),
]

EXPECTED_FAIL = {"A5": {"2": ["am", "dim"]}}

# A5 ships a stored Brauer table only for p = 2
PRIME_LIMIT = {"A5": [2]}

NAVARRO_FIXED = [
    {
        "group": "S4",
        "prime": 2,
        "subgroup": [[1, 2, 3, 0], [1, 0, 3, 2]],
        "p_subgroup": [[1, 0, 3, 2]],
    },
    {
        "group": "A5",
        "prime": 3,
        "subgroup": [[1, 2, 0, 3, 4], [1, 0, 3, 2, 4]],
        "p_subgroup": [[1, 2, 0, 3, 4]],
    },
]


def main():
    CATALOG.mkdir(parents=True, exist_ok=True)
    index = {"groups": [], "navarro_fixed": NAVARRO_FIXED}
    for name, filename, degree, gens in GROUPS:
        G = PermutationGroup(degree, gens, name=name)
        text = format_group_text(G, comment=name)
        (CATALOG / filename).write_text(text, encoding="utf-8")
        back = parse_group_file(CATALOG / filename, name=name)
        assert back == G, name
        primes = PRIME_LIMIT.get(name, sorted(prime_factors(G.order())))
        entry = {
            "name": name,
            "file": filename,
            "order": G.order(),
            "primes": list(primes),
        }
        if name in EXPECTED_FAIL:
            entry["expected_fail"] = EXPECTED_FAIL[name]
        index["groups"].append(entry)
        solv = {p: is_p_solvable(G, p) for p in primes}
        print(f"{name:10s} order {G.order():3d} primes {primes} solvable {solv}")
    (CATALOG / "index.json").write_text(
        json.dumps(index, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(GROUPS)} groups to {CATALOG}")


if __name__ == "__main__":
    main()
