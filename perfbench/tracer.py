"""Per-layer spans and counts, recorded from outside blockforge.

``Tracer.install`` replaces each layer's public entry points with a
wrapper that records a span (name, start, end, parent).  A function is
replaced under every name any blockforge module binds it to, so calls
through ``from .x import y`` are traced as well as calls through the
defining module.  Spans stay in memory until ``write``.

A layer's time is its self time: the span's duration minus the time
covered by its child spans.  The self times of all spans, the root
included, add up to the root's duration; the root's own self time is
the run's unaccounted time.

``profile_by_module`` turns a cProfile pass into per-module self time
and call counts, charging standard-library time to the blockforge module
that called it.
"""

import functools
import json
import sys
import time
from collections import Counter, defaultdict

from caches import PACKAGE, package_modules

_SUBGROUP_FUNCTIONS = (
    "sylow_subgroup", "normalizer", "centralizer", "centralizer_of_group",
    "normal_subgroups", "subgroups_of_order", "normal_closure",
    "intersection", "p_core", "p_prime_core", "quotient_with_cosets",
    "is_p_solvable",
)
_CLASS_FUNCTIONS = (
    "inner_product", "restrict", "induce", "constituents", "irr_over",
    "inertia_group",
)

# span name -> [(module, attribute path)]
SPANS = {
    "permgroup.build": [("permgroup", "PermutationGroup.__init__")],
    "permgroup.classes": [("permgroup", "PermutationGroup._compute_classes")],
    "permgroup.subgroups": [("permgroup", f) for f in _SUBGROUP_FUNCTIONS],
    "chartab.structure_constants": [("chartab", "structure_constants")],
    "chartab.table": [("chartab", "character_table")],
    "chartab.class_function": [("chartab", f) for f in _CLASS_FUNCTIONS],
    "finitefield.reduction": [("finitefield", "build_reduction")],
    "blocks.block_data": [("blocks", "block_data")],
    "blocks.correspondent": [("blocks", "brauer_correspondent")],
    "modular.modular_data": [("modular", "modular_data")],
    "matching": [("matching", "divisibility_matching")],
    "correspond.am": [("correspond", "block_section")],
    "correspond.glauberman": [("correspond", "glauberman_instances")],
    "correspond.navarro": [("correspond", "navarro_instances")],
    "correspond.regular": [("correspond", "regular_covering_instances")],
    "correspond.fong": [
        ("correspond", "fong_block_instances"),
        ("correspond", "fong_reynolds_instances"),
    ],
    "correspond.q35": [("correspond", "question35_instances")],
    "report.render": [
        ("cli", "_emit"), ("report", "to_text"), ("report", "to_json"),
    ],
}

# counter name -> (module, attribute path); counted, not timed
COUNTS = {
    "chartab.tables_built": ("chartab", "CharacterTable.__init__"),
    "blocks.blocksets_built": ("blocks", "BlockSet.__init__"),
}

ROOT = "run"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self.raised = Counter()  # (span name, exception type) -> count
        self.missing = []
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _span_wrapper(self, name, fn):
        spans, stack, raised, clock = self.spans, self._stack, self.raised, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised[name, type(exc).__name__] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, modname, path, make):
        module = sys.modules.get(f"{PACKAGE}.{modname}")
        *owners, leaf = path.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part, None)
        original = vars(owner).get(leaf) if owner is not None else None
        if original is None:
            self.missing.append(f"{modname}.{path}")
            return
        wrapper = make(original)
        if owners:
            self._patched.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            return
        for _, m in package_modules():
            for attr, value in list(vars(m).items()):
                if value is original:
                    self._patched.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def install(self):
        """Wrap every entry point in SPANS and COUNTS that exists."""
        for name, targets in SPANS.items():
            for modname, path in targets:
                self._patch(modname, path, functools.partial(self._span_wrapper, name))
        for name, (modname, path) in COUNTS.items():
            self._patch(modname, path, functools.partial(self._count_wrapper, name))

    def uninstall(self):
        """Put back every original that install replaced."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def root(self, fn, *args, **kwargs):
        """Run fn under the root span; returns its result."""
        return self._span_wrapper(ROOT, fn)(*args, **kwargs)

    def self_times(self):
        """Span name -> (summed self time in s, number of spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name][0] += end - start - child[i]
            out[name][1] += 1
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path):
        """Write the spans as JSON: names once, then [name, start, end,
        parent] rows with times in seconds from the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[n], round(s - t0, 7), round(e - t0, 7), parent]
            for n, s, e, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))


def profile_by_module(stats, package_dir):
    """Per-module {"self_s", "calls"} from ``pstats.Stats.stats``.

    Functions outside the package (fractions, builtins, ...) have their
    self time split among their callers in proportion to the time each
    caller spent in them, recursively, until it reaches package code.
    Time that never does (the benchmark's own frames) goes to "other".
    """
    prefix = str(package_dir).rstrip("/") + "/"

    def module_of(key):
        filename = key[0]
        if filename.startswith(prefix):
            return filename[len(prefix):].removesuffix(".py").replace("/", ".")
        return None

    out = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    memo = {}

    def shares(key, active):
        mod = module_of(key)
        if mod is not None:
            return {mod: 1.0}
        if key in memo:
            return memo[key]
        if key in active:
            return {"other": 1.0}
        callers = stats[key][4] if key in stats else {}
        weights = {c: edge[2] for c, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: edge[0] for c, edge in callers.items()}
        total = sum(weights.values())
        result = defaultdict(float)
        if total <= 0:
            result["other"] = 1.0
        for caller, weight in weights.items():
            for m, share in shares(caller, active | {key}).items():
                result[m] += share * weight / total
        memo[key] = dict(result)
        return memo[key]

    for key, (_, ncalls, tottime, _, _) in stats.items():
        mod = module_of(key)
        if mod is not None:
            out[mod]["calls"] += ncalls
        for m, share in shares(key, frozenset()).items():
            out[m]["self_s"] += tottime * share
    return dict(out)


def profile_calls(stats, package_dir, module, function):
    """Call count of the named function(s) in one package module."""
    filename = f"{str(package_dir).rstrip('/')}/{module.replace('.', '/')}.py"
    return sum(v[1] for k, v in stats.items() if k[0] == filename and k[2] == function)
