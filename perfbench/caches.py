"""Find, clear and count every ``functools`` cache in blockforge.

blockforge has no cache-reset hook of its own, so the caches are found
by walking the loaded ``blockforge`` modules: module-level functions,
and the methods of classes defined there, following ``__wrapped__``
through any wrapper (including the tracer's) down to the cache.
"""

import sys

PACKAGE = "blockforge"


def package_modules():
    """[(name, module)] for every loaded module of the package."""
    return [
        (name, module) for name, module in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


def _find_cache(obj):
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    elif isinstance(obj, property):
        obj = obj.fget
    for _ in range(8):
        if obj is None:
            return None
        if callable(getattr(obj, "cache_info", None)) and callable(
            getattr(obj, "cache_clear", None)
        ):
            return obj
        obj = getattr(obj, "__wrapped__", None)
    return None


def lru_caches():
    """[(qualified name, cached function)] for every distinct cache."""
    found = {}
    for modname, module in package_modules():
        for value in list(vars(module).values()):
            candidates = [value]
            if isinstance(value, type) and value.__module__ == modname:
                candidates += list(vars(value).values())
            for obj in candidates:
                cache = _find_cache(obj)
                if cache is not None:
                    label = f"{cache.__module__}.{cache.__qualname__}"
                    found.setdefault(id(cache), (label, cache))
    return sorted(found.values(), key=lambda item: item[0])


def cache_totals():
    """Hits, misses and entries summed over every cache."""
    totals = {"hits": 0, "misses": 0, "entries": 0}
    for _, cache in lru_caches():
        info = cache.cache_info()
        totals["hits"] += info.hits
        totals["misses"] += info.misses
        totals["entries"] += info.currsize
    return totals


def cold_start():
    """Empty every cache and verify that each is empty.

    Call it right before the timed pass.  Groups need no reset here: the
    CLI parses and builds every group from its file in each job, so no
    PermutationGroup (which keeps its elements and classes once
    computed) outlives a pass.
    """
    caches = lru_caches()
    for _, cache in caches:
        cache.cache_clear()
    left = {label: cache.cache_info().currsize for label, cache in caches}
    left = {label: size for label, size in left.items() if size}
    if left:
        raise RuntimeError(f"caches still hold entries before the cold pass: {left}")
