"""The cold-start helper and the tracer."""

import cProfile
import pstats
from pathlib import Path

import blockforge
import blockforge.cli  # noqa: F401  the tracer wraps entry points in cli too
from blockforge import character_table
from blockforge.catalog import entry

import caches
import tracer


def _fill_caches():
    G = entry("S4").load()
    blockforge.block_data(G, 2)
    return G


def test_cold_start_leaves_no_cache_entries():
    _fill_caches()
    assert caches.cache_totals()["entries"] > 0
    caches.cold_start()
    sizes = [cache.cache_info().currsize for _, cache in caches.lru_caches()]
    assert len(sizes) > 10 and not any(sizes)
    assert caches.cache_totals()["entries"] == 0


def test_cold_start_empties_caches_behind_tracer_wrappers():
    t = tracer.Tracer()
    try:
        t.install()
        _fill_caches()
        caches.cold_start()
        assert caches.cache_totals()["entries"] == 0
    finally:
        t.uninstall()


def test_every_lru_cache_is_found():
    labels = {label for label, _ in caches.lru_caches()}
    assert "blockforge.chartab.character_table" in labels
    assert "blockforge.catalog._index" in labels
    assert "blockforge.permgroup.sylow_subgroup" in labels


def test_tracer_patches_imported_bindings():
    t = tracer.Tracer()
    originals = {
        "chartab": blockforge.chartab.character_table,
        "blocks": blockforge.blocks.character_table,
    }
    try:
        caches.cold_start()
        t.install()
        assert blockforge.blocks.character_table is not originals["blocks"]
        assert blockforge.blocks.character_table is blockforge.chartab.character_table
        caches_seen = {label for label, _ in caches.lru_caches()}
        assert "blockforge.chartab.character_table" in caches_seen
        t.root(_fill_caches)
    finally:
        t.uninstall()
    assert blockforge.blocks.character_table is originals["blocks"]
    assert blockforge.chartab.character_table is originals["chartab"]
    times = t.self_times()
    assert t.missing == []
    assert times["chartab.table"][1] >= 1
    assert times["blocks.block_data"][1] >= 1
    assert t.counts["chartab.tables_built"] >= 1
    root = t.spans[0]
    assert root[0] == tracer.ROOT
    total = sum(s for s, _ in times.values())
    assert abs(total - (root[2] - root[1])) < 1e-6


def test_profile_charges_stdlib_time_to_callers():
    caches.cold_start()
    profiler = cProfile.Profile()
    profiler.runcall(character_table, entry("A4").load())
    stats = pstats.Stats(profiler).stats
    package_dir = Path(blockforge.__file__).parent
    by_module = tracer.profile_by_module(stats, package_dir)
    assert by_module["cyclotomic"]["calls"] > 0
    total = sum(v for _, _, v, _, _ in stats.values())
    charged = sum(m["self_s"] for m in by_module.values())
    assert abs(total - charged) < 1e-6
    assert tracer.profile_calls(stats, package_dir, "cyclotomic", "__init__") > 0
