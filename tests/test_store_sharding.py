"""Sharded store layout, legacy migration, and LRU byte-budget eviction."""

import os

import pytest

from repro.experiments import runner, store
from repro.frontend import FrontendStats
from repro.obs import telemetry
from repro.workloads import tracegen

RECORDS = 4_000
SCALE = 0.3


@pytest.fixture()
def fresh_store(tmp_path, monkeypatch):
    monkeypatch.setenv(store.ENV_CACHE_DIR, str(tmp_path))
    monkeypatch.delenv(store.ENV_CACHE_DISABLE, raising=False)
    monkeypatch.delenv(store.ENV_CACHE_BUDGET, raising=False)
    store.reset_store()
    runner.clear_cache()
    tracegen.clear_cache()
    st = store.get_store()
    assert st is not None and st.root == tmp_path
    yield st
    store.reset_store()
    runner.clear_cache()
    tracegen.clear_cache()


def _fp(x) -> str:
    return store.fingerprint({"kind": "shard-test", "x": x})


def _entry_bytes(st, fp) -> int:
    size = st.result_path(fp).stat().st_size
    try:
        size += st.manifest_path(fp).stat().st_size
    except OSError:
        pass
    return size


def _age(path, seconds) -> None:
    """Push a file's atime/mtime into the past (relatime-proof)."""
    stamp = path.stat().st_atime - seconds
    os.utime(path, (stamp, stamp))


class TestShardedLayout:
    def test_paths_are_sharded_by_fingerprint_prefix(self, fresh_store):
        fp = _fp(1)
        assert fresh_store.result_path(fp).parent.name == fp[:2]
        assert fresh_store.trace_path(fp).parent.name == fp[:2]
        assert fresh_store.manifest_path(fp).parent == \
            fresh_store.result_path(fp).parent

    def test_save_creates_shard_directory(self, fresh_store):
        fp = _fp(2)
        path = fresh_store.save_result(fp, FrontendStats(instructions=3), {})
        assert path.is_file()
        assert path.parent == fresh_store.root / "results" / store.shard_of(fp)

    def test_shard_of_short_fingerprint(self):
        assert store.shard_of("a") == "00"
        assert store.shard_of("abcd") == "ab"


class TestLegacyMigration:
    """Flat pre-shard entries stay readable and move into their shard."""

    def _plant_legacy_result(self, st, fp):
        sharded = st.save_result(fp, FrontendStats(instructions=9), {"a": 1.0})
        legacy = st._legacy_path(sharded)
        sharded.rename(legacy)
        return legacy, sharded

    def test_flat_result_is_read_and_migrated(self, fresh_store):
        fp = _fp(10)
        legacy, sharded = self._plant_legacy_result(fresh_store, fp)
        fresh_store.reset_counters()
        loaded = fresh_store.load_result(fp)
        assert loaded is not None and loaded[0].instructions == 9
        assert fresh_store.counters()["hits"] == 1
        assert fresh_store.counters()["migrated"] == 1
        assert sharded.is_file() and not legacy.exists()
        # Second read comes straight from the shard.
        assert fresh_store.load_result(fp) is not None
        assert fresh_store.counters()["migrated"] == 1

    def test_flat_trace_is_read_and_migrated(self, fresh_store):
        trace = tracegen.get_trace("web_apache", n_records=RECORDS,
                                   scale=SCALE)
        fp = _fp(11)
        sharded = fresh_store.save_trace(fp, trace)
        legacy = fresh_store._legacy_path(sharded)
        sharded.rename(legacy)
        fresh_store.reset_counters()
        loaded = fresh_store.load_trace(fp)
        assert loaded is not None and len(loaded) == len(trace)
        assert fresh_store.counters()["hits"] == 1
        assert fresh_store.counters()["migrated"] == 1
        assert sharded.is_file() and not legacy.exists()

    def test_flat_manifest_is_readable(self, fresh_store):
        fp = _fp(12)
        path = fresh_store.save_manifest(fp, {"workload": "w", "n": 1})
        path.rename(fresh_store._legacy_path(path))
        assert fresh_store.load_manifest(fp) == {"workload": "w", "n": 1}
        assert any(m.get("n") == 1 for m in fresh_store.iter_manifests())

    def test_overview_counts_both_layouts(self, fresh_store):
        self._plant_legacy_result(fresh_store, _fp(13))     # flat
        fresh_store.save_result(_fp(14), FrontendStats(), {})   # sharded
        assert fresh_store.overview()["results"]["count"] == 2

    def test_clear_removes_both_layouts(self, fresh_store):
        self._plant_legacy_result(fresh_store, _fp(15))
        fresh_store.save_result(_fp(16), FrontendStats(), {})
        assert fresh_store.clear() == 2
        assert fresh_store.overview()["results"]["count"] == 0


class TestShardOccupancy:
    """``overview()`` breaks each kind down by shard (``/storez``,
    ``repro stats`` and ``repro top`` render the skew from it)."""

    def test_counts_and_bytes_partition_by_shard(self, fresh_store):
        fps = [_fp(i) for i in range(20, 24)]
        for fp in fps:
            fresh_store.save_result(fp, FrontendStats(instructions=1), {})
        info = fresh_store.overview()["results"]
        shards = info["shards"]
        assert set(shards) == {store.shard_of(fp) for fp in fps}
        assert sum(c["count"] for c in shards.values()) == info["count"]
        assert sum(c["bytes"] for c in shards.values()) == info["bytes"]
        assert all(c["count"] >= 1 and c["bytes"] > 0
                   for c in shards.values())

    def test_flat_legacy_entries_report_under_dash(self, fresh_store):
        fp = _fp(30)
        sharded = fresh_store.save_result(fp, FrontendStats(), {})
        sharded.rename(fresh_store._legacy_path(sharded))
        shards = fresh_store.overview()["results"]["shards"]
        assert "-" in shards
        assert shards["-"]["count"] >= 1

    def test_empty_kind_has_no_shards(self, fresh_store):
        assert fresh_store.overview()["traces"]["shards"] == {}


class TestByteBudget:
    def test_parse_byte_budget(self):
        assert store.parse_byte_budget(None) is None
        assert store.parse_byte_budget("") is None
        assert store.parse_byte_budget(4096) == 4096
        assert store.parse_byte_budget(-5) == 0
        assert store.parse_byte_budget("1024") == 1024
        assert store.parse_byte_budget("1k") == 1024
        assert store.parse_byte_budget("2K") == 2048
        assert store.parse_byte_budget("1.5m") == int(1.5 * (1 << 20))
        assert store.parse_byte_budget("2g") == 2 << 30
        assert store.parse_byte_budget("512mb") == 512 << 20

    def test_invalid_budget_warns_once_and_disables(self):
        store._warned_budgets.clear()
        with pytest.warns(RuntimeWarning, match="invalid cache byte budget"):
            assert store.parse_byte_budget("lots") is None
        # Same bad value again: silent (warn-once), still None.
        assert store.parse_byte_budget("lots") is None

    def test_env_budget_applies(self, fresh_store, monkeypatch):
        monkeypatch.setenv(store.ENV_CACHE_BUDGET, "3k")
        assert fresh_store.byte_budget() == 3072
        fresh_store.set_budget(100)
        assert fresh_store.byte_budget() == 100     # explicit wins


class TestEviction:
    def test_unbudgeted_store_never_evicts(self, fresh_store):
        for x in range(3):
            fresh_store.save_result(_fp(x), FrontendStats(), {})
        assert fresh_store.evict() == 0
        assert fresh_store.overview()["results"]["count"] == 3

    def test_lru_eviction_respects_budget(self, fresh_store):
        fps = [_fp(("evict", x)) for x in range(4)]
        for age, fp in enumerate(fps):
            fresh_store.save_result(fp, FrontendStats(), {"pad": 1.0})
            _age(fresh_store.result_path(fp), seconds=(len(fps) - age) * 3600)
        per_entry = _entry_bytes(fresh_store, fps[0])
        # Room for two entries: the two oldest must go.
        removed = fresh_store.evict(budget_bytes=2 * per_entry + 1)
        assert removed == 2
        assert fresh_store.counters()["evicted"] == 2
        assert not fresh_store.result_path(fps[0]).exists()
        assert not fresh_store.result_path(fps[1]).exists()
        assert fresh_store.result_path(fps[2]).is_file()
        assert fresh_store.result_path(fps[3]).is_file()

    def test_result_and_manifest_evicted_as_unit(self, fresh_store):
        fp = _fp("unit")
        fresh_store.save_result(fp, FrontendStats(), {})
        fresh_store.save_manifest(fp, {"workload": "w"})
        _age(fresh_store.result_path(fp), 3600)
        _age(fresh_store.manifest_path(fp), 3600)
        assert fresh_store.evict(budget_bytes=0) == 1
        assert not fresh_store.result_path(fp).exists()
        assert not fresh_store.manifest_path(fp).exists()

    def test_protect_shields_fresh_write(self, fresh_store):
        fp = _fp("protected")
        path = fresh_store.save_result(fp, FrontendStats(), {})
        removed = fresh_store.evict(
            budget_bytes=0, protect=(path, fresh_store.manifest_path(fp)))
        assert removed == 0
        assert path.is_file()

    def test_save_triggers_eviction_automatically(self, fresh_store):
        old_fp, new_fp = _fp("auto-old"), _fp("auto-new")
        fresh_store.save_result(old_fp, FrontendStats(), {})
        _age(fresh_store.result_path(old_fp), 7200)
        fresh_store.set_budget(_entry_bytes(fresh_store, old_fp) + 1)
        fresh_store.save_result(new_fp, FrontendStats(), {})
        # The write it made room for survives; the stale entry is gone.
        assert fresh_store.result_path(new_fp).is_file()
        assert not fresh_store.result_path(old_fp).exists()
        assert fresh_store.counters()["evicted"] == 1

    def test_eviction_emits_telemetry(self, fresh_store):
        events = []
        listener = telemetry.add_store_listener(
            lambda kind, fields: events.append((kind, fields)))
        try:
            fp = _fp("telemetry")
            fresh_store.save_result(fp, FrontendStats(), {})
            _age(fresh_store.result_path(fp), 3600)
            fresh_store.evict(budget_bytes=0)
        finally:
            telemetry.remove_store_listener(listener)
        kinds = [kind for kind, _ in events]
        assert "evict" in kinds
        fields = dict(events)["evict"]
        assert fields["entries"] == 1 and fields["freed_bytes"] > 0

    def test_eviction_covers_traces(self, fresh_store):
        trace = tracegen.get_trace("web_apache", n_records=RECORDS,
                                   scale=SCALE)
        fp = _fp("trace-evict")
        path = fresh_store.save_trace(fp, trace)
        _age(path, 3600)
        assert fresh_store.evict(budget_bytes=0) >= 1
        assert not path.exists()
