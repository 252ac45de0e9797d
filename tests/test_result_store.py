"""Tests for the persistent result + trace store (experiments.store)."""

from dataclasses import asdict

import pytest

from repro.experiments import runner, store
from repro.frontend import FrontendStats
from repro.obs.metrics import REGISTRY
from repro.workloads import tracegen

RECORDS = 6_000
SCALE = 0.3


@pytest.fixture()
def fresh_store(tmp_path, monkeypatch):
    """An empty store in a private directory, with all memos cleared."""
    monkeypatch.setenv(store.ENV_CACHE_DIR, str(tmp_path))
    monkeypatch.delenv(store.ENV_CACHE_DISABLE, raising=False)
    store.reset_store()
    runner.clear_cache()
    tracegen.clear_cache()
    st = store.get_store()
    assert st is not None and st.root == tmp_path
    yield st
    store.reset_store()
    runner.clear_cache()
    tracegen.clear_cache()


class TestStoreBasics:
    def test_disable_env(self, monkeypatch):
        monkeypatch.setenv(store.ENV_CACHE_DISABLE, "1")
        store.reset_store()
        assert store.get_store() is None
        monkeypatch.delenv(store.ENV_CACHE_DISABLE)
        store.reset_store()
        assert store.get_store() is not None

    def test_result_roundtrip(self, fresh_store):
        stats = FrontendStats(instructions=7, delivery_cycles=11)
        fp = store.fingerprint({"kind": "unit", "x": 1})
        assert fresh_store.load_result(fp) is None
        fresh_store.save_result(fp, stats, {"a": 1.5})
        loaded = fresh_store.load_result(fp)
        assert loaded is not None
        got_stats, extra = loaded
        assert asdict(got_stats) == asdict(stats)
        assert extra == {"a": 1.5}

    def test_corrupt_entry_is_a_miss(self, fresh_store):
        fp = store.fingerprint({"kind": "unit", "x": 2})
        fresh_store.save_result(fp, FrontendStats(), {})
        fresh_store.result_path(fp).write_text("{not json")
        assert fresh_store.load_result(fp) is None

    def test_clear(self, fresh_store):
        fp = store.fingerprint({"kind": "unit", "x": 3})
        fresh_store.save_result(fp, FrontendStats(), {})
        assert fresh_store.clear() == 1
        assert fresh_store.load_result(fp) is None


class TestAdversarialReads:
    """Torn writes, concurrent deletions, hostile directory states."""

    def test_truncated_entry_is_counted_corrupt_miss(self, fresh_store):
        fp = store.fingerprint({"kind": "unit", "x": 10})
        fresh_store.save_result(fp, FrontendStats(instructions=5), {})
        full = fresh_store.result_path(fp).read_text()
        fresh_store.result_path(fp).write_text(full[:len(full) // 2])
        fresh_store.reset_counters()
        assert fresh_store.load_result(fp) is None
        assert fresh_store.corrupt == 1
        assert fresh_store.misses == 1
        assert fresh_store.hits == 0

    def test_garbage_json_shapes(self, fresh_store):
        fp = store.fingerprint({"kind": "unit", "x": 11})
        for garbage in ("", "null", "[]", '{"stats": 3}',
                        '{"stats": {"bogus_field": 1}, "extra": {}}',
                        "\x00\xff binary junk"):
            fresh_store.result_path(fp).parent.mkdir(parents=True,
                                                     exist_ok=True)
            fresh_store.result_path(fp).write_text(garbage)
            assert fresh_store.load_result(fp) is None, repr(garbage)
        assert fresh_store.corrupt == 6

    def test_missing_entry_is_plain_miss_not_corrupt(self, fresh_store):
        assert fresh_store.load_result("0" * 32) is None
        assert fresh_store.misses == 1
        assert fresh_store.corrupt == 0

    def test_runner_resimulates_over_corrupt_entry(self, fresh_store):
        r1 = runner.run_scheme("web_apache", "baseline",
                               n_records=RECORDS, scale=SCALE)
        results = [p for p in (fresh_store.root / "results").glob("*/*.json")
                   if not p.name.endswith(".manifest.json")]
        assert len(results) == 1
        results[0].write_text("{torn write")
        runner.clear_cache()
        r2 = runner.run_scheme("web_apache", "baseline",
                               n_records=RECORDS, scale=SCALE)
        assert asdict(r1.stats) == asdict(r2.stats)
        assert fresh_store.corrupt == 1

    def test_clear_survives_vanishing_entries(self, fresh_store,
                                              monkeypatch):
        from pathlib import Path
        for x in (20, 21):
            fresh_store.save_result(
                store.fingerprint({"kind": "unit", "x": x}),
                FrontendStats(), {})
        real_unlink = Path.unlink
        doomed = fresh_store.result_path(
            store.fingerprint({"kind": "unit", "x": 20}))

        def racy_unlink(self, *a, **kw):
            if self == doomed:
                real_unlink(self)       # another process got there first
                raise FileNotFoundError(str(self))
            return real_unlink(self, *a, **kw)

        monkeypatch.setattr(Path, "unlink", racy_unlink)
        assert fresh_store.clear() == 1     # survivor still removed
        results_dir = fresh_store.root / "results"
        assert not results_dir.is_dir() or not list(results_dir.iterdir())

    def test_clear_survives_vanishing_directory(self, fresh_store,
                                                monkeypatch):
        import shutil
        from pathlib import Path
        fresh_store.save_result(
            store.fingerprint({"kind": "unit", "x": 30}),
            FrontendStats(), {})
        real_iterdir = Path.iterdir

        def racy_iterdir(self):
            if self.name == "results":
                shutil.rmtree(self)     # whole directory swept away
                raise FileNotFoundError(str(self))
            return real_iterdir(self)

        monkeypatch.setattr(Path, "iterdir", racy_iterdir)
        assert fresh_store.clear() == 0     # no crash, nothing counted

    def test_clear_on_empty_store(self, fresh_store):
        assert fresh_store.clear() == 0
        assert fresh_store.invalidations == 0


class TestFingerprint:
    def test_stable(self):
        parts = {"kind": "t", "a": 1, "b": [1, 2]}
        assert store.fingerprint(parts) == store.fingerprint(dict(parts))

    def test_insensitive_to_dict_key_order(self):
        a = store.fingerprint({"kind": "t", "a": 1, "b": 2, "c": 3})
        b = store.fingerprint({"c": 3, "b": 2, "a": 1, "kind": "t"})
        assert a == b

    def test_insensitive_to_nested_key_order(self):
        a = store.fingerprint({"kind": "t",
                               "overrides": {"x": 1, "y": {"p": 1, "q": 2}}})
        b = store.fingerprint({"overrides": {"y": {"q": 2, "p": 1}, "x": 1},
                               "kind": "t"})
        assert a == b

    def test_canonical_sorts_mixed_keys(self):
        # Keys are stringified before sorting, so int/str mixes cannot
        # raise and order deterministically.
        assert store._canonical({2: "b", "1": "a"}) == \
            store._canonical({"1": "a", 2: "b"})
        assert list(store._canonical({2: "b", "1": "a"})) == ["1", "2"]

    def test_canonical_tuple_equals_list(self):
        assert store._canonical((1, 2, (3,))) == store._canonical([1, 2, [3]])

    def test_sensitive_to_parts(self):
        base = store.fingerprint({"kind": "t", "n": 100})
        assert store.fingerprint({"kind": "t", "n": 101}) != base
        assert store.fingerprint({"kind": "u", "n": 100}) != base

    def test_sensitive_to_code_salt(self, monkeypatch):
        base = store.fingerprint({"kind": "t", "n": 100})
        monkeypatch.setattr(store, "_CODE_SALT", "0" * 16)
        assert store.fingerprint({"kind": "t", "n": 100}) != base

    def test_overrides_change_run_fingerprint(self):
        a = runner._fingerprint("web_apache", "baseline", RECORDS, 2000,
                                SCALE, False, {}, None)
        b = runner._fingerprint("web_apache", "baseline", RECORDS, 2000,
                                SCALE, False, {"btb_entries": 512}, None)
        assert a != b


class TestRunSchemePersistence:
    def test_warm_cache_skips_simulation(self, fresh_store):
        r1 = runner.run_scheme("web_apache", "baseline",
                               n_records=RECORDS, scale=SCALE)
        assert fresh_store.writes >= 1
        # Drop the in-process memo: only the on-disk layer remains.
        runner.clear_cache()
        fresh_store.reset_counters()
        sims_before = REGISTRY.totals().get("repro_runs_total", 0)
        r2 = runner.run_scheme("web_apache", "baseline",
                               n_records=RECORDS, scale=SCALE)
        assert REGISTRY.totals().get("repro_runs_total", 0) == sims_before, \
            "warm persistent cache must skip simulation"
        assert fresh_store.hits == 1
        assert asdict(r1.stats) == asdict(r2.stats)
        assert r1.extra == r2.extra

    def test_persisted_equals_simulated(self, fresh_store):
        r1 = runner.run_scheme("oltp_db_a", "nl",
                               n_records=RECORDS, scale=SCALE)
        runner.clear_cache()
        r2 = runner.run_scheme("oltp_db_a", "nl",
                               n_records=RECORDS, scale=SCALE)
        # Loaded from disk, but indistinguishable from the live run.
        assert asdict(r1.stats) == asdict(r2.stats)
        assert r1.extra == pytest.approx(r2.extra)

    def test_keep_simulator_bypasses_load(self, fresh_store):
        runner.run_scheme("web_apache", "baseline",
                          n_records=RECORDS, scale=SCALE)
        runner.clear_cache()
        res = runner.run_scheme("web_apache", "baseline",
                                n_records=RECORDS, scale=SCALE,
                                keep_simulator=True)
        assert res.simulator is not None and res.simulator.prefetcher is None

    def test_disable_persistence_flag(self, fresh_store):
        runner.run_scheme("web_apache", "baseline",
                          n_records=RECORDS, scale=SCALE, persistent=False)
        # The trace layer may still persist its walk; the run *result*
        # must not be stored.
        results_dir = fresh_store.root / "results"
        assert not results_dir.is_dir() or not list(results_dir.iterdir())


class TestTraceStore:
    def test_warm_trace_loads_identically(self, fresh_store):
        t1 = tracegen.get_trace("web_apache", n_records=RECORDS,
                                scale=SCALE)
        assert fresh_store.writes >= 1
        tracegen.clear_cache()
        fresh_store.reset_counters()
        t2 = tracegen.get_trace("web_apache", n_records=RECORDS,
                                scale=SCALE)
        assert fresh_store.hits == 1 and fresh_store.writes == 0
        assert len(t1) == len(t2)
        assert all(a.line == b.line and a.first_pc == b.first_pc
                   and a.n_instr == b.n_instr and a.taken == b.taken
                   and a.branch_target == b.branch_target
                   for a, b in zip(t1, t2))

    def test_samples_are_distinct_entries(self, fresh_store):
        t0 = tracegen.get_trace("web_apache", n_records=RECORDS,
                                scale=SCALE, sample=0)
        t1 = tracegen.get_trace("web_apache", n_records=RECORDS,
                                scale=SCALE, sample=1)
        assert any(a.line != b.line for a, b in zip(t0, t1))


class TestBoundedMemo:
    def test_memo_is_bounded(self, fresh_store):
        try:
            old_max = runner._CACHE_MAX
            runner._CACHE_MAX = 4
            for i in range(8):
                runner.seed_cache(("k", i), object())
            assert len(runner._CACHE) <= 4
            # Most recent keys survive LRU eviction.
            assert ("k", 7) in runner._CACHE
            assert ("k", 0) not in runner._CACHE
        finally:
            runner._CACHE_MAX = old_max
            runner.clear_cache()

    def test_memo_identity_on_repeat(self, fresh_store):
        a = runner.run_scheme("web_apache", "baseline",
                              n_records=RECORDS, scale=SCALE)
        b = runner.run_scheme("web_apache", "baseline",
                              n_records=RECORDS, scale=SCALE)
        assert a is b

    def test_slim_results_by_default(self, fresh_store):
        res = runner.run_scheme("web_apache", "nl",
                                n_records=RECORDS, scale=SCALE)
        assert res.simulator is None and res.prefetcher is None
