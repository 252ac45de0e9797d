"""Regression tests for the store correctness fixes.

Four bugs, each with the failure mode it guards against:

* ``_canonical`` used to fall back to ``repr(value)`` for unknown
  types — a default object repr embeds a per-process memory address,
  silently splitting fingerprint-identical runs into distinct cache
  keys across processes.
* ``load_trace`` used an ``exists()`` probe (TOCTOU) and forgot to
  count parse failures as corrupt.
* ``append_jsonl`` wrote through a buffered text-mode handle — lines
  longer than the stdio buffer flush in chunks and tear under
  concurrent appenders.
* ``get_store()`` silently discarded session counters when
  ``REPRO_CACHE_DIR`` changed mid-process, and the counters were not
  thread-safe.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.experiments import runner, store
from repro.frontend import FrontendStats
from repro.obs import REGISTRY, telemetry
from repro.workloads import tracegen

SRC = str(Path(store.__file__).resolve().parents[2])


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


# -- bug 1: address-bearing reprs must not reach the fingerprint ------------

class _DefaultRepr:
    """Default object repr: ``<... object at 0x7f...>``."""


class _AddressRepr:
    def __repr__(self):
        return f"<thing at 0x{id(self):x}>"


class _StableFields:
    """No custom repr, but stable instance fields."""

    def __init__(self, depth, width):
        self.depth = depth
        self.width = width


class _StableRepr:
    def __init__(self, n):
        self.n = n

    def __repr__(self):
        return f"_StableRepr(n={self.n})"


class _Empty:
    """Default repr and no instance fields: nothing stable to hash."""

    __slots__ = ()


class TestCanonicalRejectsAddresses:
    def test_custom_address_repr_raises(self):
        with pytest.raises(TypeError, match="memory address"):
            store.fingerprint({"kind": "t", "obj": _AddressRepr()})

    def test_bare_object_raises(self):
        with pytest.raises(TypeError):
            store.fingerprint({"kind": "t", "obj": _Empty()})

    def test_default_repr_object_uses_fields(self):
        a = store.fingerprint({"kind": "t", "obj": _StableFields(4, 8)})
        b = store.fingerprint({"kind": "t", "obj": _StableFields(4, 8)})
        c = store.fingerprint({"kind": "t", "obj": _StableFields(4, 9)})
        assert a == b
        assert a != c
        # Two distinct instances canonicalise identically even though
        # their default reprs (addresses) differ.
        assert store._canonical(_DefaultRepr() if False else
                                _StableFields(1, 2)) == \
            store._canonical(_StableFields(1, 2))

    def test_stable_repr_is_used(self):
        assert store.fingerprint({"kind": "t", "obj": _StableRepr(3)}) == \
            store.fingerprint({"kind": "t", "obj": _StableRepr(3)})
        canon = store._canonical(_StableRepr(3))
        assert canon["value"] == "_StableRepr(n=3)"

    def test_bytes_are_hex_encoded(self):
        assert store._canonical(b"\x00\xff") == {"__bytes__": "00ff"}
        assert store._canonical(bytearray(b"ab")) == {"__bytes__": "6162"}

    def test_fingerprint_stable_across_processes(self, tmp_path):
        """The cross-process regression: same object fields, two fresh
        interpreters, one fingerprint."""
        script = tmp_path / "fp.py"
        script.write_text(
            "from repro.experiments import store\n"
            "class Cfg:\n"
            "    def __init__(self):\n"
            "        self.depth = 4\n"
            "        self.ways = [1, 2]\n"
            "print(store.fingerprint({'kind': 'xproc', 'cfg': Cfg()}))\n")

        def run_once() -> str:
            out = subprocess.run(
                [sys.executable, str(script)], capture_output=True,
                text=True, check=True,
                env={**os.environ, "PYTHONPATH": SRC,
                     "PYTHONHASHSEED": "random"})
            return out.stdout.strip()

        first, second = run_once(), run_once()
        assert first and first == second


# -- bug 2: load_trace corruption accounting + TOCTOU ------------------------

class TestTraceCorruption:
    def test_corrupt_trace_counts_corrupt_and_miss(self, fresh_store):
        trace = tracegen.get_trace("web_apache", n_records=4_000, scale=0.3)
        fp = store.fingerprint({"kind": "trace-corrupt"})
        path = fresh_store.save_trace(fp, trace)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        fresh_store.reset_counters()
        assert fresh_store.load_trace(fp) is None
        assert fresh_store.counters()["corrupt"] == 1
        assert fresh_store.counters()["misses"] == 1
        assert fresh_store.counters()["hits"] == 0

    def test_corrupt_trace_emits_telemetry(self, fresh_store):
        trace = tracegen.get_trace("web_apache", n_records=4_000, scale=0.3)
        fp = store.fingerprint({"kind": "trace-corrupt-tel"})
        path = fresh_store.save_trace(fp, trace)
        path.write_bytes(b"not an npz archive")
        events = []
        listener = telemetry.add_store_listener(
            lambda kind, fields: events.append((kind, fields)))
        try:
            assert fresh_store.load_trace(fp) is None
        finally:
            telemetry.remove_store_listener(listener)
        assert ("corrupt", {"entry": "trace", "fingerprint": fp}) in events

    def test_missing_trace_is_plain_miss(self, fresh_store):
        assert fresh_store.load_trace("f" * 32) is None
        assert fresh_store.counters()["misses"] == 1
        assert fresh_store.counters()["corrupt"] == 0

    def test_trace_vanishing_after_probe_is_a_miss(self, fresh_store,
                                                   monkeypatch):
        """The TOCTOU itself: no ``exists()`` window — a file vanishing
        before the open reads as a miss, never an unhandled error."""
        trace = tracegen.get_trace("web_apache", n_records=4_000, scale=0.3)
        fp = store.fingerprint({"kind": "trace-toctou"})
        path = fresh_store.save_trace(fp, trace)

        from repro.workloads import serialize
        real_load = serialize.load_trace

        def racing_load(p):
            Path(p).unlink(missing_ok=True)     # other process wins the race
            return real_load(p)

        monkeypatch.setattr(serialize, "load_trace", racing_load)
        fresh_store.reset_counters()
        assert fresh_store.load_trace(fp) is None
        assert fresh_store.counters()["misses"] == 1
        assert fresh_store.counters()["corrupt"] == 0
        assert path.exists() is False


# -- bug 3: append_jsonl atomicity under concurrent appenders ----------------

class TestAppendJsonlAtomicity:
    N_PROCS = 6
    N_LINES = 20
    # Far beyond the 8 KiB stdio buffer that made buffered writes tear.
    PAYLOAD = 32_768

    def test_multiprocess_hammer_no_torn_lines(self, tmp_path):
        target = tmp_path / "hammer.jsonl"
        script = tmp_path / "hammer.py"
        script.write_text(
            "import sys\n"
            "from pathlib import Path\n"
            "from repro.experiments.store import append_jsonl\n"
            "who, path = sys.argv[1], Path(sys.argv[2])\n"
            f"for i in range({self.N_LINES}):\n"
            f"    append_jsonl(path, {{'who': who, 'i': i,"
            f" 'pad': who * {self.PAYLOAD}}})\n")
        procs = [
            subprocess.Popen([sys.executable, str(script), f"p{n}",
                              str(target)],
                             env={**os.environ, "PYTHONPATH": SRC})
            for n in range(self.N_PROCS)
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        records = list(store.iter_jsonl(target))
        # Every line parsed — iter_jsonl skips torn lines, so a single
        # tear shows up as a missing record here.
        assert len(records) == self.N_PROCS * self.N_LINES
        for record in records:
            assert record["pad"] == record["who"] * self.PAYLOAD
        seen = {(r["who"], r["i"]) for r in records}
        assert len(seen) == self.N_PROCS * self.N_LINES

    def test_append_single_write_visible(self, tmp_path):
        path = tmp_path / "one.jsonl"
        store.append_jsonl(path, {"a": 1})
        store.append_jsonl(path, {"b": 2})
        assert list(store.iter_jsonl(path)) == [{"a": 1}, {"b": 2}]


# -- bug 4: get_store() re-point keeps counters; counters thread-safe --------

class TestStoreRepoint:
    def test_counters_carry_over_on_repoint(self, tmp_path, monkeypatch):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv(store.ENV_CACHE_DIR, str(dir_a))
        store.reset_store()
        first = store.get_store()
        first.save_result(store.fingerprint({"kind": "re", "x": 1}),
                          FrontendStats(), {})
        assert first.counters()["writes"] == 1
        monkeypatch.setenv(store.ENV_CACHE_DIR, str(dir_b))
        second = store.get_store()
        assert second is not first
        assert second.root == dir_b
        # The session total survives the re-point (it used to reset).
        assert second.counters()["writes"] == 1
        store.reset_store()

    def test_repoint_emits_telemetry(self, tmp_path, monkeypatch):
        monkeypatch.setenv(store.ENV_CACHE_DIR, str(tmp_path / "a"))
        store.reset_store()
        store.get_store()
        events = []
        listener = telemetry.add_store_listener(
            lambda kind, fields: events.append((kind, fields)))
        try:
            monkeypatch.setenv(store.ENV_CACHE_DIR, str(tmp_path / "b"))
            store.get_store()
        finally:
            telemetry.remove_store_listener(listener)
            store.reset_store()
        repoints = [fields for kind, fields in events if kind == "repoint"]
        assert len(repoints) == 1
        assert repoints[0]["old_root"].endswith("a")
        assert repoints[0]["new_root"].endswith("b")
        assert "carried" in repoints[0]

    def test_stable_root_keeps_singleton(self, fresh_store):
        assert store.get_store() is fresh_store

    def test_counters_thread_safe(self, fresh_store):
        n_threads, n_bumps = 8, 2_500

        def bump():
            for _ in range(n_bumps):
                fresh_store._bump("hits")

        threads = [threading.Thread(target=bump) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert fresh_store.counters()["hits"] == n_threads * n_bumps


class TestStoreEventBus:
    def test_counts_and_listener_isolation(self):
        before = telemetry.store_event_counts().get("unit-test-kind", 0)
        errors = REGISTRY.totals().get(
            "repro_store_listener_errors_total", 0)
        seen = []
        ok = telemetry.add_store_listener(
            lambda kind, fields: seen.append((kind, fields)))

        def broken(kind, fields):
            raise RuntimeError("listener bug")

        telemetry.add_store_listener(broken)
        try:
            telemetry.store_event("unit-test-kind", detail=7)
        finally:
            telemetry.remove_store_listener(ok)
            telemetry.remove_store_listener(broken)
        assert telemetry.store_event_counts()["unit-test-kind"] == before + 1
        # The broken listener neither blocked the event nor the others,
        # and its exception was counted, not lost.
        assert seen == [("unit-test-kind", {"detail": 7})]
        assert REGISTRY.totals()["repro_store_listener_errors_total"] == \
            errors + 1

    def test_remove_unknown_listener_is_noop(self):
        telemetry.remove_store_listener(lambda kind, fields: None)

    def test_concurrent_events_count_exactly(self):
        """Regression for the unlocked ``Counter.__iadd__`` bump: the
        service publishes store events from ``to_thread`` workers while
        the loop thread reads, so increments must not lose updates."""
        import threading

        kind = "unit-test-race-kind"
        before = telemetry.store_event_counts().get(kind, 0)
        n_threads, n_events = 8, 250

        def hammer():
            for _ in range(n_events):
                telemetry.store_event(kind)

        threads = [threading.Thread(target=hammer)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        counts = telemetry.store_event_counts()
        assert counts[kind] == before + n_threads * n_events

    def test_counts_snapshot_is_sorted_copy(self):
        telemetry.store_event("unit-test-kind")
        counts = telemetry.store_event_counts()
        assert list(counts) == sorted(counts)
        counts["unit-test-kind"] = -1   # mutating the copy is harmless
        assert telemetry.store_event_counts()["unit-test-kind"] >= 1
