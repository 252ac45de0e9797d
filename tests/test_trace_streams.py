"""Trace streams: every length of a trace is a prefix of one walk.

A trace of n records is the first n records of every longer trace of
the same ``(workload, scale, ISA, sample)``, so :func:`get_trace` keeps
one resumable walk per stream and the store keeps one entry per stream.
These tests bind every trace ``get_trace`` returns to a fresh walk, and
cover the concurrency the served path puts on a stream and on a program
build: worker threads of one process, and pool workers forked while a
thread is mid-walk, mid-build or midway through loading numpy.  The
per-length trace memo is bounded.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import runner, store
from repro.obs.metrics import REGISTRY
from repro.workloads import FetchRecord, TraceGenerator, get_profile, tracegen

SRC = str(Path(tracegen.__file__).resolve().parents[2])

WORKLOAD = "web_frontend"
SCALE = 0.05
MAX_RECORDS = 1_500


@pytest.fixture()
def fresh_store(tmp_path, monkeypatch):
    monkeypatch.setenv(store.ENV_CACHE_DIR, str(tmp_path))
    monkeypatch.delenv(store.ENV_CACHE_DISABLE, raising=False)
    monkeypatch.delenv(store.ENV_CACHE_BUDGET, raising=False)
    store.reset_store()
    runner.clear_cache()
    tracegen.clear_cache()
    yield store.get_store()
    store.reset_store()
    runner.clear_cache()
    tracegen.clear_cache()


@pytest.fixture(scope="module")
def reference():
    """Generators built apart from the memo, walked afresh per call."""
    return {vl: TraceGenerator(get_profile(WORKLOAD), scale=SCALE,
                               variable_length=vl)
            for vl in (False, True)}


def assert_same(trace, expected):
    assert len(trace) == len(expected)
    for a, b in zip(trace, expected):
        assert all(getattr(a, f) == getattr(b, f)
                   for f in FetchRecord.__slots__), (a, b)


@st.composite
def request_plans(draw):
    """``(sample, n_records, forget)`` requests: lengths as drawn,
    ascending, descending or each repeated, interleaved over two
    samples; ``forget`` drops the process's streams first, so the
    request is served from the store or walked from the start."""
    lengths = draw(st.lists(st.integers(1, MAX_RECORDS), min_size=1,
                            max_size=6))
    order = draw(st.sampled_from(
        ("drawn", "ascending", "descending", "repeated")))
    if order == "ascending":
        lengths.sort()
    elif order == "descending":
        lengths.sort(reverse=True)
    elif order == "repeated":
        lengths = [n for n in lengths for _ in (0, 1)]
    k = len(lengths)
    samples = draw(st.lists(st.sampled_from((0, 1)), min_size=k,
                            max_size=k))
    forget = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    return list(zip(samples, lengths, forget))


class TestPrefixProperty:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(plan=request_plans(), variable_length=st.booleans())
    def test_every_trace_is_a_fresh_walk(self, plan, variable_length,
                                         fresh_store, reference):
        tracegen.clear_cache()
        for sample, n, forget in plan:
            if forget:
                tracegen.clear_cache()
            trace = tracegen.get_trace(WORKLOAD, n_records=n, scale=SCALE,
                                       variable_length=variable_length,
                                       sample=sample)
            assert_same(trace, reference[variable_length].generate(
                n, sample=sample))

    def test_nonpositive_length_is_rejected(self, fresh_store):
        tracegen.get_trace(WORKLOAD, n_records=100, scale=SCALE)
        for n in (0, -1):
            with pytest.raises(ValueError):
                tracegen.get_trace(WORKLOAD, n_records=n, scale=SCALE)

    def test_walk_of_another_sample_is_rejected(self, reference):
        gen = reference[False]
        with pytest.raises(ValueError):
            gen.generate(10, sample=1, walk=gen.start_walk(0))


class TestThreads:
    def test_four_threads_on_one_stream(self, fresh_store, reference,
                                        monkeypatch):
        lengths = (3_000, 700, 5_000, 1_200)
        expected = {n: reference[False].generate(n) for n in lengths}
        starts = []
        real_start, real_generate = (TraceGenerator.start_walk,
                                     TraceGenerator.generate)

        def start_walk(gen, *args, **kwargs):
            starts.append(args)
            return real_start(gen, *args, **kwargs)

        def slow_generate(gen, *args, **kwargs):
            time.sleep(0.05)    # the other threads arrive mid-walk
            return real_generate(gen, *args, **kwargs)

        monkeypatch.setattr(TraceGenerator, "start_walk", start_walk)
        monkeypatch.setattr(TraceGenerator, "generate", slow_generate)
        barrier = threading.Barrier(len(lengths))
        got = {}

        def request(n):
            barrier.wait(timeout=60)
            got[n] = tracegen.get_trace(WORKLOAD, n_records=n, scale=SCALE)

        run_threads(request, [(n,) for n in lengths])
        # One walk served every thread: the others waited and resumed
        # or sliced it.
        assert len(starts) == 1
        for n in lengths:
            assert_same(got[n], expected[n])


def run_threads(target, args_list, timeout=120):
    """Run ``target`` once per args tuple, each in its own thread, with
    a short switch interval so the threads interleave finely."""
    threads = [threading.Thread(target=target, args=args)
               for args in args_list]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=timeout)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)


class TestBuilds:
    def test_two_threads_build_one_program_once(self, fresh_store,
                                                 monkeypatch):
        layouts = []
        real_layout = tracegen.layout_program

        def slow_layout(*args, **kwargs):
            layouts.append(args)
            time.sleep(0.05)    # the other thread arrives mid-build
            return real_layout(*args, **kwargs)

        monkeypatch.setattr(tracegen, "layout_program", slow_layout)
        builds = REGISTRY.values("repro_program_builds_total")
        label = (("workload", WORKLOAD),)
        barrier = threading.Barrier(2)
        got = []

        def request():
            barrier.wait(timeout=60)
            got.append(tracegen.get_generator(WORKLOAD, scale=SCALE))

        run_threads(request, [(), ()])
        assert len(layouts) == 1
        assert len(got) == 2 and got[0] is got[1]
        after = REGISTRY.values("repro_program_builds_total")
        assert after[label] - builds.get(label, 0.0) == 1


class TestTraceMemo:
    def test_bounded_and_keeps_the_length_just_used(self, fresh_store):
        for n in range(1_000, 1_040):
            trace = tracegen.get_trace(WORKLOAD, n_records=n, scale=SCALE)
            # A job's baseline and scheme ask for one length in turn and
            # share this trace, so they share its engine views.
            assert tracegen.get_trace(WORKLOAD, n_records=n,
                                      scale=SCALE) is trace
            assert len(tracegen._TRACES) <= tracegen._TRACES_MAX
        assert len(tracegen._TRACES) == tracegen._TRACES_MAX


# A thread holds a lock, blocked inside a walk, a build or an import
# (``hold``), while run_many forks pool workers that need the same
# program and a shorter trace of the stream.  ``unhold`` runs once the
# holder is inside.
_FORK_SCENARIO = """
import json, sys, threading
from dataclasses import asdict
from repro.experiments import runner
from repro.experiments.parallel import run_many
from repro.workloads import TraceGenerator, tracegen

entered, release = threading.Event(), threading.Event()
{hold}
holder = threading.Thread(target={call}, args=("web_frontend",),
                          kwargs={kwargs})
holder.start()
entered.wait()
{unhold}
specs = [("web_frontend", "nl"), ("web_frontend", "n2l")]
pooled = run_many(specs, jobs=2, n_records=3000, scale=0.3)
release.set()
holder.join()
runner.clear_cache()
serial = run_many(specs, jobs=1, n_records=3000, scale=0.3)
print(json.dumps([[asdict(r.stats) for r in rs] for rs in (pooled, serial)]))
"""

# ``{fn}`` waits for the release once the holder is inside it; the pool
# workers call the real one.
_HOLD_IN_CALL = """
real = {fn}

def held(*args, **kwargs):
    entered.set()
    release.wait()
    return real(*args, **kwargs)

{fn} = held
"""

# The holder's first import of ``{module}`` waits midway, with its
# import lock held, and goes on a second after the holder is inside, so
# a pool that forks without waiting for the import forks inside it.
_HOLD_IN_IMPORT = """
assert "{module}" not in sys.modules

class Held:
    def find_spec(self, name, path=None, target=None):
        if name == "{module}":
            sys.meta_path.remove(self)
            entered.set()
            release.wait()

sys.meta_path.insert(0, Held())
"""
_RELEASE_LATER = "threading.Timer(1.0, release.set).start()"


def run_fork_scenario(hold, unhold, call, kwargs, what):
    env = {**os.environ, "PYTHONPATH": SRC, store.ENV_CACHE_DISABLE: "1"}
    scenario = _FORK_SCENARIO.format(hold=hold, unhold=unhold, call=call,
                                     kwargs=kwargs)
    # Its own session, so a hung pool worker dies with the scenario.
    proc = subprocess.Popen([sys.executable, "-c", scenario],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"a pool worker forked mid-{what} hung on its lock")
    assert proc.returncode == 0, err
    pooled, serial = json.loads(out)
    assert pooled == serial


class TestFork:
    def test_pool_forked_mid_walk(self):
        fn = "TraceGenerator.generate"
        run_fork_scenario(_HOLD_IN_CALL.format(fn=fn), f"{fn} = real",
                          "tracegen.get_trace",
                          '{"n_records": 9000, "scale": 0.3}', "walk")

    def test_pool_forked_mid_build(self):
        fn = "tracegen.layout_program"
        run_fork_scenario(_HOLD_IN_CALL.format(fn=fn), f"{fn} = real",
                          "tracegen.get_generator", '{"scale": 0.3}',
                          "build")

    # numpy loads on a program's first build: ``numpy._core`` midway
    # through ``import numpy``, and ``numpy.random`` (which numpy
    # itself loads on first use) at the build's first seeded draw.
    @pytest.mark.parametrize("module", ["numpy._core", "numpy.random"])
    def test_pool_forked_mid_numpy_import(self, module):
        run_fork_scenario(_HOLD_IN_IMPORT.format(module=module),
                          _RELEASE_LATER, "tracegen.get_generator",
                          '{"scale": 0.3}', f"import of {module}")

    # A store miss imports the simulator on a job's thread; a pool the
    # main thread forks meanwhile must wait for that import to finish.
    def test_pool_forked_mid_simulator_import(self):
        module = "repro.core.proactive"
        run_fork_scenario(
            _HOLD_IN_IMPORT.format(module=module), _RELEASE_LATER,
            "runner.run_scheme",
            '{"scheme": "sn4l_dis_btb", "n_records": 3000, "scale": 0.3}',
            f"import of {module}")


class TestStore:
    """One entry per stream, after the process forgot its streams."""

    @pytest.fixture()
    def walks(self, monkeypatch):
        calls = []
        real = TraceGenerator.generate

        def counting(gen, n_records, *args, **kwargs):
            calls.append(n_records)
            return real(gen, n_records, *args, **kwargs)

        monkeypatch.setattr(TraceGenerator, "generate", counting)
        return calls

    def test_shorter_length_is_a_hit_without_a_walk(self, fresh_store,
                                                    walks, reference):
        tracegen.get_trace(WORKLOAD, n_records=1_000, scale=SCALE)
        tracegen.clear_cache()
        fresh_store.reset_counters()
        walks.clear()
        trace = tracegen.get_trace(WORKLOAD, n_records=600, scale=SCALE)
        assert walks == []
        counts = fresh_store.counters()
        assert counts["hits"] == 1 and counts["writes"] == 0
        assert_same(trace, reference[False].generate(600))

    def test_longer_length_walks_and_writes_once(self, fresh_store, walks,
                                                 reference):
        tracegen.get_trace(WORKLOAD, n_records=600, scale=SCALE)
        tracegen.clear_cache()
        fresh_store.reset_counters()
        walks.clear()
        trace = tracegen.get_trace(WORKLOAD, n_records=1_000, scale=SCALE)
        assert walks == [1_000]
        counts = fresh_store.counters()
        assert counts["misses"] == 1 and counts["hits"] == 0
        assert counts["writes"] == 1
        # The rewritten entry now serves the longer length.
        tracegen.clear_cache()
        again = tracegen.get_trace(WORKLOAD, n_records=1_000, scale=SCALE)
        assert walks == [1_000]
        assert fresh_store.counters()["hits"] == 1
        expected = reference[False].generate(1_000)
        assert_same(trace, expected)
        assert_same(again, expected)

    def test_corrupt_entry_is_counted_and_walked_again(self, fresh_store,
                                                       walks, reference):
        tracegen.get_trace(WORKLOAD, n_records=1_000, scale=SCALE)
        (path,) = (fresh_store.root / "traces").glob("*/*.npz")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        tracegen.clear_cache()
        fresh_store.reset_counters()
        walks.clear()
        trace = tracegen.get_trace(WORKLOAD, n_records=600, scale=SCALE)
        assert walks == [600]
        counts = fresh_store.counters()
        assert counts["corrupt"] == 1 and counts["writes"] == 1
        assert_same(trace, reference[False].generate(600))
