"""The cyclic collector stays off the cold path, and runs free themselves.

Building a program, walking its trace and simulating make no cyclic
garbage, so they run under one process-wide pause of the collector
(:func:`repro._gcpause.gc_paused`).  A slim ``run_scheme`` closes its
simulator, which detaches the prefetcher: the simulator and everything
it built are then freed by reference counting, and the collector finds
nothing to reclaim.
"""

import gc
import threading

import pytest

from repro._gcpause import gc_paused
from repro.core import SeqTable, Sn4lPrefetcher
from repro.experiments import parallel, runner
from repro.frontend import FrontendSimulator
from repro.prefetchers.base import Prefetcher
from repro.workloads import tracegen

WORKLOAD = "web_frontend"
SCALE = 0.05
RECORDS = 1_500

SLIM = dict(n_records=RECORDS, scale=SCALE, use_cache=False,
            persistent=False)


@pytest.fixture(scope="module")
def program():
    """The program and trace every run below shares, built (and the
    simulator imported) before any test counts garbage."""
    runner.run_scheme(WORKLOAD, "baseline", **SLIM)
    return (tracegen.get_generator(WORKLOAD, scale=SCALE).program,
            tracegen.get_trace(WORKLOAD, n_records=RECORDS, scale=SCALE))


class _Gate(Prefetcher):
    """Holds its simulator's run at the first demand access until
    released."""

    def __init__(self) -> None:
        super().__init__()
        self.inside = threading.Event()
        self.release = threading.Event()

    def on_demand(self, index, record, outcome, cycle) -> None:
        if not self.inside.is_set():
            self.inside.set()
            assert self.release.wait(timeout=60)


def _collector_states():
    """In a pool worker: the collector's state before, inside and after
    a pause."""
    before = gc.isenabled()
    with gc_paused():
        inside = gc.isenabled()
    return before, inside, gc.isenabled()


class TestPause:
    @pytest.fixture()
    def gates(self, program):
        """Two gated simulations, each started in its own thread by
        ``start(i)``; every gate is released and the collector back on
        however the test ends."""
        _, trace = program
        gates = [_Gate(), _Gate()]
        threads = [threading.Thread(
            target=FrontendSimulator(trace, prefetcher=gate).run)
            for gate in gates]

        def start(i):
            threads[i].start()
            assert gates[i].inside.wait(timeout=60)

        assert gc.isenabled()
        try:
            yield gates, threads, start
        finally:
            for gate in gates:
                gate.release.set()
            for thread in threads:
                if thread.is_alive():
                    thread.join(timeout=60)
            gc.enable()

    def test_overlapping_runs_keep_the_collector_off(self, gates):
        """Two served jobs' simulations overlap: the first to finish
        must not turn the collector back on under the second."""
        (first, second), threads, start = gates
        start(0)
        start(1)
        assert not gc.isenabled()
        first.release.set()
        threads[0].join(timeout=60)
        assert not gc.isenabled()
        second.release.set()
        threads[1].join(timeout=60)
        assert gc.isenabled()

    def test_pool_forked_during_a_run_starts_with_the_collector_on(
            self, gates):
        """A served compare's ``run_many(jobs=2)`` forks while another
        job's simulation holds the pause: the worker has no thread that
        would end it."""
        (first, _), threads, start = gates
        start(0)
        assert not gc.isenabled()
        with parallel._pool(1) as pool:
            states = pool.submit(_collector_states).result(timeout=60)
        assert states == (True, False, True)
        first.release.set()
        threads[0].join(timeout=60)
        assert gc.isenabled()

    def test_nested_pause_restores_a_disabled_collector(self):
        gc.disable()
        try:
            with gc_paused():
                with gc_paused():
                    assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestNoCollections:
    def test_build_and_walk_start_no_collection(self, program):
        """No collection starts while a program builds or its trace is
        walked.  What they allocated is scanned once, by the first
        collection after them; each step starts from a full collection,
        so none is due as it begins."""
        starts = []
        inside = None

        def probe(phase, info):
            if phase == "start" and inside is not None:
                starts.append(inside)

        tracegen.clear_cache()
        gc.callbacks.append(probe)
        try:
            gc.collect()
            inside = "build"
            gen = tracegen.get_generator(WORKLOAD, scale=SCALE)
            inside = None
            gc.collect()
            inside = "walk"
            gen.generate(RECORDS)
            inside = None
        finally:
            gc.callbacks.remove(probe)
        assert starts == []


class TestSelfFreeingRuns:
    @pytest.mark.parametrize("scheme", runner.scheme_names())
    def test_slim_run_leaves_no_cyclic_garbage(self, program, scheme):
        gc.collect()
        runner.run_scheme(WORKLOAD, scheme, **SLIM)
        assert gc.collect() == 0

    def test_keep_simulator_returns_a_live_simulator(self, program):
        result = runner.run_scheme(WORKLOAD, "sn4l_dis_btb",
                                   keep_simulator=True, **SLIM)
        sim, prefetcher = result.simulator, result.prefetcher
        assert sim.prefetcher is prefetcher and prefetcher.sim is sim
        assert "on_demand" in vars(prefetcher)      # compiled hooks bound
        assert sim.stats is result.stats
        assert sim.btb_prefetch_buffer.inserts > 0

    def test_factory_prefetcher_is_detached_not_cleared(self, program):
        table = SeqTable(1024)
        prefetcher = Sn4lPrefetcher(seqtable=table)
        result = runner.run_scheme(WORKLOAD, "sn4l",
                                   prefetcher_factory=lambda: prefetcher,
                                   **SLIM)
        assert result.simulator is None
        assert prefetcher.sim is None and prefetcher.telemetry is None
        assert prefetcher.seqtable is table and table.lookups > 0
