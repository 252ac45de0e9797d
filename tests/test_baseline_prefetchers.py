"""Behavioural tests for baseline prefetchers (NXL, discontinuity,
Confluence, Boomerang, Shotgun)."""

import pytest

from repro.frontend import FrontendSimulator
from repro.isa import BranchKind, CACHE_BLOCK_SIZE
from repro.prefetchers import (
    BoomerangPrefetcher,
    ConfluencePrefetcher,
    ConventionalDiscontinuityPrefetcher,
    DiscontinuityTable,
    NextXLinePrefetcher,
    ShiftHistory,
    ShotgunBtbAdapter,
    ShotgunPrefetcher,
    pseudo_random,
)
from repro.btb import ShotgunBtb
from repro.workloads import FetchRecord, Trace, get_generator, get_trace

B = CACHE_BLOCK_SIZE
SCALE = 0.3
RECORDS = 20_000


def rec(line_no, n=6, seq=False, **kw):
    addr = line_no * B
    return FetchRecord(line=addr, first_pc=addr, n_instr=n, seq=seq, **kw)


def run_small(prefetcher, workload="web_apache"):
    gen = get_generator(workload, scale=SCALE)
    trace = get_trace(workload, n_records=RECORDS, scale=SCALE)
    sim = FrontendSimulator(trace, prefetcher=prefetcher,
                            program=gen.program)
    return sim.run(warmup=RECORDS // 3), sim


@pytest.fixture(scope="module")
def baseline_stats():
    gen = get_generator("web_apache", scale=SCALE)
    trace = get_trace("web_apache", n_records=RECORDS, scale=SCALE)
    return FrontendSimulator(trace, program=gen.program).run(
        warmup=RECORDS // 3)


class TestNextLine:
    def test_prefetches_next_blocks(self):
        pf = NextXLinePrefetcher(2)
        sim = FrontendSimulator(Trace([rec(1)]), prefetcher=pf)
        sim.run()
        assert sim.in_flight(2 * B)
        assert sim.in_flight(3 * B)
        assert not sim.in_flight(4 * B)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            NextXLinePrefetcher(0)

    def test_deeper_is_timelier(self, baseline_stats):
        nl, _ = run_small(NextXLinePrefetcher(1))
        n4l, _ = run_small(NextXLinePrefetcher(4))
        assert n4l.cmal > nl.cmal
        assert n4l.coverage_over(baseline_stats) > \
            nl.coverage_over(baseline_stats)

    def test_deeper_is_less_accurate(self):
        nl, _ = run_small(NextXLinePrefetcher(1))
        n8l, _ = run_small(NextXLinePrefetcher(8))
        assert n8l.prefetch_accuracy < nl.prefetch_accuracy

    def test_deeper_uses_more_bandwidth(self):
        _, sim1 = run_small(NextXLinePrefetcher(1))
        _, sim8 = run_small(NextXLinePrefetcher(8))
        assert sim8.latency.requests > sim1.latency.requests

    def test_buffer_variant_installs_buffer(self):
        pf = NextXLinePrefetcher(4, use_buffer=True)
        sim = FrontendSimulator(Trace([rec(1)]), prefetcher=pf)
        assert sim.l1_prefetch_buffer is not None
        sim.run()
        assert pf.storage_bytes() > 0


class TestDiscontinuityTable:
    def test_record_lookup(self):
        t = DiscontinuityTable(64, tag_bits=0)
        t.record(0x1000, 0x9000)
        assert t.lookup(0x1000) == 0x9000

    def test_tagless_aliases(self):
        t = DiscontinuityTable(64, tag_bits=0)
        t.record(0x1000, 0x9000)
        assert t.lookup(0x1000 + 64 * 64) == 0x9000
        assert t.false_hits == 1

    def test_full_tag_rejects_alias(self):
        t = DiscontinuityTable(64, tag_bits=None)
        t.record(0x1000, 0x9000)
        assert t.lookup(0x1000 + 64 * 64) is None


class TestConventionalDiscontinuity:
    def test_learns_and_replays(self):
        pf = ConventionalDiscontinuityPrefetcher()
        # A -> X discontinuity, then A again: X should be prefetched.
        records = [rec(1), rec(100), rec(1), rec(200)]
        sim = FrontendSimulator(Trace(records), prefetcher=pf)
        sim.run()
        # The replay on the third record prefetched the learned target...
        assert sim.l1i.contains(100 * B) or sim.in_flight(100 * B)
        # ...and the fourth record's miss retrained the entry.
        assert pf.table.lookup(1 * B) == 200 * B

    def test_improves_over_baseline(self, baseline_stats):
        st, _ = run_small(ConventionalDiscontinuityPrefetcher())
        assert st.coverage_over(baseline_stats) > 0.02


class TestShiftHistory:
    def test_record_dedups_consecutive(self):
        h = ShiftHistory(16)
        h.record(1)
        h.record(1)
        h.record(2)
        assert h.position_of(1) == 0
        assert h.position_of(2) == 1

    def test_read_follows_record(self):
        h = ShiftHistory(16)
        for line in (1, 2, 3):
            h.record(line)
        pos = h.position_of(1)
        assert h.read(pos + 1) == 2
        assert h.read(pos + 2) == 3

    def test_wraparound(self):
        h = ShiftHistory(4)
        for line in range(10):
            h.record(line)
        assert h.position_of(0) is None  # overwritten
        assert h.position_of(9) is not None

    def test_unwritten_reads_none(self):
        h = ShiftHistory(16)
        h.record(1)
        assert h.read(5) is None


class TestConfluence:
    def test_replaces_btb_with_16k(self):
        pf = ConfluencePrefetcher()
        sim = FrontendSimulator(Trace([rec(1)]), prefetcher=pf)
        assert sim.btb.n_entries == 16 * 1024

    def test_stream_replay_covers_repeats(self, baseline_stats):
        st, _ = run_small(ConfluencePrefetcher())
        assert st.coverage_over(baseline_stats) > 0.3
        assert st.speedup_over(baseline_stats) > 1.05


class TestRunaheadCommon:
    def test_pseudo_random_deterministic(self):
        assert pseudo_random(0x1234, 7) == pseudo_random(0x1234, 7)
        assert 0.0 <= pseudo_random(0x1234, 7) < 1.0

    def test_runahead_stops_at_ctx_switch(self):
        pf = BoomerangPrefetcher()
        records = [rec(i) for i in range(10)]
        records[4].ctx_switch = True
        sim = FrontendSimulator(Trace(records), prefetcher=pf)
        sim.run()
        assert pf._ra_idx >= 4  # advanced to the boundary at least


class TestBoomerang:
    def test_improves_over_baseline(self, baseline_stats):
        st, _ = run_small(BoomerangPrefetcher())
        assert st.speedup_over(baseline_stats) > 1.05
        assert st.coverage_over(baseline_stats) > 0.3

    def test_btb_misses_block_runahead(self):
        pf, _ = run_small(BoomerangPrefetcher())[1].prefetcher, None
        assert pf.runahead_btb_misses > 0

    def test_prefill_on_btb_miss(self):
        st, sim = run_small(BoomerangPrefetcher())
        assert sim.prefetcher.predecode_fills > 0


class TestShotgun:
    def test_structures_installed(self):
        pf = ShotgunPrefetcher()
        sim = FrontendSimulator(Trace([rec(1)]), prefetcher=pf)
        assert isinstance(sim.btb, ShotgunBtbAdapter)
        assert sim.l1_prefetch_buffer is not None
        assert sim.btb_prefetch_buffer is not None

    def test_adapter_routes_kinds(self):
        adapter = ShotgunBtbAdapter(ShotgunBtb(64, 32, 32))
        adapter.insert(0x10, 0x100, BranchKind.COND)
        adapter.insert(0x20, 0x200, BranchKind.CALL)
        adapter.insert(0x30, 0, BranchKind.RETURN)
        assert adapter.lookup(0x10).target == 0x100
        assert adapter.lookup(0x20).target == 0x200
        assert adapter.lookup(0x30).kind is BranchKind.RETURN
        assert adapter.lookup(0x99) is None
        assert adapter.hits == 3 and adapter.misses == 1

    def test_improves_over_baseline(self, baseline_stats):
        st, _ = run_small(ShotgunPrefetcher())
        assert st.speedup_over(baseline_stats) > 1.05

    def test_footprint_machinery_active(self):
        st, sim = run_small(ShotgunPrefetcher())
        pf = sim.prefetcher
        assert pf.footprint_prefetches > 0
        assert pf.proactive_prefills > 0
        assert 0.0 < pf.footprint_miss_ratio < 1.0

    def test_empty_ftq_stalls_recorded(self):
        st, _ = run_small(ShotgunPrefetcher())
        assert st.empty_ftq_stall_cycles > 0

    def test_smaller_ubtb_more_footprint_misses(self):
        big = ShotgunPrefetcher(u_entries=1536)
        small = ShotgunPrefetcher(u_entries=192)
        run_small(big)
        run_small(small)
        # About 0.19 against 0.65 at this size (Fig. 1's trend).
        assert small.footprint_miss_ratio > big.footprint_miss_ratio

    def test_storage_in_paper_range(self):
        # The paper quotes ~6 KB; our accounting also charges the L1i
        # prefetch buffer's data array, landing somewhat higher.
        pf = ShotgunPrefetcher()
        _, sim = run_small(pf)
        kb = pf.storage_bytes() / 1024
        assert 4.0 < kb < 16.0
