"""Property-based tests: the simulator must survive and account
correctly for *any* well-formed fetch stream."""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sn4l_dis_btb
from repro.experiments.runner import build_scheme
from repro.frontend import FrontendConfig, FrontendSimulator
from repro.isa import CACHE_BLOCK_SIZE, BranchKind
from repro.prefetchers import NextXLinePrefetcher, TifsPrefetcher
from repro.workloads import FetchRecord, Trace, get_generator, mark_sequential

B = CACHE_BLOCK_SIZE

#: The no-prefetcher runs (the baseline every figure divides by and the
#: perfect-L1i oracles), plus prefetchers that exercise each inline leg
#: of the vectorized loop: next-line with and without an L1i prefetch
#: buffer, the proactive composite with its BTB prefetch buffer, a
#: BTB-directed and a temporal prefetcher.
CROSS_PATH_SCHEMES = ("baseline", "perfect_l1i", "perfect_l1i_btb", "n4l",
                      "nl_buf", "sn4l_dis_btb", "shotgun", "confluence")

# A small real program so pre-decoding prefetchers have bytes to parse.
_GEN = get_generator("web_frontend", scale=0.15)
_LINES = _GEN.program.lines()


@st.composite
def fetch_traces(draw):
    n = draw(st.integers(5, 120))
    records = []
    for _ in range(n):
        line = draw(st.sampled_from(_LINES))
        n_instr = draw(st.integers(1, 16))
        rec = FetchRecord(line=line, first_pc=line, n_instr=n_instr,
                          seq=False)
        if draw(st.booleans()):
            kind = draw(st.sampled_from([
                BranchKind.COND, BranchKind.JUMP, BranchKind.CALL,
                BranchKind.RETURN, BranchKind.INDIRECT]))
            rec.branch_pc = line + 4 * draw(st.integers(0, 15))
            rec.branch_kind = kind
            rec.branch_size = 4
            rec.taken = draw(st.booleans()) or kind in (
                BranchKind.JUMP, BranchKind.CALL)
            rec.branch_target = draw(st.sampled_from(_LINES))
        records.append(rec)
    mark_sequential(records)
    return Trace(records)


def check_invariants(stats):
    assert stats.demand_accesses == (stats.demand_hits +
                                     stats.demand_misses +
                                     stats.demand_late_prefetch)
    assert stats.seq_misses + stats.disc_misses == \
        stats.demand_misses + stats.demand_late_prefetch
    assert 0.0 <= stats.covered_latency <= stats.prefetched_latency + 1e-9
    assert stats.total_cycles >= stats.delivery_cycles
    assert stats.cache_lookups >= stats.demand_accesses


class TestEngineProperties:
    @given(trace=fetch_traces())
    @settings(max_examples=40, deadline=None)
    def test_baseline_invariants(self, trace):
        stats = FrontendSimulator(trace, program=_GEN.program).run()
        check_invariants(stats)
        assert stats.instructions == trace.n_instructions

    @given(trace=fetch_traces())
    @settings(max_examples=25, deadline=None)
    def test_nxl_invariants(self, trace):
        stats = FrontendSimulator(trace, program=_GEN.program,
                                  prefetcher=NextXLinePrefetcher(4)).run()
        check_invariants(stats)

    @given(trace=fetch_traces())
    @settings(max_examples=25, deadline=None)
    def test_full_scheme_invariants(self, trace):
        stats = FrontendSimulator(trace, program=_GEN.program,
                                  prefetcher=sn4l_dis_btb()).run()
        check_invariants(stats)
        assert stats.prefetches_useful + stats.prefetches_useless <= \
            stats.prefetches_issued

    @given(trace=fetch_traces())
    @settings(max_examples=25, deadline=None)
    def test_temporal_invariants(self, trace):
        stats = FrontendSimulator(trace, program=_GEN.program,
                                  prefetcher=TifsPrefetcher()).run()
        check_invariants(stats)

    @given(trace=fetch_traces(), warmup=st.integers(0, 60))
    @settings(max_examples=25, deadline=None)
    def test_warmup_never_breaks_accounting(self, trace, warmup):
        stats = FrontendSimulator(trace, program=_GEN.program).run(
            warmup=min(warmup, len(trace) - 1))
        check_invariants(stats)

    @given(trace=fetch_traces())
    @settings(max_examples=20, deadline=None)
    def test_prefetcher_never_slows_by_much(self, trace):
        """A prefetcher may waste bandwidth but the demand path must
        remain correct: cycles within 2x of baseline on any input."""
        base = FrontendSimulator(trace, program=_GEN.program).run()
        st_ = FrontendSimulator(trace, program=_GEN.program,
                                prefetcher=sn4l_dis_btb()).run()
        assert st_.total_cycles <= 2 * base.total_cycles + 100

    @given(trace=fetch_traces(), warmup=st.integers(0, 60),
           scheme=st.sampled_from(CROSS_PATH_SCHEMES))
    @settings(max_examples=40, deadline=None)
    def test_vectorized_matches_generic(self, trace, warmup, scheme):
        """Digests are identical across engine paths on any input."""
        runs = {}
        for fast, path in ((True, "vectorized"), (False, "generic")):
            prefetcher, overrides = build_scheme(scheme)
            sim = FrontendSimulator(trace, config=FrontendConfig(**overrides),
                                    prefetcher=prefetcher,
                                    program=_GEN.program)
            stats = asdict(sim.run(warmup=warmup, fast=fast))
            assert stats["extra"].pop("engine_path") == path
            runs[path] = stats
        assert runs["vectorized"] == runs["generic"]
