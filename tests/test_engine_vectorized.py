"""Vectorized engine core: bit-identity against the generic loop.

The vectorized region-stepping span loop (and the compiled prefetcher
hot path underneath it) exists purely for simulation speed; behaviour
must be indistinguishable from the readable per-record reference.  These
tests pin that down three ways:

* a **behaviour digest** — the full ``FrontendStats`` plus every
  prefetcher/BTB/predictor/LLC/MSHR structure counter — must be equal
  between ``run()`` and ``run(fast=False)`` for *every* registered
  scheme on two contrasting workload profiles;
* the compiled hot path (``repro.core.proactive``) must match its
  uncompiled reference (``COMPILE_HOT_PATH`` off);
* the SoA view must snapshot its records and derive the per-run arrays
  exactly as the generic loop computes them per record.

Trace reconciliation (event stream vs aggregate counters) across all
schemes rides in the same module because the event-logged run exercises
the vectorized loop's slow legs.
"""

import pytest

from repro.core.proactive import ProactivePrefetcher
import repro.core.proactive as pa
from repro.experiments.runner import build_scheme, scheme_names
from repro.frontend import FrontendConfig, FrontendSimulator
from repro.obs import reconcile, trace_run
from repro.workloads import FetchRecord, get_generator, get_trace
from repro.workloads.soa import engine_view

WORKLOADS = ("web_frontend", "oltp_db_a")
N = 1600
WARMUP = 500


def _digest(sim, prefetcher):
    """Every externally observable counter of one finished simulation.

    ``extra["engine_path"]`` names the loop that produced the numbers —
    the one legitimate difference — so it is masked out.
    """
    from dataclasses import asdict

    stats = asdict(sim.stats)
    stats["extra"] = {k: v for k, v in stats["extra"].items()
                      if k != "engine_path"}
    out = {"stats": stats}
    if isinstance(prefetcher, ProactivePrefetcher):
        out["proactive"] = {
            "rlu": (prefetcher.rlu.hits, prefetcher.rlu.misses),
            "distable": (prefetcher.distable.lookups,
                         prefetcher.distable.hits,
                         prefetcher.distable.false_hits),
            "seqtable_lookups": prefetcher.seqtable.lookups,
            "predecodes": prefetcher.predecodes,
            "candidates": prefetcher.dis_prefetch_candidates,
            "dropped": (prefetcher.seq_queue.dropped,
                        prefetcher.dis_queue.dropped),
        }
    bpb = sim.btb_prefetch_buffer
    if bpb is not None:
        out["bpb"] = (bpb.hits, bpb.misses, bpb.inserts, bpb.occupancy())
    out["mshr_dropped"] = sim.mshr.prefetches_dropped_full
    out["predictor"] = (sim.predictor.predictions,
                        sim.predictor.mispredictions,
                        getattr(sim.predictor, "_history", None))
    occupancy = getattr(sim.btb, "occupancy", None)
    out["btb"] = (sim.btb.hits, sim.btb.misses,
                  occupancy() if occupancy is not None else None)
    out["llc"] = (sim.llc.instruction_hits, sim.llc.instruction_misses,
                  sim.llc.occupancy())
    return out


def _run(scheme, workload, fast=True):
    prefetcher, overrides = build_scheme(scheme)
    sim = FrontendSimulator(
        get_trace(workload, n_records=N),
        config=FrontendConfig(**overrides),
        prefetcher=prefetcher,
        program=get_generator(workload).program)
    sim.run(warmup=WARMUP, fast=fast)
    return _digest(sim, prefetcher), sim.engine_path


@pytest.mark.parametrize("scheme", scheme_names())
def test_vectorized_digest_matches_generic(scheme):
    for workload in WORKLOADS:
        auto, auto_path = _run(scheme, workload)
        generic, generic_path = _run(scheme, workload, fast=False)
        assert generic_path == "generic"
        assert auto_path == "vectorized"
        assert auto == generic, (scheme, workload, auto_path)


@pytest.mark.parametrize("scheme", ("sn4l", "sn4l_dis", "sn4l_dis_btb"))
def test_compiled_hot_path_matches_reference(scheme, monkeypatch):
    compiled, _ = _run(scheme, "web_frontend")
    monkeypatch.setattr(pa, "COMPILE_HOT_PATH", False)
    reference, path = _run(scheme, "web_frontend")
    assert path == "vectorized"
    assert compiled == reference, scheme


@pytest.mark.parametrize("scheme", scheme_names())
@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_reconciles_on_default_path(scheme, workload, tmp_path):
    out = tmp_path / "events.jsonl"
    stats, counts = trace_run(workload, scheme, out, n_records=900)
    assert reconcile(stats, counts) == {}


class TestEngineView:
    def test_view_snapshot_does_not_alias_records(self):
        records = [FetchRecord(line=i * 64, first_pc=i * 64, n_instr=4,
                               seq=False) for i in range(8)]
        view = engine_view(records, 64, 64, 4)
        before = list(view.lines)
        records[0].line = records[0].line + 64
        assert view.lines == before

    def test_engine_view_derivations(self):
        records = get_trace("oltp_db_a", n_records=256).records
        view = engine_view(records, 64, 128, 4)
        assert view.keys == [r.line // 64 for r in records]
        assert view.set_idx == [k % 128 for k in view.keys]
        assert view.delivery == [-(-r.n_instr // 4) for r in records]
        positions = view.branch_positions
        assert positions == sorted(positions)
        assert positions == [i for i, r in enumerate(records)
                             if int(r.branch_kind)]
