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
* the registered proactive schemes, built for the fixed-length ISA,
  must run on a variable-length program with the counters of the
  original implementation;
* the SoA view must snapshot its records and derive the per-run arrays
  exactly as the generic loop computes them per record.

Trace reconciliation (event stream vs aggregate counters) across all
schemes rides in the same module because the event-logged run exercises
the vectorized loop's slow legs.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.core.proactive import ProactivePrefetcher
import repro.core.proactive as pa
from repro.experiments.runner import build_scheme, run_scheme, scheme_names
from repro.frontend import FrontendConfig, FrontendSimulator
from repro.obs import reconcile, trace_run
from repro.workloads import FetchRecord, get_generator, get_trace
from repro.workloads.soa import engine_view

WORKLOADS = ("web_frontend", "oltp_db_a")
#: (workload, variable_length): the two fixed-ISA profiles plus one
#: variable-length program.
PROGRAMS = tuple((w, False) for w in WORKLOADS) + (("web_frontend", True),)
N = 1600
WARMUP = 500


def _digest(sim, prefetcher):
    """Every externally observable counter of one finished simulation.

    ``extra["engine_path"]`` names the loop that produced the numbers —
    the one legitimate difference — so it is masked out.
    """
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


def _run(scheme, program, fast=True):
    workload, variable_length = program
    prefetcher, overrides = build_scheme(scheme)
    sim = FrontendSimulator(
        get_trace(workload, n_records=N, variable_length=variable_length),
        config=FrontendConfig(**overrides),
        prefetcher=prefetcher,
        program=get_generator(workload,
                              variable_length=variable_length).program)
    sim.run(warmup=WARMUP, fast=fast)
    return _digest(sim, prefetcher), sim.engine_path


@pytest.mark.parametrize("scheme", scheme_names())
def test_vectorized_digest_matches_generic(scheme):
    for program in PROGRAMS:
        auto, auto_path = _run(scheme, program)
        generic, generic_path = _run(scheme, program, fast=False)
        assert generic_path == "generic"
        assert auto_path == "vectorized"
        assert auto == generic, (scheme, program, auto_path)


@pytest.mark.parametrize("scheme", ("sn4l", "sn4l_dis", "sn4l_dis_btb"))
def test_compiled_hot_path_matches_reference(scheme, monkeypatch):
    for program in (("web_frontend", False), ("web_frontend", True)):
        monkeypatch.setattr(pa, "COMPILE_HOT_PATH", True)
        compiled, _ = _run(scheme, program)
        monkeypatch.setattr(pa, "COMPILE_HOT_PATH", False)
        reference, path = _run(scheme, program)
        assert path == "vectorized"
        assert compiled == reference, (scheme, program)


#: Counters of the original implementation (commit dbc0f5d) for the
#: registered proactive schemes on a variable-length web_apache
#: program: sha256 of the ``FrontendStats`` fields (``extra`` left
#: out), total cycles and prefetches issued.  These schemes build their
#: prefetcher for the fixed-length ISA; on a variable-length program it
#: reads no DV-LLC footprint and decodes only at the DisTable offset.
VL_SEED_DIGESTS = {
    "dis": ("6ed2018cb671ec02c0f541a36343b87a"
            "711b0044ea513b902f670a4454fe134a", 177809, 3),
    "sn4l_dis": ("26c08aa04b096cd0b2ee626e27a8de8a"
                 "8d3ef90cec687bcc515dffc3fb18c0c9", 91895, 1289),
    "sn4l_dis_btb": ("26c08aa04b096cd0b2ee626e27a8de8a"
                     "8d3ef90cec687bcc515dffc3fb18c0c9", 91895, 1289),
}


@pytest.mark.parametrize("scheme", sorted(VL_SEED_DIGESTS))
def test_proactive_schemes_match_original_on_vl_program(scheme):
    stats = run_scheme("web_apache", scheme, n_records=6000, warmup=2000,
                       scale=0.3, variable_length=True, use_cache=False,
                       persistent=False).stats
    fields = asdict(stats)
    del fields["extra"]
    digest = hashlib.sha256(
        json.dumps(fields, sort_keys=True).encode()).hexdigest()
    assert (digest, stats.total_cycles, stats.prefetches_issued) == \
        VL_SEED_DIGESTS[scheme]


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
