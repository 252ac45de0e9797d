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
  exactly as the generic loop computes them per record, once per
  geometry for a :class:`~repro.workloads.Trace`.

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
from repro.prefetchers import ShotgunPrefetcher
from repro.workloads import FetchRecord, Trace, get_generator, get_trace
from repro.workloads.soa import engine_view

WORKLOADS = ("web_frontend", "oltp_db_a")
#: (workload, variable_length): the two fixed-ISA profiles plus one
#: variable-length program.
PROGRAMS = tuple((w, False) for w in WORKLOADS) + (("web_frontend", True),)
N = 1600
WARMUP = 500
#: Scheme-side counters of the BTB-directed prefetchers (Boomerang, FDIP
#: and Shotgun), compared wherever the prefetcher has them.
RUNAHEAD_COUNTERS = ("runahead_btb_misses", "runahead_resyncs",
                     "footprint_prefetches", "proactive_prefills",
                     "predecode_fills")


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
    runahead = {name: getattr(prefetcher, name)
                for name in RUNAHEAD_COUNTERS if hasattr(prefetcher, name)}
    if runahead:
        out["runahead"] = runahead
    split = getattr(prefetcher, "shotgun", None)
    if split is not None:
        out["split_btb"] = {
            "footprint": (split.footprint_accesses, split.footprint_misses),
            "u_btb": (split.u_btb.hits, split.u_btb.misses),
            "c_btb": (split.c_btb.hits, split.c_btb.misses),
            "rib": (split.rib.hits, split.rib.misses),
        }
    l1pb = sim.l1_prefetch_buffer
    if l1pb is not None:
        out["l1pb"] = (l1pb.hits, l1pb.misses, len(l1pb))
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


def _build(scheme):
    """``build_scheme`` plus ``shotgun_u192``: Shotgun with Fig. 1's
    small U-BTB, where most footprints miss."""
    if scheme == "shotgun_u192":
        return ShotgunPrefetcher(u_entries=192), {}
    return build_scheme(scheme)


def _run(scheme, program, fast=True):
    workload, variable_length = program
    prefetcher, overrides = _build(scheme)
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


#: Behaviour digests of every registered scheme (plus ``shotgun_u192``)
#: at commit 0808243, on ``PROGRAMS`` in order: the first 16 hex digits
#: of the sha256 of ``_digest`` with ``FrontendStats.extra`` left out.
#: Both engine loops call the prefetcher hooks and ``issue_prefetch``, so
#: the loop-identity test alone cannot see a change in them; these pins
#: can.
PINNED_DIGESTS = {
    "baseline": ('cb8104f187377ee1', 'cb947272f0c0c2e2', '50b7402da4350329'),
    "nl": ('0d331149f461aefb', '1dc29564856ba788', '9bc3f3128214b51f'),
    "n2l": ('0cd4f690bbae462f', '90275475cfabe4da', '6a5ae47221731c48'),
    "n4l": ('6e70d021a21b6553', '12b92dffdae96328', '420698c5be503cb9'),
    "n8l": ('db36c81734e0f642', '909f68a39bb391d0', '49ae6633746532e6'),
    "nl_buf": ('63785fc8af913100', '8840505910877dc7', '2f1927e62fdc9dd5'),
    "n2l_buf": ('f29653ea9d75affb', '3ef3e942c664094f', 'c63a989c19313936'),
    "n4l_buf": ('6b9a233c1d596c38', 'c3c9c242b7c2a1e4', '0dcf6f48fa929fdb'),
    "n8l_buf": ('da8381425a1076fa', 'd28e28e1577da718', 'de86ddaef9fa838a'),
    "sn4l": ('6e70d021a21b6553', '485002bd605e433e', '420698c5be503cb9'),
    "dis": ('a42a1266b4044841', 'fc11d42b7f9f183f', '788e53467265d0cf'),
    "sn4l_dis": ('ae0981a396489a78', '15dd5136420c2ae9', '0e17f5b072e2b020'),
    "sn4l_dis_btb": ('2c418fb2321b9d32', 'e31b51225f49771f', '4d820fef92769eb8'),
    "discontinuity": ('214206277c302687', '7b7a9db194c752bf', '30fbf12d39097e9b'),
    "nlmiss": ('2b7cd226f6e72a87', '0e910ce3337b832f', '04cba2eb10e913f7'),
    "adaptive_nxl": ('e3bca54ca0eb78b6', '96a961c1f9e1cce0', '565225e229fe4e6c'),
    "nltagged": ('3ebf732a6bf79ba2', '1692572efce1118a', 'c09d4e69dfcb07bc'),
    "tifs": ('cb8104f187377ee1', '27f8d9aa1b286bec', '50b7402da4350329'),
    "pif": ('cb8104f187377ee1', '37cf6ade24054df5', '50b7402da4350329'),
    "rdip": ('14f4d7aeede52afb', '55659eaf06bbfb61', '1ff820bf0e8d903f'),
    "fdip": ('0fcf9c79d5065e65', '62d9081e78d4c7bd', '86cca2ebbf4ca02a'),
    "confluence": ('cb8104f187377ee1', '4d8dbecfeca87845', '50b7402da4350329'),
    "boomerang": ('9d920c622a5bf092', '57f2ba945544025f', '117b937c264c1340'),
    "shotgun": ('d89c297786364836', '2e9a23cdd901f1c5', '81feee468e8172f9'),
    "perfect_l1i": ('0faf03a4588a517d', '6cb5b158e9bd1560', '29db4e4fc3f01b41'),
    "perfect_l1i_btb": ('f74ece41eed7cbc0', '0802e1b1228dfd67', 'c6e74cb8d09430e3'),
    "shotgun_u192": ('c87cc2c341fc6bef', '5ecc60d37e5fca64', '81feee468e8172f9'),
}


def _pinned_hash(digest):
    stats = dict(digest["stats"])
    del stats["extra"]
    payload = json.dumps(dict(digest, stats=stats), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def test_pinned_digests_cover_every_scheme():
    assert set(PINNED_DIGESTS) == set(scheme_names()) | {"shotgun_u192"}


@pytest.mark.parametrize("scheme", sorted(PINNED_DIGESTS))
def test_digest_matches_pinned(scheme):
    got = tuple(_pinned_hash(_run(scheme, program)[0])
                for program in PROGRAMS)
    assert got == PINNED_DIGESTS[scheme]


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

    def test_trace_memoises_its_view(self, monkeypatch):
        """Two simulators of one Trace build its view once and agree; a
        bare record list still gets a view per run."""
        import repro.frontend.engine as engine_mod
        import repro.workloads.trace as trace_mod

        built = []

        def counting(records, *geometry):
            built.append(geometry)
            return engine_view(records, *geometry)

        monkeypatch.setattr(trace_mod, "engine_view", counting)
        monkeypatch.setattr(engine_mod, "engine_view", counting)
        records = get_trace("web_frontend", n_records=3000).records
        program = get_generator("web_frontend").program

        def simulate(trace):
            prefetcher, overrides = build_scheme("sn4l_dis_btb")
            sim = FrontendSimulator(trace,
                                    config=FrontendConfig(**overrides),
                                    prefetcher=prefetcher, program=program)
            return asdict(sim.run(warmup=1000))

        trace = Trace(list(records), name="memo")
        first, second = simulate(trace), simulate(trace)
        assert len(built) == 1
        assert first == second
        assert simulate(list(records)) == first
        assert simulate(list(records)) == first
        assert len(built) == 3

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
