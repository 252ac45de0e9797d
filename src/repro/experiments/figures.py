"""Per-figure/table experiment drivers.

Each ``fig*`` / ``tab*`` function regenerates the data behind one figure or
table of the paper's evaluation and returns it as plain dictionaries
(workload -> value, or scheme -> value).  The benchmarks call these and
print rows shaped like the paper's; EXPERIMENTS.md records the comparison.

A driver that reads stored results imports only what that takes; the
drivers that build a program, walk a trace or construct a prefetcher
themselves import the simulator inside the function.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..analysis.metrics import arithmetic_mean, geometric_mean
from ..workloads import workload_names
from .runner import DEFAULT_RECORDS, DEFAULT_WARMUP, run_scheme

WorkloadList = Optional[Sequence[str]]


def _workloads(workloads: WorkloadList) -> List[str]:
    return list(workloads) if workloads is not None else workload_names()


def _prewarm(specs, n_records: int, jobs: Optional[int] = None) -> None:
    """Fan a figure's runs out to worker processes ahead of the serial
    loop below it; with an effective job count of 1 this is a no-op and
    the driver behaves exactly as before."""
    from .parallel import resolve_jobs, run_many
    if resolve_jobs(jobs) > 1:
        run_many(specs, jobs=jobs, n_records=n_records)


# ----------------------------------------------------------------------
# Section III — why not Shotgun


def fig01_footprint_miss_ratio(workloads: WorkloadList = None,
                               n_records: int = DEFAULT_RECORDS,
                               jobs: Optional[int] = None
                               ) -> Dict[str, float]:
    """Fig. 1: Shotgun's U-BTB footprint miss ratio per workload."""
    out = {}
    _prewarm([(w, "shotgun") for w in _workloads(workloads)], n_records, jobs)
    for w in _workloads(workloads):
        res = run_scheme(w, "shotgun", n_records=n_records)
        out[w] = res.extra["footprint_miss_ratio"]
    return out


def tab1_empty_ftq(workloads: WorkloadList = None,
                   n_records: int = DEFAULT_RECORDS,
                   jobs: Optional[int] = None) -> Dict[str, float]:
    """Table I: fraction of cycles stalled on an empty FTQ under Shotgun."""
    out = {}
    _prewarm([(w, "shotgun") for w in _workloads(workloads)], n_records, jobs)
    for w in _workloads(workloads):
        res = run_scheme(w, "shotgun", n_records=n_records)
        st = res.stats
        out[w] = st.empty_ftq_stall_cycles / st.total_cycles
    return out


# ----------------------------------------------------------------------
# Section IV — motivation


def fig02_sequential_fraction(workloads: WorkloadList = None,
                              n_records: int = DEFAULT_RECORDS,
                              jobs: Optional[int] = None
                              ) -> Dict[str, float]:
    """Fig. 2: fraction of baseline L1i misses that are sequential."""
    out = {}
    _prewarm([(w, "baseline") for w in _workloads(workloads)], n_records, jobs)
    for w in _workloads(workloads):
        st = run_scheme(w, "baseline", n_records=n_records).stats
        misses = st.demand_misses + st.demand_late_prefetch
        out[w] = st.seq_misses / misses if misses else 0.0
    return out


def fig03_nl_seq_coverage(workloads: WorkloadList = None,
                          n_records: int = DEFAULT_RECORDS,
                          jobs: Optional[int] = None
                          ) -> Dict[str, float]:
    """Fig. 3: NL prefetcher's *sequential* miss coverage."""
    out = {}
    _prewarm([(w, s) for w in _workloads(workloads)
              for s in ("baseline", "nl")], n_records, jobs)
    for w in _workloads(workloads):
        base = run_scheme(w, "baseline", n_records=n_records).stats
        nl = run_scheme(w, "nl", n_records=n_records).stats
        out[w] = nl.seq_coverage_over(base)
    return out


def fig04_cmal_nxl(workloads: WorkloadList = None,
                   n_records: int = DEFAULT_RECORDS,
                   jobs: Optional[int] = None) -> Dict[str, float]:
    """Fig. 4: average CMAL of NL / N2L / N4L / N8L."""
    out = {}
    _prewarm([(w, s) for w in _workloads(workloads)
              for s in ("nl", "n2l", "n4l", "n8l")], n_records, jobs)
    for scheme in ("nl", "n2l", "n4l", "n8l"):
        vals = [run_scheme(w, scheme, n_records=n_records).stats.cmal
                for w in _workloads(workloads)]
        out[scheme] = arithmetic_mean(vals)
    return out


def fig05_side_effects(workloads: WorkloadList = None,
                       n_records: int = DEFAULT_RECORDS,
                       jobs: Optional[int] = None
                       ) -> Dict[str, Dict[str, float]]:
    """Fig. 5: LLC latency and L1i external bandwidth of buffered NXL
    prefetchers, normalised to the no-prefetcher baseline."""
    out: Dict[str, Dict[str, float]] = {}
    names = _workloads(workloads)
    _prewarm([(w, s) for w in names
              for s in ("baseline", "nl_buf", "n2l_buf", "n4l_buf",
                        "n8l_buf")], n_records, jobs)
    base_lat = {}
    base_bw = {}
    for w in names:
        res = run_scheme(w, "baseline", n_records=n_records)
        base_lat[w] = res.extra["llc_avg_latency"]
        base_bw[w] = res.extra["external_requests"]
    for scheme in ("nl_buf", "n2l_buf", "n4l_buf", "n8l_buf"):
        lat, bw = [], []
        for w in names:
            res = run_scheme(w, scheme, n_records=n_records)
            lat.append(res.extra["llc_avg_latency"] / base_lat[w])
            bw.append(res.extra["external_requests"] / base_bw[w])
        out[scheme] = {
            "llc_latency": arithmetic_mean(lat),
            "bandwidth": arithmetic_mean(bw),
        }
    return out


def fig06_seq_predictability(workloads: WorkloadList = None,
                             n_records: int = DEFAULT_RECORDS
                             ) -> Dict[str, float]:
    """Fig. 6: stability of the next-4-block access pattern."""
    from ..analysis import next4_pattern_predictability
    from ..workloads import get_trace
    out = {}
    for w in _workloads(workloads):
        trace = get_trace(w, n_records=n_records)
        out[w] = next4_pattern_predictability(trace)
    return out


def fig07_dis_predictability(workloads: WorkloadList = None,
                             n_records: int = DEFAULT_RECORDS
                             ) -> Dict[str, float]:
    """Fig. 7: stability of the discontinuity-causing branch per block."""
    from ..analysis import discontinuity_branch_predictability
    from ..workloads import get_trace
    out = {}
    for w in _workloads(workloads):
        trace = get_trace(w, n_records=n_records)
        out[w] = discontinuity_branch_predictability(trace)
    return out


def fig08_bf_branches(workloads: WorkloadList = None,
                      max_branches: int = 6) -> Dict[int, float]:
    """Fig. 8: uncovered branches vs branches stored per footprint."""
    from ..analysis import uncovered_branches_by_footprint_size
    from ..workloads import get_generator
    acc: Dict[int, List[float]] = {}
    for w in _workloads(workloads):
        program = get_generator(w).program
        for k, v in uncovered_branches_by_footprint_size(
                program, max_branches).items():
            acc.setdefault(k, []).append(v)
    return {k: arithmetic_mean(v) for k, v in sorted(acc.items())}


def fig09_bf_per_set(workloads: WorkloadList = None,
                     n_records: int = DEFAULT_RECORDS,
                     slots: Sequence[int] = (1, 2, 3, 4)) -> Dict[int, float]:
    """Fig. 9: uncovered branch footprints vs BF slots per LLC set."""
    from ..analysis import uncovered_footprints_by_slots
    from ..workloads import get_generator, get_trace
    acc: Dict[int, List[float]] = {}
    for w in _workloads(workloads):
        gen = get_generator(w)
        trace = get_trace(w, n_records=n_records)
        for k, v in uncovered_footprints_by_slots(trace, gen.program,
                                                  slots=slots).items():
            acc.setdefault(k, []).append(v)
    return {k: arithmetic_mean(v) for k, v in sorted(acc.items())}


# ----------------------------------------------------------------------
# Section VII — evaluation


def fig11_table_sizes(workloads: WorkloadList = None,
                      n_records: int = DEFAULT_RECORDS,
                      seq_sizes: Sequence[Optional[int]] = (
                          2048, 4096, 8192, 16 * 1024, 32 * 1024, None),
                      dis_sizes: Sequence[Optional[int]] = (
                          512, 1024, 2048, 4096, 8192, None),
                      jobs: Optional[int] = None,
                      ) -> Dict[str, Dict[str, float]]:
    """Fig. 11: miss coverage vs SeqTable size (SN4L) and DisTable size
    (SN4L+Dis).  ``None`` is the unlimited reference table."""
    from ..core import ProactivePrefetcher, Sn4lPrefetcher
    names = _workloads(workloads)
    out: Dict[str, Dict[str, float]] = {"seqtable": {}, "distable": {}}
    # Factory-built sweep points cannot cross a process boundary; only
    # the shared baselines can be prewarmed.
    _prewarm([(w, "baseline") for w in names], n_records, jobs)

    for size in seq_sizes:
        covs = []
        for w in names:
            base = run_scheme(w, "baseline", n_records=n_records).stats
            res = run_scheme(
                w, "sn4l", n_records=n_records,
                prefetcher_factory=lambda s=size: Sn4lPrefetcher(
                    seqtable_entries=s),
                cache_key_extra=f"seq={size}")
            covs.append(res.stats.coverage_over(base))
        out["seqtable"][str(size)] = arithmetic_mean(covs)

    for size in dis_sizes:
        covs = []
        for w in names:
            base = run_scheme(w, "baseline", n_records=n_records).stats
            res = run_scheme(
                w, "sn4l_dis", n_records=n_records,
                prefetcher_factory=lambda s=size: ProactivePrefetcher(
                    enable_btb=False, distable_entries=s,
                    distable_tag_bits=None if s is None else 4),
                cache_key_extra=f"dis={size}")
            covs.append(res.stats.coverage_over(base))
        out["distable"][str(size)] = arithmetic_mean(covs)
    return out


def fig12_tagging(workloads: WorkloadList = None,
                  n_records: int = DEFAULT_RECORDS,
                  distable_entries: int = 512) -> Dict[str, float]:
    """Fig. 12: Dis overprediction under tagless / 4-bit partial / full
    tags (useless prefetches per issued prefetch).

    The paper's workloads have instruction footprints several times its
    4 K-entry DisTable; our synthetic programs are smaller, so the study
    uses a proportionally smaller table to recreate the same
    footprint-to-rows aliasing pressure.
    """
    from ..core import dis_only
    out = {}
    for label, tag_bits in (("tagless", 0), ("partial_4bit", 4),
                            ("full_tag", None)):
        ratios = []
        for w in _workloads(workloads):
            res = run_scheme(
                w, "dis", n_records=n_records,
                prefetcher_factory=lambda t=tag_bits: dis_only(
                    distable_tag_bits=t,
                    distable_entries=distable_entries),
                cache_key_extra=f"tag={label}/{distable_entries}")
            st = res.stats
            done = st.prefetches_useful + st.prefetches_useless
            ratios.append(st.prefetches_useless / done if done else 0.0)
        out[label] = arithmetic_mean(ratios)
    return out


def fig13_timeliness(workloads: WorkloadList = None,
                     n_records: int = DEFAULT_RECORDS,
                     jobs: Optional[int] = None) -> Dict[str, float]:
    """Fig. 13: CMAL of N4L, SN4L, Dis and SN4L+Dis+BTB."""
    out = {}
    _prewarm([(w, s) for w in _workloads(workloads)
              for s in ("n4l", "sn4l", "dis", "sn4l_dis_btb")],
             n_records, jobs)
    for scheme in ("n4l", "sn4l", "dis", "sn4l_dis_btb"):
        vals = [run_scheme(w, scheme, n_records=n_records).stats.cmal
                for w in _workloads(workloads)]
        out[scheme] = arithmetic_mean(vals)
    return out


def fig14_lookups(workloads: WorkloadList = None,
                  n_records: int = DEFAULT_RECORDS,
                  jobs: Optional[int] = None) -> Dict[str, float]:
    """Fig. 14: L1i lookups normalised to the no-prefetcher baseline."""
    names = _workloads(workloads)
    out = {}
    _prewarm([(w, s) for w in names
              for s in ("baseline", "confluence", "shotgun",
                        "sn4l_dis_btb")], n_records, jobs)
    base = {w: run_scheme(w, "baseline", n_records=n_records
                          ).stats.cache_lookups for w in names}
    for scheme in ("confluence", "shotgun", "sn4l_dis_btb"):
        vals = [run_scheme(w, scheme, n_records=n_records
                           ).stats.cache_lookups / base[w] for w in names]
        out[scheme] = arithmetic_mean(vals)
    return out


def fig15_fscr(workloads: WorkloadList = None,
               n_records: int = DEFAULT_RECORDS,
               schemes: Sequence[str] = ("confluence", "shotgun",
                                         "sn4l_dis_btb"),
               jobs: Optional[int] = None,
               ) -> Dict[str, Dict[str, float]]:
    """Fig. 15: Frontend Stall Cycle Reduction per workload and scheme."""
    names = _workloads(workloads)
    out: Dict[str, Dict[str, float]] = {w: {} for w in names}
    _prewarm([(w, s) for w in names
              for s in ("baseline",) + tuple(schemes)], n_records, jobs)
    for w in names:
        base = run_scheme(w, "baseline", n_records=n_records).stats
        for scheme in schemes:
            st = run_scheme(w, scheme, n_records=n_records).stats
            out[w][scheme] = st.fscr_over(base)
    out["average"] = {
        s: arithmetic_mean([out[w][s] for w in names]) for s in schemes}
    return out


def fig16_speedup(workloads: WorkloadList = None,
                  n_records: int = DEFAULT_RECORDS,
                  schemes: Sequence[str] = ("confluence", "boomerang",
                                            "shotgun", "sn4l_dis_btb"),
                  jobs: Optional[int] = None,
                  ) -> Dict[str, Dict[str, float]]:
    """Fig. 16: speedup over the no-prefetcher baseline."""
    names = _workloads(workloads)
    out: Dict[str, Dict[str, float]] = {w: {} for w in names}
    _prewarm([(w, s) for w in names
              for s in ("baseline",) + tuple(schemes)], n_records, jobs)
    for w in names:
        base = run_scheme(w, "baseline", n_records=n_records).stats
        for scheme in schemes:
            st = run_scheme(w, scheme, n_records=n_records).stats
            out[w][scheme] = st.speedup_over(base)
    out["average"] = {
        s: geometric_mean([out[w][s] for w in names]) for s in schemes}
    return out


def fig17_breakdown(workloads: WorkloadList = None,
                    n_records: int = DEFAULT_RECORDS,
                    jobs: Optional[int] = None) -> Dict[str, float]:
    """Fig. 17: average speedup of N4L, SN4L, SN4L+Dis, SN4L+Dis+BTB and
    the perfect-frontend reference points."""
    names = _workloads(workloads)
    schemes = ("n4l", "sn4l", "sn4l_dis", "sn4l_dis_btb",
               "perfect_l1i", "perfect_l1i_btb")
    out = {}
    _prewarm([(w, s) for w in names
              for s in ("baseline",) + schemes], n_records, jobs)
    for scheme in schemes:
        vals = []
        for w in names:
            base = run_scheme(w, "baseline", n_records=n_records).stats
            st = run_scheme(w, scheme, n_records=n_records).stats
            vals.append(st.speedup_over(base))
        out[scheme] = geometric_mean(vals)
    return out


def fig18_btb_sweep(workloads: WorkloadList = None,
                    n_records: int = DEFAULT_RECORDS,
                    btb_sizes: Sequence[int] = (2048, 1024, 512, 256),
                    jobs: Optional[int] = None
                    ) -> Dict[int, float]:
    """Fig. 18: speedup of SN4L+Dis+BTB over Shotgun as the BTB shrinks.

    Shotgun's three structures scale proportionally with the budget
    (2048 -> 1536/128/512 per the paper's configuration)."""
    from ..prefetchers import ShotgunPrefetcher
    names = _workloads(workloads)
    out = {}
    # The "ours" side only varies config overrides, which pickle fine;
    # the scaled-Shotgun side is factory-built and stays serial.
    _prewarm([(w, "sn4l_dis_btb",
               {"config_overrides": {"btb_entries": size}})
              for w in names for size in btb_sizes], n_records, jobs)
    for size in btb_sizes:
        ratio_u = size * 1536 // 2048
        ratio_c = max(32, size * 128 // 2048)
        ratio_rib = max(64, size * 512 // 2048)
        ratios = []
        for w in names:
            ours = run_scheme(w, "sn4l_dis_btb", n_records=n_records,
                              config_overrides={"btb_entries": size})
            shotgun = run_scheme(
                w, "shotgun", n_records=n_records,
                prefetcher_factory=lambda u=ratio_u, c=ratio_c,
                r=ratio_rib: ShotgunPrefetcher(u_entries=u, c_entries=c,
                                               rib_entries=r),
                cache_key_extra=f"btb={size}")
            ratios.append(shotgun.cycles / ours.cycles)
        out[size] = geometric_mean(ratios)
    return out


def tab2_storage() -> Dict[str, Dict[str, object]]:
    """Table II: storage and structural comparison."""
    from ..analysis import comparison_table
    return comparison_table()


# ----------------------------------------------------------------------
# Section VII-J — DV-LLC effectiveness


def dvllc_experiment(workload: str = "web_apache",
                     n_records: int = DEFAULT_RECORDS,
                     data_blocks: int = 48 * 1024,
                     data_accesses_per_record: int = 2,
                     seed: int = 7) -> Dict[str, float]:
    """Section VII-J: DV-LLC vs conventional LLC hit ratios.

    Replays the workload's instruction stream against both LLC models
    while a synthetic Zipf-distributed data stream shares the cache, and
    compares instruction/data hit ratios.  The paper reports the
    instruction ratio unchanged and the data ratio dropping <= 0.1%.
    """
    import numpy as np

    from ..memory import DynamicallyVirtualizedLlc, LastLevelCache
    from ..workloads import get_generator, get_trace
    gen = get_generator(workload)
    trace = get_trace(workload, n_records=n_records)
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, data_blocks + 1, dtype=float)
    weights = ranks ** -0.8
    weights /= weights.sum()
    data_base = 1 << 30
    data_stream = rng.choice(data_blocks, p=weights,
                             size=n_records * data_accesses_per_record)

    results = {}
    for label, cls in (("conventional", LastLevelCache),
                       ("dvllc", DynamicallyVirtualizedLlc)):
        llc = cls()
        di = 0
        for record in trace:
            llc.access(record.line, is_instruction=True)
            if label == "dvllc":
                offsets = gen.program.branch_byte_offsets(record.line)
                if offsets and llc.get_footprint(record.line) is None:
                    llc.store_footprint(record.line, offsets)
            for _ in range(data_accesses_per_record):
                addr = data_base + int(data_stream[di]) * 64
                di += 1
                llc.access(addr, is_instruction=False)
        results[f"{label}_instruction_hit"] = llc.hit_ratio(instruction=True)
        results[f"{label}_data_hit"] = llc.hit_ratio(instruction=False)
    results["data_hit_drop"] = (results["conventional_data_hit"] -
                                results["dvllc_data_hit"])
    results["instruction_hit_drop"] = (
        results["conventional_instruction_hit"] -
        results["dvllc_instruction_hit"])
    return results


def dvllc_timing_experiment(workload: str = "web_apache",
                            n_records: int = DEFAULT_RECORDS
                            ) -> Dict[str, float]:
    """Section VII-J, timing view: run the VL-ISA SN4L+Dis+BTB scheme
    with the modeled data side over a conventional LLC (footprints in
    dedicated storage is impossible, so BTB prefilling is off) versus the
    DV-LLC (footprints virtualized, BTB prefilling on), and report the
    end-to-end cost/benefit.
    """
    from ..core import sn4l_dis, sn4l_dis_btb
    from ..frontend import FrontendConfig, FrontendSimulator
    from ..workloads import get_generator, get_trace

    gen = get_generator(workload, variable_length=True)
    trace = get_trace(workload, n_records=n_records, variable_length=True)
    warmup = n_records // 3

    base = FrontendSimulator(
        trace, config=FrontendConfig(model_data=True),
        program=gen.program).run(warmup=warmup)
    # Conventional LLC: no place for footprints -> no VL BTB prefilling.
    plain = FrontendSimulator(
        trace, config=FrontendConfig(model_data=True),
        prefetcher=sn4l_dis(), program=gen.program).run(warmup=warmup)
    dv_sim = FrontendSimulator(
        trace, config=FrontendConfig(model_data=True, dv_llc=True),
        prefetcher=sn4l_dis_btb(variable_length=True),
        program=gen.program)
    dv = dv_sim.run(warmup=warmup)

    return {
        "speedup_without_btb_prefill": plain.speedup_over(base),
        "speedup_with_dvllc_btb_prefill": dv.speedup_over(base),
        "btb_misses_without": float(plain.btb_misses),
        "btb_misses_with": float(dv.btb_misses),
        "dvllc_data_hit": dv_sim.llc.hit_ratio(instruction=False),
        "footprint_hit_ratio": (
            dv_sim.llc.footprint_hits /
            max(1, dv_sim.llc.footprint_hits + dv_sim.llc.footprint_misses)),
    }
