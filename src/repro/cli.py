"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``workloads``            list the synthetic server workloads
``schemes``              list the registered prefetching schemes
``run``                  simulate one (workload, scheme) pair
``compare``              compare several schemes on one workload
``figure``               regenerate one of the paper's figures/tables
``sample``               SimFlex-style sampled run with confidence intervals
``multicore``            co-simulate a workload mix over a shared LLC
``stats``                observability: store inventory, run manifests,
                         per-component telemetry, profiling
``bench``                benchmark matrix with JSONL history; ``--check``
                         gates against the stored baseline
``trace``                analytics over JSONL event traces:
                         ``summarize`` / ``diff`` / ``query``
``lint``                 static analysis of simulator invariants:
                         determinism, telemetry registry, scheme
                         registry, storage budgets (text/JSON/SARIF)
``serve``                long-running HTTP/JSON API: run/compare/bench
                         as queued jobs over the shared sharded store
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .analysis import arithmetic_mean
from .experiments import (
    figures,
    parse_count,
    run_many,
    set_default_jobs,
    render_matrix,
    render_per_scheme,
    render_per_workload,
    render_sampled,
    render_storage,
    render_sweep,
    run_sampled,
    run_scheme,
    scheme_names,
)
from .workloads import DISPLAY_NAMES, get_generator, get_trace, workload_names

#: figure id -> (driver, renderer)
_FIGURES = {
    "fig1": lambda n: render_per_workload(
        "Fig 1: Shotgun U-BTB footprint miss ratio",
        figures.fig01_footprint_miss_ratio(n_records=n)),
    "tab1": lambda n: render_per_workload(
        "Table I: empty-FTQ stall fraction",
        figures.tab1_empty_ftq(n_records=n)),
    "fig2": lambda n: render_per_workload(
        "Fig 2: sequential fraction of L1i misses",
        figures.fig02_sequential_fraction(n_records=n)),
    "fig3": lambda n: render_per_workload(
        "Fig 3: NL sequential-miss coverage",
        figures.fig03_nl_seq_coverage(n_records=n)),
    "fig4": lambda n: render_per_scheme(
        "Fig 4: CMAL of NXL prefetchers",
        figures.fig04_cmal_nxl(n_records=n), fmt="{:.1%}"),
    "fig5": lambda n: render_matrix(
        "Fig 5: NXL side effects", figures.fig05_side_effects(n_records=n)),
    "fig6": lambda n: render_per_workload(
        "Fig 6: next-4-block predictability",
        figures.fig06_seq_predictability(n_records=n)),
    "fig7": lambda n: render_per_workload(
        "Fig 7: discontinuity-branch predictability",
        figures.fig07_dis_predictability(n_records=n)),
    "fig8": lambda n: render_sweep(
        "Fig 8: uncovered branches per BF size",
        figures.fig08_bf_branches(), x_name="branches", fmt="{:.2%}"),
    "fig9": lambda n: render_sweep(
        "Fig 9: uncovered BFs per LLC-set slots",
        figures.fig09_bf_per_set(n_records=n), x_name="slots", fmt="{:.2%}"),
    "fig12": lambda n: render_per_scheme(
        "Fig 12: Dis overprediction by tagging",
        figures.fig12_tagging(n_records=n), fmt="{:.1%}"),
    "fig13": lambda n: render_per_scheme(
        "Fig 13: CMAL", figures.fig13_timeliness(n_records=n), fmt="{:.1%}"),
    "fig14": lambda n: render_per_scheme(
        "Fig 14: normalised L1i lookups", figures.fig14_lookups(n_records=n)),
    "fig15": lambda n: render_matrix(
        "Fig 15: FSCR", figures.fig15_fscr(n_records=n)),
    "fig16": lambda n: render_matrix(
        "Fig 16: speedup", figures.fig16_speedup(n_records=n)),
    "fig17": lambda n: render_per_scheme(
        "Fig 17: breakdown", figures.fig17_breakdown(n_records=n)),
    "fig18": lambda n: render_sweep(
        "Fig 18: ours/Shotgun vs BTB size",
        figures.fig18_btb_sweep(n_records=n), x_name="btb"),
    "tab2": lambda n: render_storage(figures.tab2_storage()),
}


def _cmd_workloads(args) -> int:
    print(f"{'name':18s} {'display':18s} {'functions':>9s} {'handlers':>8s}")
    from .workloads import get_profile
    for name in workload_names():
        prof = get_profile(name)
        print(f"{name:18s} {DISPLAY_NAMES[name]:18s} "
              f"{prof.cfg.n_functions:>9d} {prof.walk.n_handlers:>8d}")
    return 0


def _cmd_schemes(args) -> int:
    for name in scheme_names():
        print(name)
    return 0


def _cmd_run(args) -> int:
    if args.jobs and args.jobs > 1:
        run_many([(args.workload, "baseline"), (args.workload, args.scheme)],
                 jobs=args.jobs, n_records=args.records, scale=args.scale,
                 variable_length=args.vl)
    base = run_scheme(args.workload, "baseline", n_records=args.records,
                      scale=args.scale, variable_length=args.vl)
    counts = None
    if args.trace:
        # Stream engine events to JSONL while simulating.  Deterministic
        # engine + identical construction => the statistics match a
        # cached run_scheme() of the same parameters bit for bit.
        from .obs import trace_run
        st, counts = trace_run(args.workload, args.scheme, args.trace,
                               n_records=args.records, scale=args.scale,
                               variable_length=args.vl)
    else:
        st = run_scheme(args.workload, args.scheme, n_records=args.records,
                        scale=args.scale, variable_length=args.vl).stats
    misses = st.demand_misses + st.demand_late_prefetch
    print(f"{args.workload} / {args.scheme} "
          f"({args.records} records, scale {args.scale})")
    print(f"  speedup    {st.speedup_over(base.stats):8.3f}x")
    print(f"  ipc        {st.ipc:8.3f}")
    print(f"  L1i MPKI   {misses / st.instructions * 1000:8.1f}")
    print(f"  coverage   {st.coverage_over(base.stats):8.1%}")
    print(f"  cmal       {st.cmal:8.1%}")
    print(f"  fscr       {st.fscr_over(base.stats):8.1%}")
    print(f"  accuracy   {st.prefetch_accuracy:8.1%}")
    print(f"  btb misses {st.btb_misses:8d}")
    print(f"  engine     {st.extra.get('engine_path', 'generic'):>8s}")
    if counts is not None:
        from .obs import reconcile
        mismatches = reconcile(st, counts)
        total = sum(counts.values())
        if mismatches:
            print(f"  trace      {total} events -> {args.trace} "
                  f"RECONCILIATION MISMATCH {mismatches}", file=sys.stderr)
            return 1
        print(f"  trace      {total} events -> {args.trace} (reconciled)")
    return 0


def _cmd_compare(args) -> int:
    schemes = args.schemes.split(",")
    unknown = [s for s in schemes if s not in scheme_names()]
    if unknown:
        print(f"unknown schemes: {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.jobs and args.jobs > 1:
        run_many([(args.workload, s) for s in ["baseline"] + schemes],
                 jobs=args.jobs, n_records=args.records, scale=args.scale)
    base = run_scheme(args.workload, "baseline", n_records=args.records,
                      scale=args.scale)
    rows = {}
    for scheme in schemes:
        st = run_scheme(args.workload, scheme, n_records=args.records,
                        scale=args.scale).stats
        rows[scheme] = {
            "speedup": st.speedup_over(base.stats),
            "coverage": st.coverage_over(base.stats),
            "cmal": st.cmal,
            "fscr": st.fscr_over(base.stats),
            "accuracy": st.prefetch_accuracy,
            "ipc": st.ipc,
        }
    if args.json:
        print(json.dumps({
            "workload": args.workload,
            "n_records": args.records,
            "scale": args.scale,
            "baseline": base.stats.summary(),
            "schemes": rows,
        }, indent=2, sort_keys=True))
        return 0
    print(f"{'scheme':16s} {'speedup':>8s} {'coverage':>9s} "
          f"{'cmal':>7s} {'fscr':>7s} {'accuracy':>9s}")
    for scheme, row in rows.items():
        print(f"{scheme:16s} {row['speedup']:8.3f} "
              f"{row['coverage']:9.1%} {row['cmal']:7.1%} "
              f"{row['fscr']:7.1%} {row['accuracy']:9.1%}")
    return 0


#: figure id -> raw-data driver (for exports).
_FIGURE_DATA = {
    "fig1": lambda n: figures.fig01_footprint_miss_ratio(n_records=n),
    "tab1": lambda n: figures.tab1_empty_ftq(n_records=n),
    "fig2": lambda n: figures.fig02_sequential_fraction(n_records=n),
    "fig3": lambda n: figures.fig03_nl_seq_coverage(n_records=n),
    "fig4": lambda n: figures.fig04_cmal_nxl(n_records=n),
    "fig5": lambda n: figures.fig05_side_effects(n_records=n),
    "fig6": lambda n: figures.fig06_seq_predictability(n_records=n),
    "fig7": lambda n: figures.fig07_dis_predictability(n_records=n),
    "fig8": lambda n: figures.fig08_bf_branches(),
    "fig9": lambda n: figures.fig09_bf_per_set(n_records=n),
    "fig12": lambda n: figures.fig12_tagging(n_records=n),
    "fig13": lambda n: figures.fig13_timeliness(n_records=n),
    "fig14": lambda n: figures.fig14_lookups(n_records=n),
    "fig15": lambda n: figures.fig15_fscr(n_records=n),
    "fig16": lambda n: figures.fig16_speedup(n_records=n),
    "fig17": lambda n: figures.fig17_breakdown(n_records=n),
    "fig18": lambda n: figures.fig18_btb_sweep(n_records=n),
}


def _cmd_figure(args) -> int:
    driver = _FIGURES.get(args.id)
    if driver is None:
        print(f"unknown figure {args.id!r}; known: "
              f"{', '.join(sorted(_FIGURES))}", file=sys.stderr)
        return 2
    print(driver(args.records))
    if args.csv or args.json:
        data_driver = _FIGURE_DATA.get(args.id)
        if data_driver is None:
            print(f"{args.id} has no tabular data to export",
                  file=sys.stderr)
            return 2
        data = data_driver(args.records)  # cached: re-renders instantly
        from .experiments.export import write_csv, write_json
        if args.csv:
            print(f"wrote {write_csv(data, args.csv)}")
        if args.json:
            print(f"wrote {write_json(data, args.json, title=args.id)}")
    return 0


def _cmd_sample(args) -> int:
    run = run_sampled(args.workload, args.scheme, n_samples=args.samples,
                      n_records=args.records, scale=args.scale,
                      jobs=args.jobs)
    print(render_sampled(run))
    return 0


def _cmd_multicore(args) -> int:
    from .analysis import render_stack_comparison
    from .experiments import build_scheme
    from .multicore import STANDARD_MIXES, MulticoreSimulator, build_mix

    mix = STANDARD_MIXES.get(args.mix)
    if mix is None:
        print(f"unknown mix {args.mix!r}; known: "
              f"{', '.join(sorted(STANDARD_MIXES))}", file=sys.stderr)
        return 2
    traces, programs = build_mix(mix, n_records=args.records,
                                 scale=args.scale, jobs=args.jobs)

    def factory():
        prefetcher, _overrides = build_scheme(args.scheme)
        return prefetcher

    sim = MulticoreSimulator(
        traces, prefetcher_factory=factory if args.scheme != "baseline"
        else None, programs=programs)
    result = sim.run(warmup=args.records // 3)
    print(f"mix {mix.name} / scheme {args.scheme} "
          f"({mix.n_cores} cores, {args.records} records each)")
    print(f"aggregate IPC      {result.aggregate_ipc:.3f}")
    print(f"shared LLC latency {sim.latency.average_latency:.1f} cycles")
    print()
    print(render_stack_comparison(
        {f"core{c.core}:{c.workload}": c.stats for c in result.cores}))
    return 0


def _cmd_stats(args) -> int:
    from .experiments import store as result_store
    from .obs import REGISTRY, component_report
    from .obs.telemetry import store_event_counts

    if args.metrics:
        # The same Prometheus text a served process exposes at
        # /metricsz, rendered from this process's registry.
        from .obs.metrics import render_metrics
        sys.stdout.write(render_metrics())
        return 0

    if args.json:
        payload = {"store": {"root": str(result_store.cache_root()),
                             "enabled": result_store.caching_enabled()}}
        st = result_store.get_store()
        if st is not None:
            payload["store"].update(st.overview())
            payload["store"]["session_counters"] = st.counters()
            payload["store"]["events"] = store_event_counts()
            manifests = sorted(st.iter_manifests(),
                               key=lambda m: m.get("written_at", 0.0))
            payload["recent_runs"] = manifests[-args.last:] \
                if args.last > 0 else []
        if args.workload and args.scheme:
            stats, counters = component_report(
                args.workload, args.scheme, n_records=args.records,
                scale=args.scale)
            payload["components"] = {
                "workload": args.workload, "scheme": args.scheme,
                "n_records": args.records, "scale": args.scale,
                "per_component": counters.as_dict(),
                "aggregate": stats.summary(),
                "engine_path": stats.extra.get("engine_path", "generic"),
            }
        elif args.workload or args.scheme:
            print("need both --workload and --scheme for a component "
                  "breakdown", file=sys.stderr)
            return 2
        payload["profile"] = REGISTRY.totals()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print("persistent store")
    print(f"  root        {result_store.cache_root()}")
    print(f"  enabled     {result_store.caching_enabled()}")
    st = result_store.get_store()
    if st is not None:
        info = st.overview()
        for kind in ("results", "manifests", "traces"):
            entry = info[kind]
            shards = entry.get("shards") or {}
            spread = ""
            if shards:
                counts = [c["count"] for c in shards.values()]
                spread = (f" in {len(shards)} shards "
                          f"(max {max(counts)}/min {min(counts)})")
            print(f"  {kind:11s} {entry['count']:6d} entries "
                  f"({entry['bytes'] / 1024:.1f} KiB){spread}")
        counters = st.counters()
        print("  session     " + "  ".join(
            f"{k}={v}" for k, v in counters.items()))
        budget = info.get("budget_bytes")
        if budget is not None:
            print(f"  budget      {budget} bytes (LRU eviction)")
        events = store_event_counts()
        if events:
            print("  events      " + "  ".join(
                f"{k}={v}" for k, v in events.items()))

        manifests = sorted(st.iter_manifests(),
                           key=lambda m: m.get("written_at", 0.0))
        if manifests and args.last > 0:
            print()
            print(f"recent runs (last {min(args.last, len(manifests))} "
                  f"of {len(manifests)})")
            print(f"  {'workload':16s} {'scheme':16s} {'records':>8s} "
                  f"{'duration':>9s} {'cycles':>12s} {'ipc':>6s}")
            for m in manifests[-args.last:]:
                summary = m.get("summary", {})
                print(f"  {m.get('workload', '?'):16s} "
                      f"{m.get('scheme', '?'):16s} "
                      f"{m.get('n_records', 0):>8d} "
                      f"{m.get('duration_s', 0.0):>8.2f}s "
                      f"{summary.get('cycles', 0.0):>12.0f} "
                      f"{summary.get('ipc', 0.0):>6.3f}")

    if args.workload and args.scheme:
        print()
        print(f"per-component telemetry: {args.workload} / {args.scheme} "
              f"({args.records} records, scale {args.scale})")
        stats, counters = component_report(
            args.workload, args.scheme, n_records=args.records,
            scale=args.scale)
        if counters.sources():
            print(counters.render())
        else:
            print("  (no prefetches issued)")
        print(f"  aggregate: issued={stats.prefetches_issued} "
              f"useful={stats.prefetches_useful} "
              f"useless={stats.prefetches_useless} "
              f"accuracy={stats.prefetch_accuracy:.1%} "
              f"cmal={stats.cmal:.1%} "
              f"engine={stats.extra.get('engine_path', 'generic')}")
    elif args.workload or args.scheme:
        print("\nneed both --workload and --scheme for a component "
              "breakdown", file=sys.stderr)
        return 2

    profile = REGISTRY.totals()
    if profile:
        print()
        print("profile (this process)")
        for series, value in profile.items():
            print(f"  {series:56s} {value:>12g}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .experiments import store as result_store
    from .service import ReproService

    budget = None
    if args.budget:
        budget = result_store.parse_byte_budget(args.budget)
        if budget is None:
            print(f"invalid --budget {args.budget!r} "
                  f"(want e.g. 512m, 2g, or plain bytes)", file=sys.stderr)
            return 2

    async def run() -> int:
        service = ReproService(host=args.host, port=args.port,
                               workers=args.workers,
                               queue_size=args.queue_size,
                               budget_bytes=budget)
        await service.start()
        host, port = service.address
        print(f"repro serve listening on http://{host}:{port} "
              f"(workers={args.workers}, queue={args.queue_size}, "
              f"cache={result_store.cache_root()})", flush=True)
        if args.ready_file:
            ready = Path(args.ready_file)
            ready.parent.mkdir(parents=True, exist_ok=True)
            tmp = ready.with_suffix(ready.suffix + ".tmp")
            tmp.write_text(json.dumps({"host": host, "port": port}) + "\n")
            tmp.replace(ready)          # atomic: readers never see a torn file
        try:
            await service.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await service.close()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down", file=sys.stderr)
        return 0


def _cmd_top(args) -> int:
    from .service.top import run_top

    return run_top(args.host, args.port, interval=args.interval,
                   iterations=1 if args.once else None)


def _cmd_bench(args) -> int:
    from .obs import bench, regress

    try:
        cells = bench.resolve_matrix(args.matrix, n_records=args.records,
                                     scale=args.scale)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    try:
        tolerance = regress.parse_tolerance(args.tolerance)
    except ValueError:
        print(f"invalid --tolerance {args.tolerance!r} "
              f"(use e.g. '10%' or '0.1')", file=sys.stderr)
        return 2

    if not args.json:
        print(f"benchmark matrix '{args.matrix}': {len(cells)} cells, "
              f"{args.repeats} repeats each "
              f"(history: {bench.history_path()})")

    def progress(record):
        if not args.json:
            print(f"  {record['cell']:<44s} "
                  f"{record['mean_records_per_sec']:>10,.0f} rec/s")

    records = bench.run_matrix(cells, repeats=args.repeats,
                               progress=progress)
    # Gate against the history as it stood *before* this run, then
    # append — so back-to-back runs compare against each other.
    history = bench.load_history()
    verdicts = None
    if args.check:
        verdicts = regress.check_records(records, history,
                                         tolerance=tolerance)
    for record in records:
        bench.append_history(record)
    if args.view:
        path = bench.write_view(bench.load_history(), args.view)
        if not args.json:
            print(f"wrote derived view {path}")

    if args.json:
        payload = {"records": records}
        if verdicts is not None:
            payload["verdicts"] = [v.as_dict() for v in verdicts]
            payload["failed"] = regress.any_failed(verdicts)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print()
        print(bench.render_records(records))
        if verdicts is not None:
            print()
            print(f"regression gate (tolerance {tolerance:.0%}, "
                  f"baseline: latest stored entry per cell)")
            print(regress.render_verdicts(verdicts))
    if verdicts is not None:
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(regress.markdown_report(verdicts,
                                                 tolerance=tolerance))
            if not args.json:
                print(f"wrote markdown report {args.report}")
        if regress.any_failed(verdicts):
            return 1
    return 0


def _cmd_trace_summarize(args) -> int:
    from .obs import traceql

    summary = traceql.summarize_trace(args.file)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(traceql.render_summary(summary))
    return 0


def _cmd_trace_diff(args) -> int:
    from .obs import traceql

    diff = traceql.diff_traces(args.a, args.b)
    if args.json:
        print(json.dumps(diff.as_dict(), indent=2, sort_keys=True))
    else:
        print(diff.render())
    return 0 if diff.identical else 1


def _cmd_trace_query(args) -> int:
    from .obs import traceql

    events = traceql.query_trace(
        args.file,
        kinds=args.kind.split(",") if args.kind else None,
        sources=args.source.split(",") if args.source else None,
        cycle_min=args.cycle_min, cycle_max=args.cycle_max,
        limit=args.limit)
    if args.json:
        print(json.dumps([e.to_dict() for e in events], indent=2))
    else:
        for event in events:
            print(event)
        print(f"({len(events)} events)", file=sys.stderr)
    return 0


def _cmd_lint(args) -> int:
    from .lint import RULES, LintUsageError, lint_paths
    from .lint.reporters import RENDERERS, render_sarif

    if args.list_rules:
        print(f"{'id':8s} {'scope':8s} {'name':28s} summary")
        for rule in RULES.values():
            print(f"{rule.id:8s} {rule.scope:8s} {rule.name:28s} "
                  f"{rule.summary}")
        return 0
    if args.env_table:
        from .envcontract import render_markdown
        table = render_markdown()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(table)
            print(f"wrote env-contract table {args.output}")
        else:
            print(table, end="")
        return 0
    if args.diff and not args.fix:
        print("--diff requires --fix", file=sys.stderr)
        return 2

    def run_lint():
        return lint_paths(
            args.paths or None,
            select=args.select.split(",") if args.select else None,
            ignore=args.ignore.split(",") if args.ignore else None,
            jobs=args.jobs,
            changed_only=args.changed_only,
            use_store=False if args.no_store else None)

    try:
        result = run_lint()
    except LintUsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.fix:
        from .lint.autofix import apply_fixes
        report = apply_fixes(result, dry_run=args.diff)
        if args.diff:
            if report.pending:
                print(report.diff, end="")
                print(f"{report.applied} safe fix(es) pending in "
                      f"{len(report.files)} file(s); run "
                      f"'repro lint --fix' to apply them")
                return 1
            print("no safe fixes pending")
            return 0
        if report.pending:
            rules = ", ".join(f"{rule} x{n}" for rule, n in
                              sorted(report.fixed_rules.items()))
            print(f"fixed {report.applied} span(s) in "
                  f"{len(report.files)} file(s) ({rules})")
            result = run_lint()   # report what --fix could not repair
    rendered = RENDERERS[args.format](result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
        print(f"wrote {args.format} report {args.output}")
    else:
        print(rendered)
    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as fh:
            fh.write(render_sarif(result) + "\n")
        if args.format != "sarif" or args.output:
            print(f"wrote sarif report {args.sarif}")
    return 0 if result.ok else 1


def _jobs_flag(value):
    """argparse type for every ``--jobs`` flag: shares the env-var
    normalization, so ``--jobs three`` warns exactly like
    ``REPRO_JOBS=three`` and falls back to serial instead of aborting
    the parse."""
    return parse_count(value, source="--jobs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Divide and Conquer Frontend "
                    "Bottleneck' (ISCA 2020)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list workloads"
                   ).set_defaults(func=_cmd_workloads)
    sub.add_parser("schemes", help="list schemes"
                   ).set_defaults(func=_cmd_schemes)

    def common(p):
        p.add_argument("--records", type=int, default=90_000)
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--jobs", type=_jobs_flag, default=None, metavar="N",
                       help="worker processes for independent simulations "
                            "(default: serial, or $REPRO_JOBS)")

    p_run = sub.add_parser("run", help="simulate one workload/scheme pair")
    p_run.add_argument("--workload", default="web_apache",
                       choices=workload_names())
    p_run.add_argument("--scheme", default="sn4l_dis_btb",
                       choices=sorted(scheme_names()))
    p_run.add_argument("--vl", action="store_true",
                       help="variable-length ISA build")
    p_run.add_argument("--trace", metavar="OUT.JSONL",
                       help="stream engine events to a JSONL trace file "
                            "(opt-in; the default path stays event-free)")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare schemes on a workload")
    p_cmp.add_argument("--workload", default="web_apache",
                       choices=workload_names())
    p_cmp.add_argument("--schemes",
                       default="n4l,sn4l,sn4l_dis,sn4l_dis_btb,shotgun")
    p_cmp.add_argument("--json", action="store_true",
                       help="machine-readable output (per-scheme metrics)")
    common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("id", help="e.g. fig16, tab1")
    p_fig.add_argument("--csv", help="also export the data as CSV")
    p_fig.add_argument("--json", help="also export the data as JSON")
    common(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_sample = sub.add_parser("sample",
                              help="sampled run with confidence intervals")
    p_sample.add_argument("--workload", default="web_apache",
                          choices=workload_names())
    p_sample.add_argument("--scheme", default="sn4l_dis_btb",
                          choices=sorted(scheme_names()))
    p_sample.add_argument("--samples", type=int, default=5)
    p_sample.add_argument("--records", type=int, default=60_000)
    p_sample.add_argument("--scale", type=float, default=1.0)
    p_sample.add_argument("--jobs", type=_jobs_flag, default=None,
                          metavar="N",
                          help="worker processes, one sample each")
    p_sample.set_defaults(func=_cmd_sample)

    p_mc = sub.add_parser("multicore",
                          help="co-simulate a workload mix over a shared LLC")
    p_mc.add_argument("--mix", default="web4",
                      help="a named mix (see repro.multicore.STANDARD_MIXES)")
    p_mc.add_argument("--scheme", default="sn4l_dis_btb",
                      choices=sorted(scheme_names()))
    p_mc.add_argument("--records", type=int, default=40_000)
    p_mc.add_argument("--scale", type=float, default=0.5)
    p_mc.add_argument("--jobs", type=_jobs_flag, default=None, metavar="N",
                      help="worker processes for per-core trace generation")
    p_mc.set_defaults(func=_cmd_multicore)

    p_stats = sub.add_parser(
        "stats", help="observability: store inventory, run manifests, "
                      "per-component telemetry, profiling")
    p_stats.add_argument("--last", type=int, default=8, metavar="N",
                         help="how many recent run manifests to list")
    p_stats.add_argument("--workload", default=None,
                         choices=workload_names(),
                         help="with --scheme: per-component breakdown")
    p_stats.add_argument("--scheme", default=None,
                         choices=sorted(scheme_names()))
    p_stats.add_argument("--records", type=int, default=20_000)
    p_stats.add_argument("--scale", type=float, default=1.0)
    p_stats.add_argument("--json", action="store_true",
                         help="machine-readable output (store, manifests, "
                              "components, profile)")
    p_stats.add_argument("--metrics", action="store_true",
                         help="print this process's metrics registry as "
                              "Prometheus text (same format as the "
                              "service's /metricsz) and exit")
    p_stats.set_defaults(func=_cmd_stats)

    from .obs.bench import matrix_names
    p_bench = sub.add_parser(
        "bench", help="run the benchmark matrix, append to the JSONL "
                      "history; --check gates against the stored baseline")
    p_bench.add_argument("--matrix", default="default",
                         choices=matrix_names())
    p_bench.add_argument("--repeats", type=int, default=3, metavar="N",
                         help="timed repetitions per cell (default 3)")
    p_bench.add_argument("--records", type=int, default=None,
                         help="override every cell's trace length")
    p_bench.add_argument("--scale", type=float, default=None,
                         help="override every cell's workload scale")
    p_bench.add_argument("--check", action="store_true",
                         help="compare against the stored baseline; exit 1 "
                              "on a statistically significant regression")
    p_bench.add_argument("--tolerance", default="10%",
                         help="mean slowdown tolerated before failing "
                              "(default 10%%)")
    p_bench.add_argument("--report", metavar="OUT.MD",
                         help="with --check: write a markdown report")
    p_bench.add_argument("--view", metavar="OUT.JSON",
                         help="regenerate the derived throughput view "
                              "(e.g. BENCH_throughput.json)")
    p_bench.add_argument("--json", action="store_true",
                         help="machine-readable records and verdicts")
    p_bench.set_defaults(func=_cmd_bench)

    p_lint = sub.add_parser(
        "lint", help="static analysis of simulator invariants: "
                     "determinism, telemetry/scheme registries, storage "
                     "budgets")
    p_lint.add_argument("paths", nargs="*",
                        help="files or directories (default: the installed "
                             "repro package)")
    p_lint.add_argument("--format", default="text",
                        choices=("text", "json", "sarif"))
    p_lint.add_argument("--output", metavar="FILE",
                        help="write the report to FILE instead of stdout")
    p_lint.add_argument("--sarif", metavar="FILE",
                        help="additionally write a SARIF 2.1.0 report "
                             "(for code-scanning upload)")
    p_lint.add_argument("--select", metavar="RULES",
                        help="comma-separated rule ids/prefixes to run "
                             "(e.g. DET,BUD001)")
    p_lint.add_argument("--ignore", metavar="RULES",
                        help="comma-separated rule ids/prefixes to skip")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    p_lint.add_argument("--jobs", type=_jobs_flag, default=None, metavar="N",
                        help="worker processes for the per-file pass")
    p_lint.add_argument("--changed-only", action="store_true",
                        help="lint only files changed since the merge-base "
                             "with main (plus untracked files); outside a "
                             "git checkout everything is linted")
    p_lint.add_argument("--fix", action="store_true",
                        help="apply the safe autofixes attached to the "
                             "findings (span rewrites only, never a noqa), "
                             "then re-lint and report what remains")
    p_lint.add_argument("--diff", action="store_true",
                        help="with --fix: print pending fixes as a unified "
                             "diff without writing anything; exits 1 when "
                             "fixes are pending (the CI dry-run gate)")
    p_lint.add_argument("--no-store", action="store_true",
                        help="skip the incremental lint cache (cold run)")
    p_lint.add_argument("--env-table", action="store_true",
                        help="print the declared environment-variable "
                             "contract as a markdown table and exit "
                             "(honours --output)")
    p_lint.set_defaults(func=_cmd_lint)

    p_serve = sub.add_parser(
        "serve",
        help="serve run/compare/bench as jobs over HTTP/JSON")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="0 binds an ephemeral port (printed on boot)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="concurrent simulation workers")
    p_serve.add_argument("--queue-size", type=int, default=64,
                         help="pending-job bound before 429 backpressure")
    p_serve.add_argument("--budget", default=None, metavar="BYTES",
                         help="store byte budget with k/m/g suffix "
                              "(LRU eviction), e.g. 512m")
    p_serve.add_argument("--ready-file", default=None, metavar="PATH",
                         help="write {host, port} JSON here once "
                              "listening (for drivers/CI)")
    p_serve.set_defaults(func=_cmd_serve)

    p_top = sub.add_parser(
        "top", help="live view of a running service: queue depth, "
                    "cache hit rates, shard skew, latency percentiles "
                    "(scrapes /metricsz + /storez)")
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port", type=int, required=True,
                       help="the served port (printed by `repro serve`)")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="seconds between frames (default 2)")
    p_top.add_argument("--once", action="store_true",
                       help="render a single frame and exit (scripts, CI)")
    p_top.set_defaults(func=_cmd_top)

    p_trace = sub.add_parser(
        "trace", help="analytics over JSONL event traces "
                      "(from `repro run --trace`)")
    tsub = p_trace.add_subparsers(dest="trace_command", required=True)

    p_sum = tsub.add_parser("summarize",
                            help="per-kind/source/component event totals")
    p_sum.add_argument("file")
    p_sum.add_argument("--json", action="store_true")
    p_sum.set_defaults(func=_cmd_trace_summarize)

    p_diff = tsub.add_parser(
        "diff", help="align two traces: counter drift per kind and "
                     "component, first diverging event; exit 1 on drift")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_diff.add_argument("--json", action="store_true")
    p_diff.set_defaults(func=_cmd_trace_diff)

    p_query = tsub.add_parser("query",
                              help="filter events by kind/source/cycle")
    p_query.add_argument("file")
    p_query.add_argument("--kind", help="comma-separated event kinds")
    p_query.add_argument("--source",
                         help="comma-separated sources ('engine' = untagged)")
    p_query.add_argument("--cycle-min", type=int, default=None)
    p_query.add_argument("--cycle-max", type=int, default=None)
    p_query.add_argument("--limit", type=int, default=None)
    p_query.add_argument("--json", action="store_true")
    p_query.set_defaults(func=_cmd_trace_query)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Make --jobs reach figure drivers (and anything else that consults
    # the parallel runner) without threading it through every lambda.
    set_default_jobs(getattr(args, "jobs", None))
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
