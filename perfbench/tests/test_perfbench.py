"""The benchmark's own tests.

    python3 -m pytest -q perfbench/tests

The smoke tests run every workload at ``--tiny`` size through
``run.py``, as the benchmark's users do, and bind what it prints to
``BENCHMARK.json``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import engine_hot
import figure_cold
import hostspeed
import served_mix
import spans
from run import END_TO_END, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

def _run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, seed, trace):
        key = (workload, seed, trace)
        if key not in cache:
            cache[key] = _run(*key)
        return cache[key]
    return get


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_end_to_end_metrics(runs, workload):
    table, result = runs(workload, 0, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, unit, better in END_TO_END:
        assert declared[name]["unit"] == unit
        assert declared[name]["better"] == better
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(row.split() == [name, row.split()[1], unit, better]
                   for row in table), (name, table)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced_run_prints_per_layer_metrics(runs, workload):
    _, result = runs(workload, 0, 1)
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert declared[name] == entry["unit"], name
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    # Every workload simulates every rated scheme and builds programs.
    for scheme in spans.RATE_SCHEMES:
        assert metrics[f"engine.rec_per_s.{scheme}"] > 0, scheme
    assert metrics["workloads.program_builds"] > 0
    assert metrics["bench.op_samples"] >= 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_two_seeds_same_metric_names(runs, workload):
    assert set(runs(workload, 0, 0)[1]["metrics"]) == \
        set(runs(workload, 1, 0)[1]["metrics"])


def test_two_seeds_different_inputs():
    from repro.workloads import get_trace

    assert served_mix.schedule(0, 3) != served_mix.schedule(1, 3)
    assert figure_cold.pick_workloads(0) != figure_cold.pick_workloads(1)
    records, _, scale = engine_hot.TINY
    a = get_trace("web_apache", n_records=records, scale=scale, sample=0)
    b = get_trace("web_apache", n_records=records, scale=scale, sample=1)
    assert [r.line for r in a.records] != [r.line for r in b.records]


def test_default_seed_picks_the_documented_figure_workloads():
    assert figure_cold.pick_workloads(0) == ["web_frontend", "web_apache",
                                             "oltp_db_a"]


def test_halving_probe_rate_halves_normalised_time():
    samples = [(t / 10, 4.0e6) for t in range(100)]
    slow = [(t, r / 2) for t, r in samples]
    full = hostspeed.normalise(3.0, [samples], 2.0, 5.0)
    half = hostspeed.normalise(3.0, [slow], 2.0, 5.0)
    assert full == pytest.approx(3.0 * 4.0e6 / hostspeed.REFERENCE_RATE)
    assert half == pytest.approx(full / 2)


def test_short_interval_borrows_nearest_samples():
    samples = [(float(t), 1.0 if t < 50 else 3.0) for t in range(100)]
    # One sample inside [49.5, 50.5]: the ten nearest (45-54) average 2.
    rate = hostspeed.window_rate(samples, 49.5, 50.5, min_samples=10)
    assert rate == pytest.approx(2.0)


def test_probes_average_over_cpus():
    a = [(float(t), 2.0e6) for t in range(20)]
    b = [(float(t), 6.0e6) for t in range(20)]
    assert hostspeed.speed_factor([a, b], 0, 19) == pytest.approx(
        4.0e6 / hostspeed.REFERENCE_RATE)


def _report(digest):
    rep = {"workload": "web_apache", "scheme": "shotgun", "t0": 0.0,
           "t1": 1.0, "records": 10, "digest": dict(digest)}
    return {"setups": [[0.0, 1.0]], "reps": [rep, dict(rep)],
            "checks": [{"workload": "web_apache", "scheme": "shotgun",
                        "digest": dict(digest)}]}


def test_corrupted_pinned_digest_is_a_counted_failure():
    from repro.obs.bench import DIGEST_COUNTERS

    digest = {name: i for i, name in enumerate(DIGEST_COUNTERS)}
    attempted, failures = engine_hot.check(
        _report(digest), {"web_apache/shotgun": digest})
    assert (attempted, failures) == (3, [])
    corrupted = dict(digest, demand_misses=digest["demand_misses"] + 1)
    attempted, failures = engine_hot.check(
        _report(digest), {"web_apache/shotgun": corrupted})
    assert attempted == 3 and len(failures) == 3


def test_served_digest_and_dedupe_mismatches_are_counted():
    key = ("web_apache", "n4l", 7000)
    shared = ("web_apache", "sn4l_dis_btb", 6500)

    def job(kind, key, sha, deduped=False):
        return {"kind": kind, "key": key, "digest_sha": sha,
                "deduped": deduped}

    good = [[job("miss", key, "a"), job("hit", key, "a"),
             job("dedupe", shared, "s", True)],
            [job("dedupe", shared, "s")]]
    assert served_mix.check(good) == []
    # A hit whose digest differs, and a shared submission neither of
    # whose jobs was deduped: three failed jobs, no exception.
    bad = [[job("miss", key, "a"), job("hit", key, "b"),
            job("dedupe", shared, "s")],
           [job("dedupe", shared, "s")]]
    assert len(served_mix.check(bad)) == 3
    failed = [[job("miss", key, "a"), dict(job("hit", key, None),
                                           error="job failed")]]
    assert len(served_mix.check(failed)) == 1


def test_self_time_subtracts_the_union_of_children():
    span = {"name": "p", "start": 0.0, "end": 10.0, "id": "p",
            "parent": None}
    kids = [{"name": "c", "start": s, "end": e, "id": f"c{i}", "parent": "p"}
            for i, (s, e) in enumerate([(1.0, 3.0), (2.0, 5.0), (9.0, 12.0)])]
    assert spans.self_times([span] + kids)["p"] == pytest.approx(5.0)


def test_unexercised_layers_read_zero():
    metrics = spans.layer_metrics([])
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(metrics) == {name for name in declared
                            if not name.startswith(("bench.", "obs."))}
    assert all(value == 0.0 for value, _ in metrics.values())


def test_benchmark_json_declares_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == sorted(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]] == END_TO_END
