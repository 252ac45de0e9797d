"""``served_mix``: jobs served by ``repro serve`` to closed-loop clients.

``repro serve --workers 2`` runs as a subprocess on a fresh store, and
two client threads in the benchmark process each work through a fixed
seeded list of ``run`` jobs over ``web_frontend``/``web_apache`` x
``n4l``/``sn4l``/``sn4l_dis_btb``/``shotgun`` at 6-8k records.  The
loop is closed (a client submits its next job when the last finished)
because service callers each wait for their job.

Each client's list is made of segments.  A segment holds
:data:`MISSES_PER_SEGMENT` new fingerprints (misses, which simulate)
and twice as many repeats of a fingerprint that client already
finished (hits, served from the server's in-process memo), shuffled,
then one position where both clients submit the same new fingerprint
together, which exercises single-flight dedupe.  The clients stop
together after the first segment that ends past their share of
``--seconds``.

Latency is measured by the client from the submit call to the first
poll that sees a terminal state; the benchmark polls every 5 ms
(``ServiceClient.wait`` would poll every 0.2 s).  Hits make HTTP, the
job queue, dedupe, the memo and per-job trace persistence do most of
the work, while misses keep the engine behind the queue; hits wait
behind misses (raw p50 10-19 ms but p90 110-150 ms when this workload
was designed), so changes to service scheduling show here and nowhere
else.

End-to-end metrics: ``work_s`` is the normalised time per served job
with both clients busy (the inverse of job throughput) and ``op_ms``
the normalised median latency of a miss (a new fingerprint, dedupe
submissions included).  Measured spread over 6 fresh runs when this
workload was designed, (max-min)/median raw -> normalised: jobs/s 10%
-> 7%, miss p50 15% -> 5%, miss p90 13% -> 11%, ``setup_s`` 13% -> 8%.
No tail percentile is reported: a 10 s run holds ~45 misses, too few
for ten samples beyond p90, and the hit latencies spread too widely to
carry a bound (hit p50 is quantised by the 5 ms poll, 38-43% spread;
hit p90, even at the ~130 hits of a 15 s run, spread 17-45% as the
inter-quartile share of the median over 5-10 seeds, because how many
hits queue behind a miss changes from run to run).  How long hits and
misses wait in the queue is the per-layer ``service.queue_wait_s``.

The server simulates in threads under one interpreter lock, so it uses
one CPU at a time: it runs pinned beside one probe, which normalises
every interval it serves, and the client threads run on the other CPU
(on a single-CPU host, on the same one).

Set-up boots the server and runs one untimed job per workload, which
builds its program.  A run sets up :data:`SETUPS` servers, each on a
fresh store, one after the other, and each serves an equal share of
``--seconds`` with its own part of the seeded plan; the latencies of
all parts are pooled, so the second set-up's server also serves
instead of costing time only.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from common import Normaliser, PassResult, launcher, percentile, spawn, wait
from hostspeed import Probes

WORKLOADS = ("web_frontend", "web_apache")
SCHEMES = ("n4l", "sn4l", "sn4l_dis_btb", "shotgun")
RECORD_RANGE = (6_000, 8_000)
#: Set-up jobs run below the schedule's record range, so they never
#: share a fingerprint with it.
WARM_RECORDS = 5_000
#: The shared dedupe fingerprint uses the slowest pair, so the leader is
#: still simulating when the follower arrives.
DEDUPE_PAIR = ("web_apache", "sn4l_dis_btb")
MISSES_PER_SEGMENT = 4
#: Two segments cycle every client's misses through every pair.
MIN_SEGMENTS = 2
#: Segments a plan holds (each uses five of the 1000 record offsets).
MAX_SEGMENTS = 200
#: Set-ups per run (~8 s each): ``setup_s`` is their median.
SETUPS = 2
#: ``--tiny`` smoke-test program scale.
TINY_SCALE = 0.1
WORKERS = 2
POLL_S = 0.005
JOB_TIMEOUT_S = 120.0
TERMINAL = ("done", "failed", "cancelled")


@dataclass(frozen=True)
class Planned:
    kind: str           # "miss", "hit", "dedupe" or "warm"
    workload: str
    scheme: str
    n_records: int
    scale: float = 1.0


def schedule(seed: int, segments: int = MAX_SEGMENTS, scale: float = 1.0,
             part: int = 0) -> List[List[List[Planned]]]:
    """``plan[client][segment]``: the positions of each segment, its
    last position being the dedupe job both clients share.

    Record counts are distinct, so every new job is a new fingerprint,
    and come in pairs ``mid - d``, ``mid + d``: each client's misses in
    a segment average the middle of :data:`RECORD_RANGE`, so the seed
    moves the inputs and not the expected amount of work.
    """
    rng = random.Random(f"{seed}/{part}")
    lo, hi = RECORD_RANGE
    mid, half = (lo + hi) // 2, (hi - lo) // 2
    offsets = iter(rng.sample(range(1, half + 1),
                              (1 + MISSES_PER_SEGMENT) * segments))
    plan: List[List[List[Planned]]] = [[], []]
    own: List[List[Planned]] = [[], []]
    n_miss = [0, 0]
    for k in range(segments):
        shared = Planned("dedupe", *DEDUPE_PAIR,
                         mid + (-1) ** k * next(offsets), scale)
        for client in (0, 1):
            records = []
            for _ in range(MISSES_PER_SEGMENT // 2):
                d = next(offsets)
                records += [mid - d, mid + d]
            rng.shuffle(records)
            kinds = ["miss"] * MISSES_PER_SEGMENT + \
                ["hit"] * (2 * MISSES_PER_SEGMENT)
            rng.shuffle(kinds)
            if not own[client]:
                kinds.remove("miss")
                kinds.insert(0, "miss")
            segment = []
            for kind in kinds:
                if kind == "miss":
                    i = n_miss[client]
                    n_miss[client] += 1
                    # Every segment simulates each scheme once and
                    # each program twice, so segments cost alike and
                    # where a run stops does not move its figures.
                    job = Planned("miss", WORKLOADS[(i + i // 4) % 2],
                                  SCHEMES[i % len(SCHEMES)],
                                  records.pop(), scale)
                    own[client].append(job)
                else:
                    job = replace(rng.choice(own[client]), kind="hit")
                segment.append(job)
            segment.append(shared)
            plan[client].append(segment)
    return plan


def _as_tuple(job: Planned) -> Tuple[str, str, int]:
    return job.workload, job.scheme, job.n_records


class Server:
    """One ``repro serve`` subprocess on its own fresh store."""

    def __init__(self, cache: Path, log: Path, trace_dir: Optional[Path],
                 run_id: str, cpu: int):
        from repro.service.client import ServiceClient

        ready = cache.parent / (cache.name + ".ready.json")
        self.t0 = time.monotonic()
        with open(log, "ab") as out:
            self.proc = spawn(
                launcher(["serve", "--", "--workers", str(WORKERS),
                          "--ready-file", str(ready)], trace_dir, run_id,
                         cpu),
                cache, stdout=out, stderr=out)
        deadline = self.t0 + 60.0
        while not ready.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                raise RuntimeError(f"repro serve did not start (see {log})")
            time.sleep(0.01)
        address = json.loads(ready.read_text())
        self.client = ServiceClient(address["host"], address["port"],
                                    timeout=JOB_TIMEOUT_S)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        wait(self.proc, 30.0)


def _run_job(client, job: Planned) -> Dict[str, Any]:
    from repro.service.client import ServiceError

    out: Dict[str, Any] = {"kind": job.kind, "key": _as_tuple(job),
                           "t0": time.monotonic()}
    try:
        job_id = client.submit("run", workload=job.workload,
                               scheme=job.scheme, n_records=job.n_records,
                               scale=job.scale)
        while True:
            record = client.job(job_id)
            if record["state"] in TERMINAL:
                break
            if time.monotonic() - out["t0"] > JOB_TIMEOUT_S:
                raise ServiceError(f"job {job_id} timed out")
            time.sleep(POLL_S)
    except ServiceError as exc:
        out.update(t1=time.monotonic(), error=str(exc),
                   rejected=exc.status == 429)
        return out
    out["t1"] = time.monotonic()
    out["state"] = record["state"]
    out["deduped"] = bool(record.get("deduped"))
    out["digest_sha"] = (record.get("result") or {}).get("digest_sha")
    out["queue_wait_s"] = (record["started_at"] or record["finished_at"]) \
        - record["submitted_at"]
    out["run_s"] = record["finished_at"] - (record["started_at"]
                                            or record["finished_at"])
    if record["state"] != "done":
        out["error"] = record.get("error") or record["state"]
    return out


def _clients(server: Server, plan, seconds: float, cpus: Set[int]
             ) -> Tuple[List[List[Dict[str, Any]]], List[str]]:
    """Run both clients, each thread pinned to ``cpus``; returns each
    one's job log and any errors."""
    deadline = time.monotonic() + seconds
    state = {"stop": False, "segments": 0}

    def decide() -> None:
        state["segments"] += 1
        state["stop"] = state["segments"] >= len(plan[0]) or (
            state["segments"] >= MIN_SEGMENTS
            and time.monotonic() >= deadline)

    barrier = threading.Barrier(2, action=decide)
    logs: List[List[Dict[str, Any]]] = [[], []]
    errors: List[str] = []

    def client_loop(c: int) -> None:
        os.sched_setaffinity(0, cpus)   # this thread only
        try:
            for segment in plan[c]:
                for job in segment[:-1]:
                    logs[c].append(_run_job(server.client, job))
                barrier.wait(timeout=JOB_TIMEOUT_S)
                logs[c].append(_run_job(server.client, segment[-1]))
                if state["stop"]:
                    return
        except threading.BrokenBarrierError:
            errors.append(f"client {c}: the other client stopped early")
        except Exception as exc:        # reported as a failed run
            errors.append(f"client {c}: {type(exc).__name__}: {exc}")
            barrier.abort()

    threads = [threading.Thread(target=client_loop, args=(c,))
               for c in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return logs, errors


def check(logs: List[List[Dict[str, Any]]]) -> List[str]:
    """Digest and dedupe checks; one message per failed job."""
    first: Dict[Tuple, str] = {}
    for log in logs:
        for job in log:
            if "error" not in job and job["kind"] != "hit":
                first.setdefault(job["key"], job["digest_sha"])
    partner = {}
    for a, b in zip(*[[j for j in log if j["kind"] == "dedupe"]
                      for log in logs]):
        partner[id(a)], partner[id(b)] = b, a
    failures = []
    for c, log in enumerate(logs):
        for pos, job in enumerate(log):
            where = f"client {c} job {pos} {job['key']}"
            if "error" in job:
                failures.append(f"{where}: {job['error']}")
            elif job["digest_sha"] is None or \
                    job["digest_sha"] != first.get(job["key"]):
                failures.append(f"{where}: digest_sha differs from the "
                                f"fingerprint's first run")
            elif job["kind"] != "dedupe" and job["deduped"]:
                failures.append(f"{where}: deduped but not a shared "
                                f"submission")
            elif id(job) in partner and "error" not in partner[id(job)] \
                    and job["deduped"] == partner[id(job)]["deduped"]:
                failures.append(f"{where}: shared submission with deduped "
                                f"flags {job['deduped']}/"
                                f"{partner[id(job)]['deduped']}, expected "
                                f"exactly one follower")
    return failures


def run_pass(seed: int, seconds: float, work: Path, probes: Probes,
             pinned: Optional[Dict[str, Any]] = None,
             trace_dir: Optional[Path] = None,
             setups: int = SETUPS, tiny: bool = False) -> PassResult:
    res = PassResult()
    run_id = f"served_mix-{seed}"
    # The server simulates in threads under one interpreter lock, so it
    # is pinned beside one probe, which normalises its work; the clients
    # keep off its CPU when there is another.
    pin = probes.cpus[-1]
    client_cpus = set(probes.cpus[:-1]) or {pin}
    scale = TINY_SCALE if tiny else 1.0
    log = work / "serve.log"
    start = time.monotonic()
    setup_intervals = []
    busy = []
    jobs: List[Dict[str, Any]] = []
    for part in range(setups):
        server = Server(work / f"cache{part}", log, trace_dir, run_id, pin)
        try:
            for w in WORKLOADS:
                res.attempted += 1
                warm = _run_job(server.client, Planned(
                    "warm", w, "sn4l_dis_btb", WARM_RECORDS, scale))
                if "error" in warm:
                    res.failures.append(f"set-up job on {w}: "
                                        f"{warm['error']}")
            setup_intervals.append((server.t0, time.monotonic()))

            t0 = time.monotonic()
            logs, errors = _clients(
                server, schedule(seed, part=part, scale=scale),
                seconds / setups, client_cpus)
            busy.append((t0, time.monotonic()))
            res.failures += errors + check(logs)
            jobs += [j for log_ in logs for j in log_]
        finally:
            server.close()
    res.window = (start, time.monotonic())
    res.attempted += len(jobs)

    norm = Normaliser(probes)
    misses = [j for j in jobs if j["kind"] != "hit"]
    lat = [float("inf") if "error" in j else
           1e3 * norm.seconds(j["t0"], j["t1"], pin) for j in misses]
    raw = [float("inf") if "error" in j else 1e3 * (j["t1"] - j["t0"])
           for j in misses]
    res.metrics["setup_s"] = (
        statistics.median(norm.seconds(a, b, pin)
                          for a, b in setup_intervals),
        statistics.median(b - a for a, b in setup_intervals), "s")
    res.metrics["work_s"] = (
        sum(norm.seconds(a, b, pin) for a, b in busy) / len(jobs),
        sum(b - a for a, b in busy) / len(jobs), "s")
    res.metrics["op_ms"] = (percentile(lat, 0.5), percentile(raw, 0.5), "ms")
    res.op_samples = len(misses)
    return res
