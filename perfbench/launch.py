"""Fresh-interpreter launcher for the program's processes.

The benchmark starts every process of the program it times through
this launcher, so a traced run can install its span wrappers
(:mod:`spans`) before any program code runs::

    python3 perfbench/launch.py [--trace-dir DIR --run-id ID] [--cpu N] warm
    python3 perfbench/launch.py [...] figure --workloads a,b,c \\
        --records 20000 --jobs 2 --out values.json
    python3 perfbench/launch.py [...] serve -- <repro serve arguments>

``warm`` imports the figure driver and exits; ``figure`` renders Fig. 16
through ``repro.experiments.figures.fig16_speedup`` and writes its
values as JSON; ``serve`` hands its arguments to ``repro.cli.main``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin the process (and any it forks) to this CPU")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("warm")
    fig = sub.add_parser("figure")
    fig.add_argument("--workloads", required=True)
    fig.add_argument("--records", type=int, required=True)
    fig.add_argument("--jobs", type=int, required=True)
    fig.add_argument("--out", type=Path, required=True)
    serve = sub.add_parser("serve")
    serve.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    recorder = None
    if args.trace_dir is not None:
        import spans
        recorder = spans.install(args.trace_dir, args.run_id)
    try:
        if args.command == "warm":
            import repro.experiments.figures  # noqa: F401
            import repro.experiments.parallel  # noqa: F401
            return 0
        if args.command == "figure":
            from repro.experiments import figures
            values = figures.fig16_speedup(args.workloads.split(","),
                                           n_records=args.records,
                                           jobs=args.jobs)
            args.out.write_text(json.dumps(values, sort_keys=True))
            return 0
        from repro.cli import main as repro_main
        serve_args: List[str] = [a for a in args.serve_args if a != "--"]
        return repro_main(["serve"] + serve_args)
    finally:
        if recorder is not None:
            recorder.dump()


if __name__ == "__main__":
    sys.exit(main())
