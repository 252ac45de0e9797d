"""Cold start: numpy loads only where arrays are made.

numpy is most of what importing the package costs, and a figure
re-rendered from a warm store makes no array: it reads stored results.
So the package, the CLI, the experiment harness and the server import
no numpy, and neither does a ``run_scheme`` the store serves; the first
program build, walk or trace load imports it.  Each check runs in a
fresh interpreter, because this one has long since imported numpy.
"""

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import repro
from repro.experiments import runner, store
from repro.workloads import tracegen

SRC = str(Path(repro.__file__).resolve().parents[1])

RUN = dict(workload="web_frontend", scheme="nl", n_records=1_500,
           scale=0.05)


def fresh_python(code, cache_dir=None):
    """Run ``code`` in a new interpreter; its stdout's last line, parsed
    as JSON."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    if cache_dir is None:
        env[store.ENV_CACHE_DISABLE] = "1"
    else:
        env[store.ENV_CACHE_DIR] = str(cache_dir)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_imports_leave_numpy_out():
    loaded = fresh_python("""
import importlib, json, sys
loaded = {}
for name in ("repro", "repro.cli", "repro.experiments",
             "repro.service.server"):
    importlib.import_module(name)
    loaded[name] = "numpy" in sys.modules
print(json.dumps(loaded))
""")
    assert loaded == {"repro": False, "repro.cli": False,
                      "repro.experiments": False,
                      "repro.service.server": False}


def test_store_hit_skips_numpy_and_a_miss_loads_it(tmp_path, monkeypatch):
    monkeypatch.setenv(store.ENV_CACHE_DIR, str(tmp_path))
    monkeypatch.delenv(store.ENV_CACHE_DISABLE, raising=False)
    monkeypatch.delenv(store.ENV_CACHE_BUDGET, raising=False)
    store.reset_store()
    runner.clear_cache()
    tracegen.clear_cache()
    try:
        warm = runner.run_scheme(**RUN)
    finally:
        store.reset_store()
        runner.clear_cache()
        tracegen.clear_cache()
    got = fresh_python(f"""
import json, sys
from dataclasses import asdict
from repro.experiments import run_scheme
run = {RUN!r}
hit = run_scheme(**run)
after_hit = "numpy" in sys.modules
run_scheme(**{{**run, "n_records": run["n_records"] + 1}})
print(json.dumps({{"stats": asdict(hit.stats), "after_hit": after_hit,
                  "after_miss": "numpy" in sys.modules}}))
""", cache_dir=tmp_path)
    assert got["stats"] == json.loads(json.dumps(asdict(warm.stats)))
    assert got["after_hit"] is False
    assert got["after_miss"] is True
