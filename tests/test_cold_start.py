"""Cold start: the simulator loads only where a run simulates.

numpy and the simulator (engine, prefetchers, memory, BTBs) are most of
what importing the package costs, and a figure re-rendered from a warm
store runs none of them: it reads stored results.  So the package, the
CLI and the experiment harness import neither, and neither does a
``run_scheme`` the store serves; :func:`runner.load_simulator` imports
them once a run misses the store, before a pool forks and when the
server starts.  Each check of what loads runs in a fresh interpreter,
because this one has long since imported everything.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import repro
from repro.experiments import figures, runner, store
from repro.lint.framework import _expand, dependent_closure
from repro.workloads import tracegen

SRC = str(Path(repro.__file__).resolve().parents[1])
PACKAGE = Path(repro.__file__).resolve().parent
REPO = PACKAGE.parents[1]

RUN = dict(workload="web_frontend", scheme="nl", n_records=1_500,
           scale=0.05)
FIG16_RECORDS = 1_500

#: What a store-served render must not load: the simulator, the
#: benchmark harness, the process pool and numpy.
SIMULATOR = ("repro.frontend.engine", "repro.core", "repro.prefetchers",
             "repro.memory", "repro.btb", "repro.obs.bench", "numpy",
             "multiprocessing", "concurrent.futures.process")
#: What a serial store miss loads: it simulates, but forks no pool.
SIMULATED = ("repro.frontend.engine", "repro.core", "repro.prefetchers",
             "repro.memory", "repro.btb", "numpy")

#: Packages whose names resolve on first access.
LAZY = ("repro", "repro.experiments", "repro.frontend", "repro.analysis",
        "repro.obs", "repro.workloads", "repro.cfg", "repro.isa")

# Defines ``loaded(names)`` in a fresh interpreter: the modules of
# ``names`` (a name and its submodules) that are imported.
_LOADED = """
import json, sys

def loaded(names):
    return sorted(m for m in sys.modules
                  if any(m == n or m.startswith(n + ".") for n in names))
"""


def fresh_python(code, cache_dir=None):
    """Run ``code`` in a new interpreter; its stdout's last line, parsed
    as JSON."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    if cache_dir is None:
        env[store.ENV_CACHE_DISABLE] = "1"
    else:
        env[store.ENV_CACHE_DIR] = str(cache_dir)
    proc = subprocess.run([sys.executable, "-c", _LOADED + code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture()
def warm_store(tmp_path, monkeypatch):
    """A store holding ``RUN`` and a one-workload Fig. 16; yields the
    directory and the results."""
    monkeypatch.setenv(store.ENV_CACHE_DIR, str(tmp_path))
    monkeypatch.delenv(store.ENV_CACHE_DISABLE, raising=False)
    monkeypatch.delenv(store.ENV_CACHE_BUDGET, raising=False)
    store.reset_store()
    runner.clear_cache()
    tracegen.clear_cache()
    try:
        yield tmp_path, runner.run_scheme(**RUN), figures.fig16_speedup(
            ["web_frontend"], n_records=FIG16_RECORDS, jobs=1)
    finally:
        store.reset_store()
        runner.clear_cache()
        tracegen.clear_cache()


def test_imports_leave_numpy_out():
    got = fresh_python("""
import importlib
out = {}
for name in ("repro", "repro.cli", "repro.experiments",
             "repro.service.server"):
    importlib.import_module(name)
    out[name] = "numpy" in sys.modules
print(json.dumps(out))
""")
    assert got == {"repro": False, "repro.cli": False,
                   "repro.experiments": False,
                   "repro.service.server": False}


def test_record_path_imports_no_simulator():
    got = fresh_python(f"""
import repro.cli
import repro.experiments.figures, repro.experiments.parallel
import repro.experiments.store, repro.analysis.metrics
import repro.obs.metrics, repro.obs.tracing
print(json.dumps(loaded({SIMULATOR!r})))
""")
    assert got == []


def test_store_hit_skips_the_simulator_and_a_miss_loads_it(warm_store):
    cache_dir, warm, fig16 = warm_store
    got = fresh_python(f"""
from dataclasses import asdict
from repro.experiments import run_scheme
from repro.experiments.figures import fig16_speedup
run = {RUN!r}
hit = run_scheme(**run)
fig16 = fig16_speedup(["web_frontend"], n_records={FIG16_RECORDS})
after_hit = loaded({SIMULATOR!r})
run_scheme(**{{**run, "n_records": run["n_records"] + 1}})
print(json.dumps({{"stats": asdict(hit.stats), "fig16": fig16,
                  "after_hit": after_hit,
                  "after_miss": loaded({SIMULATED!r})}}))
""", cache_dir=cache_dir)
    assert got["stats"] == json.loads(json.dumps(asdict(warm.stats)))
    assert got["fig16"] == json.loads(json.dumps(fig16))
    assert got["after_hit"] == []
    for name in SIMULATED:
        assert name in got["after_miss"], name


def test_a_miss_after_load_simulator_imports_nothing_new(tmp_path):
    # Every scheme's first run is a store miss here, so a module one of
    # them needs and load_simulator leaves out shows up.
    got = fresh_python(f"""
from repro.experiments import runner
runner.load_simulator()
before = set(loaded(["repro"]))
run = {RUN!r}
for scheme in runner.scheme_names():
    runner.run_scheme(**{{**run, "scheme": scheme}})
print(json.dumps(sorted(set(loaded(["repro"])) - before)))
""", cache_dir=tmp_path)
    assert got == []


def test_scheme_names_import_nothing_and_every_entry_builds():
    got = fresh_python("""
from repro.experiments import runner
names = runner.scheme_names()
quiet = loaded(["repro.core", "repro.prefetchers"])
built = {}
for name in names:
    prefetcher, overrides = runner.build_scheme(name)
    built[name] = [type(prefetcher).__name__, overrides]
print(json.dumps({"quiet": quiet, "built": built}))
""")
    assert got["quiet"] == []
    built = got["built"]
    assert list(built) == list(runner.SCHEMES)
    for name, (path, _kwargs, overrides) in runner.SCHEMES.items():
        kind, got_overrides = built[name]
        if path is None:
            assert kind == "NoneType", name
        else:
            # A class, or one of the paper's presets over the proactive
            # engine (dis_only, sn4l_dis, sn4l_dis_btb).
            assert kind in (path.rsplit(".", 1)[1], "ProactivePrefetcher")
        assert got_overrides == overrides


def test_build_scheme_returns_fresh_overrides():
    _, overrides = runner.build_scheme("perfect_l1i")
    overrides["perfect_btb"] = True
    assert runner.build_scheme("perfect_l1i")[1] == {"perfect_l1i": True}


# -- the lazy packages -------------------------------------------------------

def _lazy_tables(package):
    """The ``if TYPE_CHECKING:`` imports and the ``lazy_exports`` table of
    a package's ``__init__``, each as {relative module: names}."""
    path = PACKAGE.joinpath(*package.split(".")[1:], "__init__.py")
    tree = ast.parse(path.read_text())
    checked, table = {}, None
    for node in tree.body:
        if isinstance(node, ast.If) and \
                getattr(node.test, "id", None) == "TYPE_CHECKING":
            for imp in node.body:
                assert isinstance(imp, ast.ImportFrom) and imp.level == 1
                key = "." + (imp.module or "")
                checked[key] = checked.get(key, ()) + tuple(
                    a.name for a in imp.names)
        elif isinstance(node, ast.Assign) and \
                getattr(node.targets[0], "id", None) == "__getattr__":
            table = ast.literal_eval(node.value.args[1])
    return checked, table


def test_every_lazy_package_is_listed():
    lazy = {".".join(("repro",) + p.parent.relative_to(PACKAGE).parts)
            .rstrip(".") for p in PACKAGE.rglob("__init__.py")
            if "lazy_exports(" in p.read_text()}
    assert lazy == set(LAZY)


@pytest.mark.parametrize("package", LAZY)
def test_type_checking_imports_equal_the_lazy_table(package):
    checked, table = _lazy_tables(package)
    assert table is not None
    assert {k: sorted(v) for k, v in checked.items()} == \
        {k: sorted(v) for k, v in table.items()}


@pytest.mark.parametrize("package", LAZY)
def test_every_exported_name_is_the_defining_module_object(package):
    module = importlib.import_module(package)
    _, table = _lazy_tables(package)
    where = {name: sub for sub, names in table.items() for name in names}
    for name in module.__all__:
        if name not in where:
            continue   # defined in the __init__ itself (__version__)
        sub = where[name]
        if sub == ".":
            defining = importlib.import_module(f"{package}.{name}")
            assert getattr(module, name) is defining
        else:
            defining = importlib.import_module(package + sub)
            assert getattr(module, name) is getattr(defining, name), name
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")


def test_lint_still_sees_the_import_edges():
    # The files re-linted after an engine edit follow the import lines,
    # so the lazy packages keep theirs under TYPE_CHECKING.
    files = [f.resolve() for f in _expand(
        [REPO / "src" / "repro", REPO / "tests", REPO / "benchmarks"])]
    engine = PACKAGE / "frontend" / "engine.py"
    closure = dependent_closure(REPO, files, {engine})
    assert REPO / "tests" / "test_obs.py" in closure
    assert PACKAGE / "experiments" / "runner.py" in closure
