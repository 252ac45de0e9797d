"""Persistent, sharded result + trace store for experiment runs.

The in-process memo cache in :mod:`repro.experiments.runner` only lives
for one interpreter; every fresh invocation of the figure drivers (CLI,
CI, ``examples/reproduce_paper.py``) used to pay the full pure-Python
simulation cost again.  This module adds an on-disk layer:

* **Results** — one small JSON file per (workload, scheme, config)
  fingerprint holding the :class:`~repro.frontend.stats.FrontendStats`
  counters plus the runner's ``extra`` observables.
* **Traces** — compressed ``.npz`` archives written through
  :mod:`repro.workloads.serialize`, so regenerating a workload's fetch
  trace is a load instead of a CFG walk.  Traces are keyed by their
  *stream* ``(workload profile, scale, ISA, sample)``, not by length: a
  trace of n records is the first n records of every longer trace of
  its stream, so one entry holds the longest prefix a process walked
  and a load serves every shorter length.  A process rewrites the entry
  only after walking further than it holds; the last writer wins, and
  a racing writer's shorter prefix is still a correct one.

Location: ``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``.
Set ``REPRO_CACHE_DISABLE=1`` to bypass the store entirely.

Keys are content fingerprints: a SHA-256 over the canonical JSON of every
input that can change the result (workload profile parameters, scheme
name, config overrides, a result's trace length, warmup, seed/sample,
…) plus a *code salt* hashing the ``repro`` package sources — any code
change invalidates every cached entry, which keeps "stale cache" bugs
structurally impossible at the cost of a cold start per code edit.

Layout
------
Entries are *sharded* by the first two hex characters of the
fingerprint — ``results/ab/<fp>.json``, ``traces/ab/<fp>.npz`` — so a
fleet of clients sweeping a design space never piles tens of thousands
of files into one directory.  Flat pre-shard entries are still read
transparently and migrated into their shard on first access.

Eviction
--------
With a byte budget configured (``$REPRO_CACHE_BUDGET``, e.g. ``512m``,
or :meth:`ResultStore.set_budget`) the store evicts least-recently-used
entries — LRU by file access time, a result and its manifest as one
unit — after each write until the on-disk total fits the budget.
Unbudgeted stores never evict (the code salt already bounds staleness).

The store is shared by concurrent *processes* (parallel runner workers,
``repro serve`` clients) and, within the service, concurrent *threads*:
writers publish with an atomic rename and readers treat unreadable
entries as misses.  The session counts (hits, misses, writes, ...) are
``repro_store_ops_total`` counters in the metrics registry, so a pool
worker's store traffic reaches the parent with its other metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import warnings
import zipfile
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..frontend.stats import FrontendStats

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE_DISABLE = "REPRO_CACHE_DISABLE"
ENV_CACHE_BUDGET = "REPRO_CACHE_BUDGET"

#: Bump to invalidate every stored entry regardless of the code salt.
#: 2: sharded directory layout (old flat entries remain readable).
STORE_VERSION = 2

_CODE_SALT: Optional[str] = None

#: Budget strings already warned about (one warning per distinct value).
_warned_budgets = set()


def cache_root() -> Path:
    """Directory the store lives in (not created until first write)."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def caching_enabled() -> bool:
    """Persistent caching is on unless explicitly disabled."""
    return os.environ.get(ENV_CACHE_DISABLE, "") not in ("1", "true", "yes")


_BUDGET_UNITS = {"": 1, "b": 1, "k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def parse_byte_budget(value) -> Optional[int]:
    """Parse a byte budget: an int, or a string like ``"512m"``.

    Suffixes ``k``/``m``/``g`` (case-insensitive, optional trailing
    ``b``) scale by binary powers.  Unparsable values warn once per
    distinct value and return None (no budget), mirroring how invalid
    ``REPRO_JOBS`` degrades to serial instead of crashing.
    """
    if value is None:
        return None
    if isinstance(value, (int, float)):
        return max(0, int(value))
    text = str(value).strip().lower()
    if not text:
        return None
    match = re.fullmatch(r"(\d+(?:\.\d+)?)\s*([kmg]?)b?", text)
    if match is None:
        if text not in _warned_budgets:
            _warned_budgets.add(text)
            warnings.warn(
                f"ignoring invalid cache byte budget {value!r} "
                f"(use e.g. 1073741824, '512m' or '2g'); no eviction",
                RuntimeWarning, stacklevel=2)
        return None
    return int(float(match.group(1)) * _BUDGET_UNITS[match.group(2)])


def env_byte_budget() -> Optional[int]:
    """The byte budget configured via ``$REPRO_CACHE_BUDGET``, if any."""
    return parse_byte_budget(os.environ.get(ENV_CACHE_BUDGET))


def code_salt() -> str:
    """Hash of every ``repro`` source file (memoised per process).

    Fingerprints include this salt, so editing any module under the
    package invalidates all persisted results and traces.
    """
    global _CODE_SALT
    if _CODE_SALT is None:
        package_dir = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for source in sorted(package_dir.rglob("*.py")):
            digest.update(str(source.relative_to(package_dir)).encode())
            digest.update(source.read_bytes())
        digest.update(str(STORE_VERSION).encode())
        _CODE_SALT = digest.hexdigest()[:16]
    return _CODE_SALT


#: Default ``object.__repr__``-style reprs (and function/method reprs)
#: embed a per-process memory address: hashing one would silently split
#: fingerprint-identical runs into distinct cache keys across processes.
_ADDRESS_REPR = re.compile(r" at 0x[0-9a-fA-F]+")


def _canonical(value: Any) -> Any:
    """Reduce fingerprint parts to canonical JSON-encodable values.

    Unknown object types are encoded as their type name plus their
    canonicalised instance fields — stable across processes — and
    anything that would only be distinguishable by memory address
    raises :class:`TypeError` instead of silently poisoning the key.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return {"__dataclass__": type(value).__name__,
                **_canonical(asdict(value))}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(),
                                                        key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": bytes(value).hex()}
    cls = type(value)
    type_name = f"{cls.__module__}.{cls.__qualname__}"
    if cls.__repr__ is not object.__repr__:
        text = repr(value)
        if _ADDRESS_REPR.search(text):
            raise TypeError(
                f"cannot fingerprint {type_name}: repr() embeds a "
                f"per-process memory address ({text!r})")
        return {"__repr__": type_name, "value": text}
    fields = getattr(value, "__dict__", None)
    if fields:
        return {"__object__": type_name, **_canonical(dict(fields))}
    raise TypeError(
        f"cannot fingerprint {type_name}: no stable repr and no "
        f"instance fields (the default object repr is per-process)")


def fingerprint(parts: Dict[str, Any]) -> str:
    """Content fingerprint of a run: SHA-256 of canonical JSON + salt."""
    payload = json.dumps({"salt": code_salt(), **_canonical(parts)},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def shard_of(fp: str) -> str:
    """The two-character shard directory a fingerprint lives in."""
    return fp[:2] if len(fp) >= 2 else "00"


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _notify(kind: str, **fields) -> None:
    """Forward a store lifecycle event to the telemetry listeners.

    Imported lazily: :mod:`repro.obs` depends on this module, so the
    hookup must happen at call time, and a store must keep working even
    if the observability layer is unimportable.
    """
    try:
        from ..obs.telemetry import store_event
    except ImportError:                      # pragma: no cover - bootstrap
        return
    store_event(kind, **fields)


#: Exceptions that mean "entry exists but is garbage" for .npz traces:
#: truncated archives raise BadZipFile/EOFError, header corruption
#: surfaces as KeyError/ValueError from the column reads.
_TRACE_CORRUPTION = (OSError, ValueError, KeyError, EOFError,
                     zipfile.BadZipFile)


#: The store's session counts, each a ``repro_store_ops_total{op}``
#: series: ``corrupt`` entries existed but failed to parse (also counted
#: as a miss: callers just re-simulate), ``invalidations`` were removed
#: by :meth:`ResultStore.clear`, ``evicted`` by the LRU byte budget and
#: ``migrated`` flat legacy entries were moved into their shard.
STORE_OPS = ("hits", "misses", "corrupt", "writes", "invalidations",
             "evicted", "migrated")


class ResultStore:
    """On-disk store of simulation results and fetch traces.

    Concurrent-safe for the parallel runner and the async service:
    writers publish with an atomic rename and readers treat any
    unreadable entry as a miss.  Its session counts live in the
    process's metrics registry (see :data:`STORE_OPS`), which is
    lock-protected and folds in pool workers' counts.
    """

    def __init__(self, root: Optional[Path] = None,
                 budget_bytes: Optional[int] = None):
        self._root = Path(root) if root is not None else None
        self._budget = budget_bytes

    @property
    def root(self) -> Path:
        return self._root if self._root is not None else cache_root()

    @staticmethod
    def _bump(op: str, n: int = 1) -> None:
        # Imported lazily, as in :func:`_notify`: repro.obs imports
        # this module.
        from ..obs.metrics import inc
        inc("repro_store_ops_total", n, labels={"op": op})

    # -- byte budget ---------------------------------------------------

    def byte_budget(self) -> Optional[int]:
        """Effective eviction budget: explicit, else the environment."""
        return self._budget if self._budget is not None else env_byte_budget()

    def set_budget(self, budget_bytes: Optional[int]) -> None:
        """Pin the eviction budget (overrides ``$REPRO_CACHE_BUDGET``)."""
        self._budget = budget_bytes

    # -- layout --------------------------------------------------------

    def result_path(self, fp: str) -> Path:
        return self.root / "results" / shard_of(fp) / f"{fp}.json"

    def manifest_path(self, fp: str) -> Path:
        return self.root / "results" / shard_of(fp) / f"{fp}.manifest.json"

    def trace_path(self, fp: str) -> Path:
        return self.root / "traces" / shard_of(fp) / f"{fp}.npz"

    def lint_path(self, fp: str) -> Path:
        return self.root / "lint" / shard_of(fp) / f"{fp}.json"

    def _legacy_path(self, sharded: Path) -> Path:
        """Where the same entry lived before the sharded layout."""
        return sharded.parent.parent / sharded.name

    def _migrate(self, legacy: Path, sharded: Path) -> bool:
        """Move a flat entry into its shard (best-effort, counted)."""
        try:
            sharded.parent.mkdir(parents=True, exist_ok=True)
            os.replace(legacy, sharded)
        except OSError:
            return False
        self._bump("migrated")
        return True

    def _iter_files(self, sub: str, pattern: str) -> Iterator[Path]:
        """Every entry file of one kind, flat legacy and sharded alike."""
        folder = self.root / sub
        try:
            flat = sorted(folder.glob(pattern))
            sharded = sorted(folder.glob(f"*/{pattern}"))
        except OSError:
            return
        for path in flat:
            if path.is_file():
                yield path
        for path in sharded:
            if path.is_file():
                yield path

    # -- results -------------------------------------------------------

    def _read_entry_text(self, fp: str) -> Optional[str]:
        """Raw bytes of a result entry, migrating flat legacy files.

        Returns None when the entry is absent under both layouts; any
        other OSError is re-raised for the caller to classify.
        """
        path = self.result_path(fp)
        try:
            return path.read_text()
        except FileNotFoundError:
            pass
        legacy = self._legacy_path(path)
        try:
            text = legacy.read_text()
        except FileNotFoundError:
            return None
        self._migrate(legacy, path)
        return text

    def load_result(self, fp: str
                    ) -> Optional[Tuple[FrontendStats, Dict[str, float]]]:
        """Return ``(stats, extra)`` for a fingerprint, or None on miss."""
        try:
            text = self._read_entry_text(fp)
        except OSError:
            self._bump("misses")
            return None
        if text is None:
            self._bump("misses")
            return None
        try:
            payload = json.loads(text)
            stats = FrontendStats(**payload["stats"])
            extra = dict(payload["extra"])
        except (ValueError, KeyError, TypeError):
            # Truncated/garbage entry (e.g. a torn concurrent write):
            # indistinguishable from a miss for the caller, but tracked.
            self._bump("corrupt")
            self._bump("misses")
            _notify("corrupt", entry="result", fingerprint=fp)
            return None
        self._bump("hits")
        return stats, extra

    def save_result(self, fp: str, stats: FrontendStats,
                    extra: Dict[str, float]) -> Path:
        path = self.result_path(fp)
        payload = {"version": STORE_VERSION, "stats": asdict(stats),
                   "extra": dict(extra)}
        _atomic_write(path, json.dumps(payload).encode())
        self._bump("writes")
        self._maybe_evict(protect=(path, self.manifest_path(fp)))
        return path

    # -- run manifests -------------------------------------------------

    def save_manifest(self, fp: str, manifest: Dict[str, Any]) -> Path:
        """Write the machine-readable run manifest next to a result."""
        path = self.manifest_path(fp)
        _atomic_write(path, json.dumps(manifest, sort_keys=True,
                                       indent=1).encode())
        return path

    def load_manifest(self, fp: str) -> Optional[Dict[str, Any]]:
        path = self.manifest_path(fp)
        for candidate in (path, self._legacy_path(path)):
            try:
                return json.loads(candidate.read_text())
            except (OSError, ValueError):
                continue
        return None

    def iter_manifests(self):
        """Yield every readable run manifest (unordered)."""
        for path in self._iter_files("results", "*.manifest.json"):
            try:
                yield json.loads(path.read_text())
            except (OSError, ValueError):
                continue

    # -- lint file summaries -------------------------------------------

    def load_lint(self, fp: str) -> Optional[Dict[str, Any]]:
        """Cached per-file lint payload (findings + facts + suppressions).

        Keys are content fingerprints salted with the rule-pack version
        (:func:`repro.lint.cache.file_key`), so the entry can only match
        when both the file bytes and the lint implementation are
        unchanged — same hit/miss/corrupt accounting as results.
        """
        try:
            text = self.lint_path(fp).read_text()
        except FileNotFoundError:
            self._bump("misses")
            return None
        except OSError:
            self._bump("misses")
            return None
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("lint entry is not an object")
        except ValueError:
            self._bump("corrupt")
            self._bump("misses")
            _notify("corrupt", entry="lint", fingerprint=fp)
            return None
        self._bump("hits")
        return payload

    def save_lint(self, fp: str, payload: Dict[str, Any]) -> Path:
        path = self.lint_path(fp)
        _atomic_write(path, json.dumps(
            payload, sort_keys=True, separators=(",", ":")).encode())
        self._bump("writes")
        self._maybe_evict(protect=(path,))
        return path

    # -- traces --------------------------------------------------------

    def load_trace(self, fp: str, n_records: int = 0):
        """The stored trace of a stream, or None on a miss.

        An entry holds the longest prefix of its stream that a process
        stored; one shorter than ``n_records`` is a miss, because the
        caller must walk further.
        """
        from ..workloads.serialize import load_trace
        path = self.trace_path(fp)
        legacy = self._legacy_path(path)
        # No exists() probe: open both candidates and classify the
        # failure, so a file vanishing between check and use (TOCTOU)
        # reads as the plain miss it is.
        for candidate in (path, legacy):
            try:
                trace = load_trace(candidate)
            except FileNotFoundError:
                continue
            except _TRACE_CORRUPTION:
                # The entry exists but failed to parse: corrupt, not a
                # plain miss — same accounting as load_result.
                self._bump("corrupt")
                self._bump("misses")
                _notify("corrupt", entry="trace", fingerprint=fp)
                return None
            if candidate is legacy:
                self._migrate(legacy, path)
            if len(trace) < n_records:
                break
            self._bump("hits")
            return trace
        self._bump("misses")
        return None

    def save_trace(self, fp: str, trace) -> Path:
        """Store ``trace`` as its stream's entry.  Writers replace the
        entry whole, so the last one wins; a racing writer's shorter
        prefix is still a correct one."""
        from ..workloads.serialize import save_trace
        path = self.trace_path(fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        # np.savez appends ".npz" to other suffixes, so keep it on the tmp.
        fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                   prefix=path.name, suffix=".tmp.npz")
        os.close(fd)
        try:
            save_trace(trace, tmp)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._bump("writes")
        self._maybe_evict(protect=(path,))
        return path

    # -- eviction ------------------------------------------------------

    def _entries(self) -> List[Tuple[float, int, Tuple[Path, ...]]]:
        """Evictable units: ``(atime, bytes, paths)`` per entry.

        A result and its manifest form one unit (evicting a result
        without its manifest would strand an unreadable orphan); traces
        stand alone.  Entries that vanish mid-scan are skipped.
        """
        units: List[Tuple[float, int, Tuple[Path, ...]]] = []
        for path in self._iter_files("results", "*.json"):
            if path.name.endswith(".manifest.json"):
                continue
            try:
                st = path.stat()
            except OSError:
                continue
            size = st.st_size
            group = [path]
            manifest = path.with_name(
                path.name[:-len(".json")] + ".manifest.json")
            try:
                size += manifest.stat().st_size
                group.append(manifest)
            except OSError:
                pass
            units.append((st.st_atime, size, tuple(group)))
        for sub, pattern in (("traces", "*.npz"), ("lint", "*.json")):
            for path in self._iter_files(sub, pattern):
                try:
                    st = path.stat()
                except OSError:
                    continue
                units.append((st.st_atime, st.st_size, (path,)))
        return units

    def evict(self, budget_bytes: Optional[int] = None,
              protect: Sequence[Path] = ()) -> int:
        """Remove least-recently-used entries until under the budget.

        Returns the number of entries (result+manifest units or traces)
        removed.  ``protect`` paths — typically the entry that was just
        written — are never evicted, so a budget smaller than one entry
        cannot evict the write it is trying to make room for.
        """
        budget = budget_bytes if budget_bytes is not None \
            else self.byte_budget()
        if budget is None:
            return 0
        units = self._entries()
        total = sum(size for _, size, _ in units)
        if total <= budget:
            return 0
        protected = {Path(p) for p in protect}
        removed = 0
        freed = 0
        for _, size, group in sorted(units, key=lambda u: u[0]):
            if total - freed <= budget:
                break
            if any(path in protected for path in group):
                continue
            gone = False
            for path in group:
                try:
                    path.unlink()
                    gone = True
                except OSError:
                    pass        # another process evicted it first
            if gone:
                freed += size
                removed += 1
        if removed:
            self._bump("evicted", removed)
            _notify("evict", entries=removed, freed_bytes=freed,
                    budget_bytes=budget)
        return removed

    def _maybe_evict(self, protect: Sequence[Path] = ()) -> None:
        if self.byte_budget() is not None:
            self.evict(protect=protect)

    # -- maintenance ---------------------------------------------------

    def clear(self) -> int:
        """Delete every stored entry; returns the number removed.

        Safe against concurrent modification: entries that vanish
        between listing and unlinking (or a directory removed wholesale
        by another process) are simply skipped.  Emptied shard
        directories are pruned best-effort.
        """
        removed = 0
        for sub in ("results", "traces", "lint"):
            folder = self.root / sub
            if not folder.is_dir():
                continue
            try:
                entries = list(folder.iterdir())
            except OSError:
                continue        # directory vanished mid-listing
            shards: List[Path] = []
            for entry in entries:
                if entry.is_dir():
                    shards.append(entry)
                    try:
                        files = list(entry.iterdir())
                    except OSError:
                        continue
                    for path in files:
                        try:
                            path.unlink()
                            removed += 1
                        except OSError:
                            pass        # entry vanished first
                else:
                    try:
                        entry.unlink()
                        removed += 1
                    except OSError:
                        pass            # entry vanished first: same outcome
            for shard in shards:
                try:
                    shard.rmdir()
                except OSError:
                    pass                # non-empty or already gone
        self._bump("invalidations", removed)
        return removed

    @staticmethod
    def reset_counters() -> None:
        """Zero the session counts."""
        from ..obs.metrics import REGISTRY
        REGISTRY.reset_values("repro_store_ops_total")

    @staticmethod
    def counters() -> Dict[str, int]:
        """Session counts of this process and the pool workers it has
        merged: hit/miss/corrupt/write/evict/..."""
        from ..obs.metrics import REGISTRY
        series = REGISTRY.values("repro_store_ops_total")
        return {op: int(series.get((("op", op),), 0)) for op in STORE_OPS}

    def overview(self) -> Dict[str, Any]:
        """On-disk inventory: entry counts and byte totals per kind.

        Each kind also reports per-shard occupancy (``shards``: shard
        directory -> ``{"count", "bytes"}``; flat legacy entries count
        under ``"-"``) — the surface ``repro stats``, ``/storez`` and
        ``repro top`` use to show how evenly the fingerprint space is
        spreading across shard directories.
        """
        info: Dict[str, Any] = {"root": str(self.root)}
        for kind, sub, pattern in (("results", "results", "*.json"),
                                   ("manifests", "results",
                                    "*.manifest.json"),
                                   ("traces", "traces", "*.npz"),
                                   ("lint", "lint", "*.json")):
            count = size = 0
            shards: Dict[str, Dict[str, int]] = {}
            for path in self._iter_files(sub, pattern):
                if kind == "results" and path.name.endswith(
                        ".manifest.json"):
                    continue
                try:
                    nbytes = path.stat().st_size
                except OSError:
                    continue
                size += nbytes
                count += 1
                shard = path.parent.name if path.parent.name != sub \
                    else "-"
                cell = shards.setdefault(shard,
                                         {"count": 0, "bytes": 0})
                cell["count"] += 1
                cell["bytes"] += nbytes
            info[kind] = {"count": count, "bytes": size,
                          "shards": dict(sorted(shards.items()))}
        info["budget_bytes"] = self.byte_budget()
        return info


# -- benchmark history ------------------------------------------------------
#
# ``repro bench`` appends one JSON line per measured matrix cell to an
# append-only history under the cache root.  Unlike results/traces the
# history is *not* keyed by the code salt — the whole point is comparing
# measurements across code revisions — so it lives in its own
# subdirectory and survives code edits.

def bench_dir() -> Path:
    """Directory the benchmark history lives in."""
    return cache_root() / "bench"


def bench_history_path() -> Path:
    """The append-only JSONL benchmark history file."""
    return bench_dir() / "history.jsonl"


def append_jsonl(path: Path, record: Dict[str, Any]) -> Path:
    """Append one JSON object as a line to ``path`` (created on demand).

    The encoded line goes out as a single ``os.write`` on an
    ``O_APPEND`` descriptor: the kernel serialises appends to a regular
    file per write call, so concurrent appenders may interleave *lines*
    but never bytes within a line.  (A buffered text-mode ``write`` has
    no such guarantee — lines longer than the stdio buffer are flushed
    in chunks and tear under concurrency.)  Readers skip any line that
    fails to parse.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    data = (json.dumps(record, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")
    fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666)
    try:
        view = memoryview(data)
        while view:             # a partial write of a regular file is
            view = view[os.write(fd, view):]    # possible only on e.g.
    finally:                                    # ENOSPC; never silent
        os.close(fd)
    return path


def iter_jsonl(path: Path):
    """Yield parsed records from a JSONL file, skipping corrupt lines."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError:
        return
    with fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except ValueError:
                continue        # torn concurrent append: skip the line
            if isinstance(record, dict):
                yield record


_STORE: Optional[ResultStore] = None


def get_store() -> Optional[ResultStore]:
    """Process-wide store singleton, or None when caching is disabled.

    The singleton's root is pinned at creation; when ``REPRO_CACHE_DIR``
    changes mid-process the store is re-pointed at the new directory,
    the session counters (registry counters) carry over, and a
    ``repoint`` telemetry event records the move.
    """
    global _STORE
    if not caching_enabled():
        return None
    root = cache_root()
    if _STORE is None:
        _STORE = ResultStore(root)
    elif _STORE.root != root:
        old = _STORE
        _STORE = ResultStore(root)
        _notify("repoint", old_root=str(old.root), new_root=str(root),
                carried=old.counters())
    return _STORE


def reset_store() -> None:
    """Drop the singleton and zero its session counts (tests re-point
    ``REPRO_CACHE_DIR``)."""
    global _STORE
    _STORE = None
    ResultStore.reset_counters()
