"""Trace serialization: save/load fetch traces as compact ``.npz`` files.

Generating a full-length trace costs a few seconds; storing it lets
experiment scripts and external tools (or other simulators) reuse the
exact same dynamic stream.  The format is a plain numpy archive with one
int64 column per FetchRecord field plus a metadata header.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from ..isa import BranchKind
from .trace import FetchRecord, Trace

FORMAT_VERSION = 1

#: ``BranchKind`` by its stored value.
_KINDS = {int(kind): kind for kind in BranchKind}


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` (``.npz``, compressed)."""
    import numpy as np
    records = trace.records
    line = np.array([r.line for r in records], dtype=np.int64)
    first_pc = np.array([r.first_pc for r in records], dtype=np.int64)
    n_instr = np.array([r.n_instr for r in records], dtype=np.int32)
    branch_pc = np.array([r.branch_pc for r in records], dtype=np.int64)
    branch_kind = np.array([int(r.branch_kind) for r in records],
                           dtype=np.int8)
    branch_target = np.array([r.branch_target for r in records],
                             dtype=np.int64)
    branch_size = np.array([r.branch_size for r in records], dtype=np.int16)
    # bit0 seq, bit1 taken, bit2 ctx
    flags = np.array([r.seq | (r.taken << 1) | (r.ctx_switch << 2)
                      for r in records], dtype=np.uint8)
    np.savez_compressed(
        Path(path),
        version=np.int64(FORMAT_VERSION),
        # UTF-8 bytes, not a numpy str_: numpy's fixed-width unicode
        # storage strips trailing NULs, which would corrupt exotic names.
        name=np.frombuffer(trace.name.encode("utf-8"), dtype=np.uint8),
        line=line, first_pc=first_pc, n_instr=n_instr,
        branch_pc=branch_pc, branch_kind=branch_kind,
        branch_target=branch_target, branch_size=branch_size,
        flags=flags)


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace previously written by :func:`save_trace`."""
    import numpy as np
    # Opened here: ``np.load`` leaks its own handle when a truncated
    # archive fails to parse.
    with open(Path(path), "rb") as fh, \
            np.load(fh, allow_pickle=False) as data:
        version = int(data["version"])
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {version} "
                f"(expected {FORMAT_VERSION})")
        raw_name = data["name"]
        if raw_name.dtype.kind == "u":      # current format: UTF-8 bytes
            name = raw_name.tobytes().decode("utf-8")
        else:                               # older archives: numpy str_
            name = str(raw_name)
        # Whole columns as Python ints, zipped: indexing a numpy array
        # per element made a load slower than walking the trace again.
        records = [
            FetchRecord(line, first_pc, n_instr, bool(flag & 1), branch_pc,
                        kind, branch_target, branch_size, bool(flag & 2),
                        bool(flag & 4))
            for line, first_pc, n_instr, branch_pc, kind, branch_target,
            branch_size, flag in zip(
                data["line"].tolist(), data["first_pc"].tolist(),
                data["n_instr"].tolist(), data["branch_pc"].tolist(),
                [_KINDS[k] for k in data["branch_kind"].tolist()],
                data["branch_target"].tolist(),
                data["branch_size"].tolist(), data["flags"].tolist())
        ]
    return Trace(records, name=name)
