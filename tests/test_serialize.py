"""Tests for trace serialization (save/load round-trips)."""

import os
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.isa import BranchKind
from repro.workloads import (
    NO_ADDR,
    FetchRecord,
    Trace,
    get_generator,
    load_trace,
    save_trace,
)


@pytest.fixture()
def trace():
    return get_generator("web_frontend", scale=0.15).generate(3000)


def records_equal(a, b):
    fields = ("line", "first_pc", "n_instr", "seq", "branch_pc",
              "branch_kind", "branch_target", "branch_size", "taken",
              "ctx_switch")
    return all(getattr(a, f) == getattr(b, f) for f in fields)


class TestRoundTrip:
    def test_full_roundtrip(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert records_equal(a, b)

    def test_aggregates_preserved(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.n_instructions == trace.n_instructions
        assert loaded.n_branches == trace.n_branches
        assert loaded.unique_lines() == trace.unique_lines()

    def test_loaded_trace_simulates_identically(self, trace, tmp_path):
        from repro.frontend import FrontendSimulator
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        a = FrontendSimulator(trace).run()
        b = FrontendSimulator(loaded).run()
        assert a.total_cycles == b.total_cycles
        assert a.demand_misses == b.demand_misses

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_trace(Trace([], name="empty"), path)
        loaded = load_trace(path)
        assert len(loaded) == 0 and loaded.name == "empty"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts this process's open descriptors")
    def test_truncated_archive_closes_its_file(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        open_fds = len(os.listdir("/proc/self/fd"))
        try:
            load_trace(path)
        except zipfile.BadZipFile as exc:
            # Its traceback keeps the loader's frames alive, so a handle
            # they dropped without closing would still be open here.
            held = exc
        else:
            pytest.fail("a truncated archive loaded")
        assert len(os.listdir("/proc/self/fd")) == open_fds, held

    def test_version_check(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["version"] = np.int64(99)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError):
            load_trace(path)

    def test_every_kind_and_flag_combination(self, tmp_path):
        records = [
            FetchRecord(line=64 * i, first_pc=64 * i + 4, n_instr=1 + i % 16,
                        seq=bool(flags & 1), branch_pc=64 * i + 60,
                        branch_kind=kind, branch_target=NO_ADDR - i,
                        branch_size=i % 16, taken=bool(flags & 2),
                        ctx_switch=bool(flags & 4))
            for i, (kind, flags) in enumerate(
                (kind, flags) for kind in BranchKind for flags in range(8))
        ]
        path = tmp_path / "kinds.npz"
        save_trace(Trace(records, name="kinds"), path)
        loaded = load_trace(path)
        assert len(loaded) == len(records) == 8 * len(BranchKind)
        for a, b in zip(records, loaded):
            assert records_equal(a, b)
            assert type(b.branch_kind) is BranchKind
            assert all(type(getattr(b, f)) is bool
                       for f in ("seq", "taken", "ctx_switch"))
            assert all(type(getattr(b, f)) is int
                       for f in ("line", "first_pc", "n_instr", "branch_pc",
                                 "branch_target", "branch_size"))

    def test_compression_is_compact(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        # Well under the naive 8 fields x 8 bytes x records.
        assert path.stat().st_size < len(trace) * 30


_addresses = st.integers(min_value=0, max_value=2 ** 62)
_records = st.builds(
    FetchRecord,
    line=_addresses.map(lambda a: a & ~63),
    first_pc=_addresses,
    n_instr=st.integers(min_value=1, max_value=64),
    seq=st.booleans(),
    branch_pc=st.one_of(st.just(NO_ADDR), _addresses),
    branch_kind=st.sampled_from(list(BranchKind)),
    branch_target=st.one_of(st.just(NO_ADDR), _addresses),
    branch_size=st.integers(min_value=0, max_value=15),
    taken=st.booleans(),
    ctx_switch=st.booleans(),
)


class TestRoundTripProperty:
    """The format must be lossless for *any* record, not just ones the
    generator happens to emit (the persistent trace store depends on
    cached and regenerated traces being interchangeable)."""

    # The tmp_path dir is shared across examples; each one overwrites
    # the same file, which is exactly what the round-trip needs.
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=st.lists(_records, max_size=40),
           name=st.text(max_size=20))
    def test_arbitrary_trace_roundtrips(self, records, name, tmp_path):
        path = tmp_path / "prop.npz"
        save_trace(Trace(records, name=name), path)
        loaded = load_trace(path)
        assert loaded.name == name
        assert len(loaded) == len(records)
        for a, b in zip(records, loaded):
            assert records_equal(a, b)
