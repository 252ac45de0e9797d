"""Tests for CFG data model, generator, and layout (repro.cfg)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import (
    BasicBlock,
    CfgGenerator,
    CfgParams,
    ControlFlowGraph,
    Function,
    Terminator,
    generate_cfg,
    layout_program,
)
from repro.isa import (
    CACHE_BLOCK_SIZE,
    MAX_VARIABLE_SIZE,
    MIN_VARIABLE_SIZE,
    BranchKind,
)


def tiny_cfg():
    """Two functions: f0 calls f1; f1 returns."""
    f1_entry = BasicBlock(bid=10, func=1, n_instr=3,
                          terminator=Terminator(BranchKind.RETURN))
    b0 = BasicBlock(bid=0, func=0, n_instr=4,
                    terminator=Terminator(BranchKind.CALL, callee=1))
    b1 = BasicBlock(bid=1, func=0, n_instr=2,
                    terminator=Terminator(BranchKind.RETURN))
    return ControlFlowGraph([Function(0, [b0, b1]), Function(1, [f1_entry])])


class TestTerminator:
    def test_cond_needs_successor(self):
        with pytest.raises(ValueError):
            Terminator(BranchKind.COND)

    def test_call_needs_callee(self):
        with pytest.raises(ValueError):
            Terminator(BranchKind.CALL)

    def test_indirect_needs_callees(self):
        with pytest.raises(ValueError):
            Terminator(BranchKind.INDIRECT)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            Terminator(BranchKind.COND, taken_succ=1, taken_prob=1.5)


class TestControlFlowGraph:
    def test_valid_graph(self):
        cfg = tiny_cfg()
        assert cfg.n_blocks == 3
        assert cfg.function(1).entry.bid == 10

    def test_fallthrough(self):
        cfg = tiny_cfg()
        assert cfg.fallthrough_of(cfg.block(0)).bid == 1
        assert cfg.fallthrough_of(cfg.block(1)) is None

    def test_rejects_unknown_callee(self):
        b = BasicBlock(bid=0, func=0, n_instr=1,
                       terminator=Terminator(BranchKind.CALL, callee=99))
        r = BasicBlock(bid=1, func=0, n_instr=1,
                       terminator=Terminator(BranchKind.RETURN))
        with pytest.raises(ValueError):
            ControlFlowGraph([Function(0, [b, r])])

    def test_rejects_duplicate_bids(self):
        a = BasicBlock(bid=0, func=0, n_instr=1,
                       terminator=Terminator(BranchKind.RETURN))
        b = BasicBlock(bid=0, func=1, n_instr=1,
                       terminator=Terminator(BranchKind.RETURN))
        with pytest.raises(ValueError):
            ControlFlowGraph([Function(0, [a]), Function(1, [b])])

    def test_rejects_fall_off_function_end(self):
        b = BasicBlock(bid=0, func=0, n_instr=1)
        with pytest.raises(ValueError):
            ControlFlowGraph([Function(0, [b])])

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            ControlFlowGraph([])


class TestGenerator:
    def test_deterministic(self):
        params = CfgParams(n_functions=40)
        a = generate_cfg(params, seed=7)
        b = generate_cfg(params, seed=7)
        assert a.n_blocks == b.n_blocks
        assert [blk.n_instr for blk in a.iter_blocks()] == \
            [blk.n_instr for blk in b.iter_blocks()]

    def test_seed_changes_program(self):
        params = CfgParams(n_functions=40)
        a = generate_cfg(params, seed=1)
        b = generate_cfg(params, seed=2)
        assert [blk.n_instr for blk in a.iter_blocks()] != \
            [blk.n_instr for blk in b.iter_blocks()]

    def test_functions_end_properly(self):
        cfg = generate_cfg(CfgParams(n_functions=60), seed=3)
        for func in cfg.functions:
            assert func.blocks[-1].terminator.kind in (
                BranchKind.RETURN, BranchKind.JUMP)

    def test_call_graph_is_forward(self):
        """Callees always have a larger fid: walks terminate."""
        cfg = generate_cfg(CfgParams(n_functions=80), seed=4)
        for blk in cfg.iter_blocks():
            t = blk.terminator
            if t is not None and t.callee is not None:
                assert t.callee > blk.func
            if t is not None:
                for callee, _ in t.indirect_callees:
                    assert callee > blk.func

    def test_cold_blocks_exist(self):
        cfg = generate_cfg(CfgParams(n_functions=100), seed=5)
        assert any(b.is_cold for b in cfg.iter_blocks())

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            CfgParams(p_diamond=0.5, p_loop=0.3, p_call=0.2,
                      p_error_check=0.2)

    def test_too_few_functions(self):
        with pytest.raises(ValueError):
            CfgParams(n_functions=1)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_generation_never_crashes(self, seed):
        cfg = generate_cfg(CfgParams(n_functions=30), seed=seed)
        assert cfg.n_blocks > 30


class TestLayout:
    def test_layout_assigns_monotonic_addresses(self):
        cfg = generate_cfg(CfgParams(n_functions=30), seed=0)
        layout_program(cfg)
        prev_end = 0
        for func in cfg.functions:
            for blk in func.blocks:
                assert blk.addr >= prev_end
                prev_end = blk.end

    def test_terminators_encoded_with_targets(self):
        cfg = generate_cfg(CfgParams(n_functions=30), seed=0)
        layout_program(cfg)
        for blk in cfg.iter_blocks():
            t = blk.terminator
            if t is None:
                continue
            br = blk.branch
            assert br is not None and br.kind is t.kind
            if t.kind in (BranchKind.COND, BranchKind.JUMP):
                assert br.target == cfg.block(t.taken_succ).addr
            if t.kind is BranchKind.CALL:
                assert br.target == cfg.function(t.callee).entry.addr

    def test_bytes_decode_back(self):
        """The text segment's bytes reproduce the laid-out instructions."""
        cfg = generate_cfg(CfgParams(n_functions=20), seed=1)
        program = layout_program(cfg)
        for blk in cfg.iter_blocks():
            for instr in blk.instructions:
                assert program.segment.decode_at(instr.pc) == instr

    def test_variable_length_layout(self):
        cfg = generate_cfg(CfgParams(n_functions=20), seed=2)
        program = layout_program(cfg, variable_length=True)
        assert program.variable_length
        sizes = set()
        for blk in cfg.iter_blocks():
            sizes.update(instr.size for instr in blk.instructions)
            for instr in blk.instructions:
                assert program.segment.decode_at(instr.pc) == instr
        # VL programs actually vary instruction sizes, within the ISA's
        # bounds.
        assert len(sizes) > 1
        assert min(sizes) >= MIN_VARIABLE_SIZE
        assert max(sizes) <= MAX_VARIABLE_SIZE

    def test_spans_cover_all_instructions(self):
        cfg = generate_cfg(CfgParams(n_functions=20), seed=3)
        program = layout_program(cfg)
        for blk in cfg.iter_blocks():
            spans = program.spans_of(blk.bid)
            assert sum(s.n_instr for s in spans) == blk.n_instr
            # Span lines are consecutive cache lines.
            lines = [s.line_base for s in spans]
            assert lines == sorted(lines)
            for a, b in zip(lines, lines[1:]):
                assert b == a + CACHE_BLOCK_SIZE

    def test_branch_byte_offsets(self):
        cfg = generate_cfg(CfgParams(n_functions=20), seed=4)
        program = layout_program(cfg)
        found = 0
        for blk in cfg.iter_blocks():
            br = blk.branch
            if br is None:
                continue
            line = br.pc - br.pc % CACHE_BLOCK_SIZE
            assert (br.pc - line) in program.branch_byte_offsets(line)
            found += 1
        assert found > 0

    def test_function_alignment(self):
        cfg = generate_cfg(CfgParams(n_functions=20), seed=5)
        layout_program(cfg)
        for func in cfg.functions:
            assert func.entry.addr % 16 == 0
