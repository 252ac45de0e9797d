"""The layout over generated programs, and what it must not build.

A fixed-length build holds one :class:`~repro.isa.Instruction` per
terminated block and derives its line spans and branch offsets from
``(addr, size, branch)``; a block's instruction list is derived only
when read.  These tests check that derivation against a per-instruction
one over generated programs on both ISAs, check the utility-callee draw
against ``Generator.choice``, and guard that nothing on the build,
walk, pre-decode or simulation path reads a block's instruction list.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import CfgParams, generate_cfg, layout_program
from repro.cfg.generator import draw_uniform
from repro.cfg.layout import LineSpan
from repro.cfg.stats import analyze_program
from repro.experiments.runner import build_scheme
from repro.frontend import FrontendConfig, FrontendSimulator
from repro.isa import CACHE_BLOCK_SIZE, FIXED_INSTRUCTION_SIZE, BranchKind
from repro.workloads.profiles import get_profile
from repro.workloads.tracegen import TraceGenerator


def _expected_target(cfg, term):
    if term.kind in (BranchKind.COND, BranchKind.JUMP):
        return cfg.block(term.taken_succ).addr
    if term.kind is BranchKind.CALL:
        return cfg.function(term.callee).entry.addr
    return None


def _eager(cfg, program, blk):
    """The block's instructions as ``(pc, size, kind, target)``, built
    one by one: fixed-length slots as the layout used to build them,
    variable-length ones decoded from the image (each has its own
    drawn size)."""
    if program.variable_length:
        return [(i.pc, i.size, int(i.kind), i.target)
                for i in program.segment.decode_range(blk.addr, blk.end)]
    size = FIXED_INSTRUCTION_SIZE
    out = [(blk.addr + size * i, size, 0, None)
           for i in range(blk.n_instr)]
    term = blk.terminator
    if term is not None:
        out[-1] = (out[-1][0], size, int(term.kind),
                   _expected_target(cfg, term))
    return out


def _reference_index(cfg, program):
    """Spans and branch offsets derived one instruction at a time, over
    :func:`_eager`'s lists: the line-index loop the layout ran before
    fixed-length blocks were derived from their bounds."""
    spans, offsets = {}, {}
    for blk in cfg.iter_blocks():
        out, cur_line, first_pc, count = [], -1, 0, 0
        for pc, _size, kind, _target in _eager(cfg, program, blk):
            line = pc - pc % CACHE_BLOCK_SIZE
            if line != cur_line:
                if count:
                    out.append(LineSpan(cur_line, first_pc, count, False))
                cur_line, first_pc, count = line, pc, 0
            count += 1
            if kind:
                offsets.setdefault(line, []).append(pc - line)
        out.append(LineSpan(cur_line, first_pc, count,
                            blk.terminator is not None))
        spans[blk.bid] = tuple(out)
    return spans, {line: tuple(sorted(o)) for line, o in offsets.items()}


@st.composite
def cfg_params(draw):
    lo = draw(st.integers(min_value=1, max_value=8))
    hi = draw(st.integers(min_value=lo, max_value=30))
    mix = st.floats(min_value=0.0, max_value=0.25)
    return CfgParams(
        n_functions=draw(st.integers(min_value=2, max_value=40)),
        avg_segments=draw(st.floats(min_value=1.0, max_value=8.0)),
        min_block_instr=lo, max_block_instr=hi,
        avg_block_instr=draw(st.floats(min_value=lo, max_value=hi)),
        p_diamond=draw(mix), p_loop=draw(mix), p_call=draw(mix),
        p_error_check=draw(mix))


@settings(max_examples=80, deadline=None)
@given(params=cfg_params(), seed=st.integers(min_value=0,
                                             max_value=2**16),
       variable_length=st.booleans())
def test_layout_matches_per_instruction_derivation(params, seed,
                                                   variable_length):
    cfg = generate_cfg(params, seed=seed)
    program = layout_program(cfg, variable_length=variable_length,
                             seed=seed)
    spans, offsets = _reference_index(cfg, program)
    for blk in cfg.iter_blocks():
        assert program.spans_of(blk.bid) == spans[blk.bid]
    lines = program.lines()
    assert lines == sorted({s.line_base for v in spans.values()
                            for s in v})
    for line in lines:
        assert program.branch_byte_offsets(line) == offsets.get(line, ())
    for blk in cfg.iter_blocks():
        instrs = blk.instructions
        assert [(i.pc, i.size, int(i.kind), i.target)
                for i in instrs] == _eager(cfg, program, blk)
        if blk.terminator is not None:
            assert blk.branch is instrs[-1]
        else:
            assert blk.branch is None


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=200),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       draws=st.integers(min_value=1, max_value=50))
def test_uniform_draw_matches_generator_choice(n, seed, draws):
    """The utility-callee draw is ``Generator.choice(fids)``: same
    values, and the bit generator ends in the same state."""
    fids = list(range(1000 - n, 1000))
    ref = np.random.default_rng(seed)
    fast = np.random.default_rng(seed)
    for _ in range(draws):
        assert draw_uniform(fast, fids) == int(ref.choice(fids))
    assert fast.bit_generator.state == ref.bit_generator.state


def test_hot_paths_never_materialise_instruction_lists():
    """Walking, pre-decoding, simulating and analysing a fixed-length
    program read only the held terminators; a read of a block's
    instruction list on one of these paths would bring one object per
    instruction back."""
    gen = TraceGenerator(get_profile("web_apache"), scale=0.1)
    trace = gen.generate(4000)
    gen.program.predecoder().prewarm_fixed()
    prefetcher, overrides = build_scheme("sn4l_dis_btb")
    FrontendSimulator(trace, config=FrontendConfig(**overrides),
                      prefetcher=prefetcher,
                      program=gen.program).run(warmup=1000)
    analyze_program(gen.program)
    assert all(blk._instructions is None for blk in gen.cfg.iter_blocks())


def test_analyze_program_is_pinned():
    """``analyze_program`` on a full-size profile, as computed before
    it counted branches from the held terminators."""
    stats = analyze_program(TraceGenerator(get_profile("web_frontend"))
                            .program)
    assert (stats.text_bytes, stats.n_functions, stats.n_blocks,
            stats.n_instructions, stats.n_branches) == \
        (328028, 900, 10071, 80620, 6285)
    assert stats.branch_mix == {"CALL": 1572, "COND": 2132,
                                "INDIRECT": 91, "JUMP": 1590,
                                "RETURN": 900}
    assert stats.cold_block_fraction == 0.07208817396484957
    digests = {name: hashlib.sha256(
        repr(getattr(stats, name)).encode()).hexdigest()[:16]
        for name in ("function_bytes", "block_instrs",
                     "branches_per_line")}
    assert digests == {"function_bytes": "ea44cb04392722af",
                       "block_instrs": "332d0848a20324da",
                       "branches_per_line": "51d0a564a322c1f9"}
