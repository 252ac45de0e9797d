"""Bit-identity fence for program construction.

A program build is the CFG generator, the code layout (addresses, byte
image, line spans, branch offsets) and the prewarmed pre-decode memos;
the trace walker then replays it.  Everything downstream (traces, engine
digests, the golden bands, Table II) is a function of these bytes, so a
build-speed change must leave every one of them unchanged.  The digests
pinned below were computed before the build was optimised; a mismatch
means a build changed what it builds.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg.generator import draw_from_cdf, zipf_cdf
from repro.isa import (
    CACHE_BLOCK_SIZE,
    EncodingError,
    Predecoder,
    TextSegment,
    block_base,
)
from repro.workloads.profiles import ALL_PROFILES, get_profile
from repro.workloads.tracegen import TraceGenerator

#: Program scale and trace length the digests are taken at.
SCALE = 0.05
TRACE_RECORDS = 2_000

#: (profile, variable_length) -> sha256 of :func:`program_digest`.
PINNED = {
    "media_streaming/fixed":
        "2269aba071fef4ef13108ab8dea7c1e23ea0a9e761f5dcff19392dc9ca818d7c",
    "media_streaming/vl":
        "1bdc585bfdc0f3e1610b27a6241c0bae9b087330add6c3215e3eb2b89624507e",
    "oltp_db_a/fixed":
        "081c5cf8eb0f785284056955cd8dab75b6d65a5f0ed816687d576053a0a44615",
    "oltp_db_a/vl":
        "2946a8133ce04cfc84668338a1ec5c0de38cc362d197845737d40671f53372d1",
    "oltp_db_b/fixed":
        "baac53f293cefbb5c61b00aea3a4a4fa9274153c10b87635b3db6ffd3b3b789c",
    "oltp_db_b/vl":
        "396885589b98a8e151164f7ef71f25412c721898d28437d6eeb19b7c49cab1b8",
    "web_apache/fixed":
        "93e59b5b21499ffeaf444fae4cde465f8b9651b03edd03c0d2e804f0ebf487f1",
    "web_apache/vl":
        "c6e0869b62a253375d6ae3eeb7bf20cc7e3877538dfe18ccd2a87b89b1ddb652",
    "web_zeus/fixed":
        "cf38419d4518d7fe5771be791cb4867afd6616b5d82b977a97b9407ce4f128a6",
    "web_zeus/vl":
        "28b7e1e947c7131ade169e4b138baf3131be6bc8ec09d5e9650e6c706287c346",
    "web_frontend/fixed":
        "70b75877ec2e3d08142dd93753105fb9771b051a9c017b1d86b6b9b414f7ced6",
    "web_frontend/vl":
        "9047fe818c54d8e39aa53f182ecbd947e3023ccda9f6b9958c55003346789756",
    "web_search/fixed":
        "5d1a537adee285ee9974bbdcb331e6ab76ca966b689a0d7a8d0586c1f3c6b07b",
    "web_search/vl":
        "1170ac98b86d6debe50cb2abca5a9cac1172679cb2807e611b28bf145ec8accc",
}


def _instr(instr):
    return (instr.pc, instr.size, int(instr.kind), instr.target)


def program_digest(profile, variable_length: bool) -> str:
    """sha256 over everything one build produces, plus a short walk."""
    gen = TraceGenerator(profile, scale=SCALE,
                         variable_length=variable_length)
    prog = gen.program
    h = hashlib.sha256()

    def put(*items):
        h.update(repr(items).encode())

    for func in gen.cfg.functions:
        put("f", func.fid, len(func.blocks))
        for blk in func.blocks:
            t = blk.terminator
            put("b", blk.bid, blk.func, blk.n_instr, blk.is_cold, blk.addr,
                blk.size, None if t is None else (
                    int(t.kind), t.taken_succ, t.callee, t.taken_prob,
                    tuple(t.indirect_callees)),
                [_instr(i) for i in blk.instructions])
            put("s", [(s.line_base, s.first_pc, s.n_instr, s.has_terminator)
                      for s in prog.spans_of(blk.bid)])
    seg = prog.segment
    put("seg", seg.base, seg.size, seg.variable_length)
    h.update(seg.read(seg.base, seg.size))
    lines = prog.lines()
    put("lines", lines, [prog.branch_byte_offsets(line) for line in lines])

    pd = prog.predecoder()
    caches = prog._predecode_caches
    if variable_length:
        for line in lines:
            pd.decode_block(line,
                            footprint_offsets=prog.branch_byte_offsets(line))
        put("vl", sorted((pc, None if i is None else _instr(i))
                         for pc, i in caches.vl.items()))
    else:
        pd.prewarm_fixed()
        put("fixed", sorted((base, [_instr(i) for i in branches])
                            for base, branches in caches.fixed.items()))
        put("info", sorted(
            (base, [_instr(i) for i in branches],
             sorted((off, _instr(i)) for off, i in offsets.items()))
            for base, (branches, offsets) in caches.fixed_info.items()))

    for rec in gen.generate(TRACE_RECORDS):
        put(rec.line, rec.first_pc, rec.n_instr, rec.seq, rec.branch_pc,
            int(rec.branch_kind), rec.branch_target, rec.branch_size,
            rec.taken, rec.ctx_switch)
    return h.hexdigest()


@pytest.mark.parametrize("variable_length", [False, True],
                         ids=["fixed", "vl"])
@pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
def test_program_build_is_pinned(profile, variable_length):
    key = f"{profile.name}/{'vl' if variable_length else 'fixed'}"
    assert program_digest(profile, variable_length) == PINNED[key]


@settings(max_examples=60, deadline=None)
@given(span=st.integers(min_value=1, max_value=5000),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       draws=st.integers(min_value=1, max_value=4))
def test_cdf_draw_matches_generator_choice(span, seed, draws):
    """The callee draw is ``Generator.choice(span, p=1/rank weights)``:
    same values, and the bit generator ends in the same state."""
    weights = 1.0 / np.arange(1, span + 1, dtype=float)
    weights /= weights.sum()
    ref = np.random.default_rng(seed)
    fast = np.random.default_rng(seed)
    cdf = zipf_cdf(span)
    for _ in range(draws):
        assert draw_from_cdf(fast, cdf) == int(ref.choice(span, p=weights))
    assert fast.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("variable_length", [False, True],
                         ids=["fixed", "vl"])
def test_layout_bytes_match_encoding_every_instruction(variable_length):
    """The fixed-length layout writes only terminators; the image must
    equal the one written by encoding every instruction."""
    gen = TraceGenerator(get_profile("web_apache"), scale=SCALE,
                         variable_length=variable_length)
    seg = gen.program.segment
    ref = TextSegment(seg.base, seg.size, variable_length=variable_length)
    for blk in gen.cfg.iter_blocks():
        for instr in blk.instructions:
            ref.write_instruction(instr)
    assert seg.read(seg.base, seg.size) == ref.read(ref.base, ref.size)


def _reference_branches(seg, base):
    """Decode every 4-byte slot of the block at ``base`` and keep the
    branches: the pre-decode loop the opcode scan replaced."""
    branches = []
    for pc in range(max(base, seg.base), min(base + CACHE_BLOCK_SIZE,
                                             seg.end), 4):
        try:
            instr = seg.decode_at(pc)
        except EncodingError:
            continue
        if instr.is_branch:
            branches.append(instr)
    return branches


#: Opcode bytes a slot may hold: mostly non-branches, every branch kind,
#: and invalid opcodes that fail to decode.
_OPCODES = st.sampled_from([0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 0x7F, 0xFF])


@settings(max_examples=60, deadline=None)
@given(slots=st.lists(st.tuples(_OPCODES, st.binary(min_size=3,
                                                    max_size=3)),
                      min_size=1, max_size=60),
       base=st.sampled_from([0x10000, 0x10004, 0x10002, 0x1003C]),
       cut=st.integers(min_value=0, max_value=3))
def test_opcode_scan_matches_decoding_every_slot(slots, base, cut):
    """Pre-decode scans opcode bytes and decodes only nonzero slots; its
    memos must equal decoding every slot, including invalid opcodes, a
    segment base off the slot grid and a truncated last slot."""
    image = b"".join(bytes([op]) + disp for op, disp in slots)
    image = image[:max(1, len(image) - cut)]
    seg = TextSegment(base, len(image))
    seg._bytes[:] = image
    pd = Predecoder(seg)
    pd.prewarm_fixed()
    caches = pd._caches
    lines = range(block_base(seg.base), seg.end, CACHE_BLOCK_SIZE)
    assert sorted(caches.fixed) == list(lines)
    for line in lines:
        ref = _reference_branches(seg, line)
        assert caches.fixed[line] == ref
        assert caches.fixed_info[line] == (
            tuple(ref), {(i.pc - line) // 4: i for i in ref})
        fresh = Predecoder(seg)
        assert fresh.decode_block(line).branches == ref
