"""Synthetic ISA substrate: instruction model, codecs, and the pre-decoder."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .encoding import (
        EncodingError,
        TextSegment,
        VL_BRANCH_MIN_SIZE,
        decode_fixed,
        decode_variable,
        displacement_fits_fixed,
        encode_fixed,
        encode_variable,
        split_sizes_variable,
    )
    from .instructions import (
        CACHE_BLOCK_SIZE,
        FIXED_INSTRUCTION_SIZE,
        MAX_VARIABLE_SIZE,
        MIN_VARIABLE_SIZE,
        BranchKind,
        Instruction,
        block_base,
        block_of,
        block_offset,
    )
    from .disasm import (
        disassemble_block,
        disassemble_range,
        format_instruction,
    )
    from .predecoder import (
        PredecodeCaches,
        Predecoder,
        PredecodeResult,
        target_of,
    )

__all__ = [
    "BranchKind",
    "Instruction",
    "TextSegment",
    "PredecodeCaches",
    "Predecoder",
    "PredecodeResult",
    "EncodingError",
    "CACHE_BLOCK_SIZE",
    "FIXED_INSTRUCTION_SIZE",
    "MIN_VARIABLE_SIZE",
    "MAX_VARIABLE_SIZE",
    "VL_BRANCH_MIN_SIZE",
    "encode_fixed",
    "decode_fixed",
    "encode_variable",
    "decode_variable",
    "displacement_fits_fixed",
    "split_sizes_variable",
    "block_of",
    "block_base",
    "block_offset",
    "target_of",
    "format_instruction",
    "disassemble_range",
    "disassemble_block",
]

__getattr__ = lazy_exports(__name__, {
    ".encoding": ("EncodingError", "TextSegment", "VL_BRANCH_MIN_SIZE",
                  "decode_fixed", "decode_variable", "displacement_fits_fixed",
                  "encode_fixed", "encode_variable", "split_sizes_variable"),
    ".instructions": ("CACHE_BLOCK_SIZE", "FIXED_INSTRUCTION_SIZE",
                      "MAX_VARIABLE_SIZE", "MIN_VARIABLE_SIZE", "BranchKind",
                      "Instruction", "block_base", "block_of",
                      "block_offset"),
    ".disasm": ("disassemble_block", "disassemble_range",
                "format_instruction"),
    ".predecoder": ("PredecodeCaches", "Predecoder", "PredecodeResult",
                    "target_of"),
})
