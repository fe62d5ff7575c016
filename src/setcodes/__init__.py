"""Mixed-length binary set codes, their decoders, and a decoy channel."""
from __future__ import annotations

from .channel import (
    ChannelConfig,
    ComponentStats,
    ObfuscationKey,
    SimulationResult,
    build_frame,
    corrupt,
    format_simulation,
    receive,
    run_simulation,
)
from .core import (
    LengthClass,
    SetCode,
    correctable_errors,
    cyclic_code,
    cyclic_generator_matrix,
    cyclic_parity_matrix,
    cyclic_parity_poly,
    encode,
    generator_from_parity,
    is_standard_form,
    min_distance,
    pseudo_inner,
    repetition_check,
    repetition_class,
)
from .decoding import (
    ACCEPTED,
    CORRECTED,
    FAILED,
    DecodeOutcome,
    StandardArray,
    build_standard_array,
    clear_array_cache,
    coset_decode,
    nn_decode,
    pba_decode,
    pba_decode_with_retry,
    standard_array,
)
from .errors import (
    ArityMismatch,
    CapExceeded,
    DimensionMismatch,
    DivideByZero,
    DuplicateLength,
    EmptyBasis,
    KeyOutOfRange,
    LengthMismatch,
    MissingParityCheck,
    NoParityCheck,
    NoSuchLength,
    NotACodeword,
    NotADivisor,
    NotLinear,
    NotStandardForm,
    ParityViolation,
    PatternMismatch,
    SetCodeError,
    TieUnresolvable,
)
from .ncode import (
    ComplementKind,
    NWord,
    SetNCode,
    is_complementing_bicode,
    parse_nword,
)

__version__ = "0.1.0"
