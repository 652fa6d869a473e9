"""repro.wire — the typed message codec and canonical message layer.

One package owns everything about what goes over an edge: the bit-level
primitives (:mod:`~repro.wire.bits`), the per-network size constants
(:mod:`~repro.wire.format`), the arithmetic payload codecs
(:mod:`~repro.wire.values`), the tag registry / frame codec
(:mod:`~repro.wire.codec`) and the message classes themselves
(:mod:`~repro.wire.messages`).

See ``docs/wire-format.md`` for the bit layout of every frame.
"""

from repro.wire.bits import BitReader, BitWriter, uint_bits
from repro.wire.codec import (
    DISTANCE,
    FLAG,
    ID,
    PSI,
    ROUND,
    SIGMA,
    UINT,
    CHECKSUM_BITS,
    Field,
    decode_frame,
    decode_frame_checked,
    decode_message,
    encode_frame,
    encode_frame_checked,
    encode_message,
    frame_checksum,
    layout_bits,
    register,
    registered_types,
    same_fields,
)
from repro.wire.format import TYPE_TAG_BITS, WireFormat, int_bits
from repro.wire.messages import (
    PROTOCOL_MESSAGES,
    AggStart,
    AggValue,
    Announce,
    BfsWave,
    DfsToken,
    DoneReport,
    IntMessage,
    Message,
    PayloadMessage,
    SubtreeCount,
    TokenMessage,
    TreeJoin,
    TreeWave,
)
from repro.wire.values import (
    WireValue,
    read_fraction,
    read_int,
    value_bits,
    write_value,
)

__all__ = [
    # bits
    "BitReader",
    "BitWriter",
    "uint_bits",
    # format
    "TYPE_TAG_BITS",
    "WireFormat",
    "int_bits",
    # values
    "WireValue",
    "read_fraction",
    "read_int",
    "value_bits",
    "write_value",
    # codec
    "ID",
    "ROUND",
    "DISTANCE",
    "FLAG",
    "UINT",
    "SIGMA",
    "PSI",
    "Field",
    "register",
    "registered_types",
    "layout_bits",
    "encode_message",
    "decode_message",
    "encode_frame",
    "decode_frame",
    "CHECKSUM_BITS",
    "frame_checksum",
    "encode_frame_checked",
    "decode_frame_checked",
    "same_fields",
    # messages
    "Message",
    "TokenMessage",
    "IntMessage",
    "PayloadMessage",
    "TreeWave",
    "TreeJoin",
    "SubtreeCount",
    "Announce",
    "DfsToken",
    "BfsWave",
    "DoneReport",
    "AggStart",
    "AggValue",
    "PROTOCOL_MESSAGES",
]
