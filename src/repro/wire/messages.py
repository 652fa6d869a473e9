"""The canonical message layer: every message the protocols send.

This module holds the simulator's generic messages and the
betweenness protocol's messages in one layer.

Each message type corresponds to one arrow in the protocol narrative:

========================  ====================================================
message                   role
========================  ====================================================
:class:`TreeWave`         BFS(u0) spanning-tree construction flood (phase 0)
:class:`TreeJoin`         child → parent tree membership notification
:class:`SubtreeCount`     convergecast of subtree sizes (root learns N)
:class:`Announce`         root broadcast of N down the tree
:class:`DfsToken`         the DFS token pipelining BFS starts (Algorithm 2)
:class:`BfsWave`          one BFS wavefront step carrying (s, T_s, d, sigma)
:class:`DoneReport`       convergecast: subtree finished counting; max ecc
:class:`AggStart`         root broadcast of (D, T_max, aggregation base)
:class:`AggValue`         one aggregation step carrying (s, 1/sigma + psi)
========================  ====================================================

plus the generic :class:`TokenMessage` / :class:`IntMessage` /
:class:`PayloadMessage` used by tests, benchmarks and the Section IX
communication gadgets.  (The standalone CONGEST primitives register
four more types — ``Wave``, ``Join``, ``Echo``, ``Decide`` — in
:mod:`repro.congest.primitives`.)

Every concrete type declares a ``WIRE_LAYOUT`` and a registry tag, so
its bit cost is the *exact* length of its encoded frame — no estimates.
Under L-float arithmetic every payload is O(log N) bits: identifiers
cost ``id_bits``, round stamps ``round_bits``, distances
``distance_bits`` and arithmetic values ``2L + 1`` bits — which is how
Lemmas 3 and 5 become machine-checkable.
"""

from __future__ import annotations

from typing import Any, ClassVar, Optional, Tuple

from repro.wire.codec import (
    DISTANCE,
    FLAG,
    ID,
    PSI,
    ROUND,
    SIGMA,
    UINT,
    Field,
    layout_bits,
    register,
)
from repro.wire.format import TYPE_TAG_BITS, WireFormat
from repro.wire.values import value_bits


class Message:
    """Base class for everything sent over an edge.

    Subclasses are small frozen records declaring a ``WIRE_LAYOUT``
    (the ordered field list the codec encodes) and registering a type
    tag via :func:`repro.wire.codec.register`.  ``payload_bits`` is
    derived from the layout by default; hot subclasses may override it
    with an equivalent closed form (the codec test suite asserts the
    override, the layout width and the encoded length all agree).

    Messages are treated as **immutable once enqueued**: the simulator
    delivers the same object to every receiver (a broadcast enqueues one
    instance per neighbor) and memoizes :meth:`bit_size` per instance,
    so mutating a message after sending it would desynchronize the bit
    accounting.
    """

    __slots__ = ("_bit_cache",)

    #: 4-bit registry tag; ``None`` until :func:`register` assigns one.
    wire_tag: ClassVar[Optional[int]] = None
    #: Ordered ``(attribute, field kind)`` encoding schema; ``None``
    #: means the payload is opaque (see :class:`PayloadMessage`) or the
    #: subclass overrides :meth:`payload_bits` itself.
    WIRE_LAYOUT: ClassVar[Optional[Tuple[Field, ...]]] = None

    def payload_bits(self, wire: WireFormat) -> int:
        """Bits of the payload under the given wire format."""
        return layout_bits(self, wire)

    def bit_size(self, wire: WireFormat) -> int:
        """Total wire size: type tag plus payload.

        The result is cached per (message, wire) pair — a broadcast of
        one instance over many edges encodes its payload exactly once.
        """
        try:
            cached = self._bit_cache
        except AttributeError:
            cached = None
        if cached is not None and cached[0] is wire:
            return cached[1]
        bits = TYPE_TAG_BITS + self.payload_bits(wire)
        self._bit_cache = (wire, bits)
        return bits


@register(0)
class TokenMessage(Message):
    """A pure signal with no payload (e.g. a round-trip handshake).

    The ``kind`` label is local debugging metadata, not payload: it is
    not encoded, so a decoded token always carries the default label.
    """

    __slots__ = ("kind",)

    WIRE_LAYOUT: ClassVar[Tuple[Field, ...]] = ()

    def __init__(self, kind: str = "token"):
        self.kind = kind

    def __repr__(self) -> str:
        return "TokenMessage({!r})".format(self.kind)


@register(1)
class IntMessage(Message):
    """A single non-negative integer (used by tests and simple protocols)."""

    __slots__ = ("value",)

    WIRE_LAYOUT: ClassVar[Tuple[Field, ...]] = (("value", UINT),)

    def __init__(self, value: int):
        self.value = int(value)

    def __repr__(self) -> str:
        return "IntMessage({})".format(self.value)


@register(2)
class PayloadMessage(Message):
    """An opaque payload with an explicitly declared bit cost.

    Useful for modelling protocols (e.g. the two-party communication
    arguments of Section IX) where only the *amount* of information
    matters to the analysis.  A frame encodes the declared width (as
    zeros — the content is opaque by definition); decoding is
    unsupported because the width is not self-delimiting.
    """

    __slots__ = ("payload", "bits")

    def __init__(self, payload: Any, bits: int):
        self.payload = payload
        self.bits = int(bits)

    def payload_bits(self, wire: WireFormat) -> int:
        return self.bits

    def _encode_payload(self, writer, wire: WireFormat) -> None:
        writer.write(0, self.bits)

    def __repr__(self) -> str:
        return "PayloadMessage(bits={})".format(self.bits)


# ----------------------------------------------------------------------
# the distributed betweenness protocol's nine message types
# ----------------------------------------------------------------------
@register(3)
class TreeWave(Message):
    """Spanning-tree flood for BFS(u0); carries the sender's tree depth."""

    __slots__ = ("dist",)

    WIRE_LAYOUT: ClassVar[Tuple[Field, ...]] = (("dist", DISTANCE),)

    def __init__(self, dist: int):
        self.dist = dist

    def __repr__(self) -> str:
        return "TreeWave(dist={})".format(self.dist)


@register(4)
class TreeJoin(Message):
    """Sent by a node to its chosen BFS(u0)-tree parent."""

    __slots__ = ()

    WIRE_LAYOUT: ClassVar[Tuple[Field, ...]] = ()

    def __repr__(self) -> str:
        return "TreeJoin()"


@register(5)
class SubtreeCount(Message):
    """Convergecast of subtree sizes so the root learns N."""

    __slots__ = ("count",)

    WIRE_LAYOUT: ClassVar[Tuple[Field, ...]] = (("count", UINT),)

    def __init__(self, count: int):
        self.count = count

    def __repr__(self) -> str:
        return "SubtreeCount({})".format(self.count)


@register(6)
class Announce(Message):
    """Root broadcast of the node count N down the tree."""

    __slots__ = ("num_nodes",)

    WIRE_LAYOUT: ClassVar[Tuple[Field, ...]] = (("num_nodes", UINT),)

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes

    def __repr__(self) -> str:
        return "Announce(N={})".format(self.num_nodes)


@register(7)
class DfsToken(Message):
    """The DFS token; ``returning`` marks a child → parent backtrack."""

    __slots__ = ("returning",)

    WIRE_LAYOUT: ClassVar[Tuple[Field, ...]] = (("returning", FLAG),)

    def __init__(self, returning: bool = False):
        self.returning = returning

    def __repr__(self) -> str:
        return "DfsToken(returning={})".format(self.returning)


@register(8)
class BfsWave(Message):
    """One hop of the BFS from ``source`` (lines 10–18 of Algorithm 2).

    Carries the source id, the global start round T_s, the sender's
    distance from the source, and the sender's shortest-path count in
    the pipeline's arithmetic (an exact integer or an L-bit float).
    """

    __slots__ = ("source", "start_time", "dist", "sigma")

    WIRE_LAYOUT: ClassVar[Tuple[Field, ...]] = (
        ("source", ID),
        ("start_time", ROUND),
        ("dist", DISTANCE),
        ("sigma", SIGMA),
    )

    def __init__(self, source: int, start_time: int, dist: int, sigma: Any):
        self.source = source
        self.start_time = start_time
        self.dist = dist
        self.sigma = sigma

    def payload_bits(self, wire: WireFormat) -> int:
        # Closed form of the layout walk: this is the hottest message
        # (O(N * E) deliveries per run).
        return (
            wire.id_bits
            + wire.round_bits
            + wire.distance_bits
            + value_bits(self.sigma)
        )

    def __repr__(self) -> str:
        return "BfsWave(s={}, Ts={}, d={}, sigma={!r})".format(
            self.source, self.start_time, self.dist, self.sigma
        )


@register(9)
class DoneReport(Message):
    """Convergecast: the sender's whole subtree finished counting.

    ``max_ecc`` aggregates the maximum eccentricity seen in the subtree,
    from which the root computes the diameter D.
    """

    __slots__ = ("max_ecc",)

    WIRE_LAYOUT: ClassVar[Tuple[Field, ...]] = (("max_ecc", DISTANCE),)

    def __init__(self, max_ecc: int):
        self.max_ecc = max_ecc

    def __repr__(self) -> str:
        return "DoneReport(max_ecc={})".format(self.max_ecc)


@register(10)
class AggStart(Message):
    """Root broadcast opening the aggregation phase (Algorithm 3 line 1).

    Carries the diameter D, the latest BFS start time T_max, and the
    global round ``base`` that anchors the sending schedule: node u
    sends its value for source s at round ``base + T_s + D − d(s, u)``.
    """

    __slots__ = ("diameter", "max_start_time", "base")

    WIRE_LAYOUT: ClassVar[Tuple[Field, ...]] = (
        ("diameter", DISTANCE),
        ("max_start_time", ROUND),
        ("base", ROUND),
    )

    def __init__(self, diameter: int, max_start_time: int, base: int):
        self.diameter = diameter
        self.max_start_time = max_start_time
        self.base = base

    def __repr__(self) -> str:
        return "AggStart(D={}, Tmax={}, base={})".format(
            self.diameter, self.max_start_time, self.base
        )


@register(11)
class AggValue(Message):
    """One aggregation send: ``value = 1/sigma_su + psi_s(u)`` (line 12).

    Sent by u to every predecessor in P_s(u) at its scheduled round.
    """

    __slots__ = ("source", "value")

    WIRE_LAYOUT: ClassVar[Tuple[Field, ...]] = (
        ("source", ID),
        ("value", PSI),
    )

    def __init__(self, source: int, value: Any):
        self.source = source
        self.value = value

    def payload_bits(self, wire: WireFormat) -> int:
        # Closed form of the layout walk (hot: O(N^2) deliveries).
        return wire.id_bits + value_bits(self.value)

    def __repr__(self) -> str:
        return "AggValue(s={}, value={!r})".format(self.source, self.value)


#: The betweenness protocol's message types in dispatch-bucket order —
#: the single routing table :mod:`repro.core.node` derives its inbox
#: dispatch from.
PROTOCOL_MESSAGES: Tuple[type, ...] = (
    TreeWave,
    TreeJoin,
    SubtreeCount,
    Announce,
    DfsToken,
    BfsWave,
    DoneReport,
    AggStart,
    AggValue,
)
