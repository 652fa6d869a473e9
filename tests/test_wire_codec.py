"""Round-trip and exactness tests for the :mod:`repro.wire` codec.

Three layers of guarantees:

1. **bit primitives** — varint widths match what the writer actually
   emits, readers invert writers, malformed input is rejected;
2. **message codec** — every registered type encodes to exactly
   ``bit_size`` bits and decodes back field-for-field, including the
   L-float corner values (zero, extreme exponents, ceiling-rounded
   mantissas) and huge exact sigmas (the Large Value Challenge);
3. **frames** — coalesced per-edge frames are the concatenation of
   their message frames (the identity the simulator's ``frame_audit``
   enforces), and a full protocol run under the audit is clean.
"""

import random
from fractions import Fraction

import pytest

from repro.arithmetic import ExactContext, LFloat, LFloatArithmetic, Rounding
from repro.congest.options import RunOptions
from repro.congest.primitives import Decide, Echo, Join, Wave
from repro.core import distributed_betweenness
from repro.exceptions import WireCodecError
from repro.graphs import figure1_graph
from repro.obs import Telemetry, WireExactnessMonitor
from repro.wire import (
    TYPE_TAG_BITS,
    AggStart,
    AggValue,
    Announce,
    BfsWave,
    BitReader,
    BitWriter,
    DfsToken,
    DoneReport,
    IntMessage,
    Message,
    PayloadMessage,
    SubtreeCount,
    TokenMessage,
    TreeJoin,
    TreeWave,
    WireFormat,
    decode_frame,
    encode_frame,
    layout_bits,
    register,
    registered_types,
    same_fields,
    uint_bits,
    value_bits,
)

WIRE = WireFormat(25)  # id_bits = distance_bits = 5, round_bits covers 6N+16
PRECISION = 8
EXACT = ExactContext()
LFLOAT = LFloatArithmetic(PRECISION)


# ----------------------------------------------------------------------
# bit primitives
# ----------------------------------------------------------------------
def test_uint_bits_matches_actual_write_length():
    values = [0, 1, 2, 3, 6, 7, 8, 127, 128, 255, 2**20, 2**63, 2**100 - 1]
    rng = random.Random(2016)
    values += [rng.randrange(0, 1 << rng.randrange(1, 200)) for _ in range(200)]
    for value in values:
        writer = BitWriter()
        writer.write_uint(value)
        word, length = writer.getvalue()
        assert length == uint_bits(value)
        assert BitReader(word, length).read_uint() == value


def test_uint_bits_is_monotone_nondecreasing():
    widths = [uint_bits(v) for v in range(0, 4097)]
    assert widths == sorted(widths)
    assert widths[0] == 1  # the zero count is a single bit


def test_uint_bits_rejects_negative():
    with pytest.raises(WireCodecError):
        uint_bits(-1)
    with pytest.raises(WireCodecError):
        BitWriter().write_uint(-1)


def test_writer_rejects_values_wider_than_the_field():
    writer = BitWriter()
    with pytest.raises(WireCodecError):
        writer.write(8, 3)
    with pytest.raises(WireCodecError):
        writer.write(-1, 3)


def test_reader_rejects_truncated_reads():
    reader = BitReader(0b101, 3)
    reader.read(2)
    with pytest.raises(WireCodecError, match="truncated"):
        reader.read(2)


def test_reader_rejects_word_wider_than_declared():
    with pytest.raises(WireCodecError):
        BitReader(0b1000, 3)


def test_fraction_with_zero_denominator_rejected():
    from repro.wire import read_fraction

    writer = BitWriter()
    writer.write_uint(5)
    writer.write_uint(0)
    with pytest.raises(WireCodecError, match="zero denominator"):
        read_fraction(BitReader(*writer.getvalue()))


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_fills_the_entire_tag_space():
    types = registered_types()
    assert sorted(types) == list(range(1 << TYPE_TAG_BITS))
    for tag, cls in types.items():
        assert cls.wire_tag == tag


def test_register_rejects_out_of_range_tags():
    with pytest.raises(WireCodecError, match="tag space"):
        register(1 << TYPE_TAG_BITS)(type("Stray", (Message,), {}))
    with pytest.raises(WireCodecError, match="tag space"):
        register(-1)(type("Stray", (Message,), {}))


def test_register_rejects_tag_collisions_but_is_idempotent():
    with pytest.raises(WireCodecError, match="already registered"):
        register(0)(type("Impostor", (Message,), {}))
    assert register(0)(TokenMessage) is TokenMessage  # same class: no-op


# ----------------------------------------------------------------------
# randomized round trips over every registered type
# ----------------------------------------------------------------------
def _sigma(rng, mode):
    value = rng.randrange(1, 1 << rng.randrange(1, 80))
    if mode == "exact":
        return value
    return LFloat.from_int(value, PRECISION, Rounding.CEIL)


def _psi(rng, mode):
    value = Fraction(rng.randrange(1, 1 << 30), rng.randrange(1, 1 << 30))
    if mode == "exact":
        return value
    return LFloat.from_fraction(value, PRECISION, Rounding.FLOOR)


def _random_messages(rng, mode):
    """One instance of every frameable message type, random fields."""

    def node():
        return rng.randrange(WIRE.num_nodes)

    def dist():
        return rng.randrange(1 << WIRE.distance_bits)

    def stamp():
        return rng.randrange(1 << WIRE.round_bits)

    def count():
        return rng.randrange(1 << rng.randrange(1, 40))

    return [
        TokenMessage(),
        IntMessage(count()),
        TreeWave(dist()),
        TreeJoin(),
        SubtreeCount(count()),
        Announce(count()),
        DfsToken(rng.random() < 0.5),
        BfsWave(node(), stamp(), dist(), _sigma(rng, mode)),
        DoneReport(dist()),
        AggStart(dist(), stamp(), stamp()),
        AggValue(node(), _psi(rng, mode)),
        Wave(node(), dist()),
        Join(node()),
        Echo(node(), count()),
        Decide(node(), count()),
    ]


@pytest.mark.parametrize("mode", ["exact", "lfloat"])
def test_every_message_type_round_trips(mode):
    arith = EXACT if mode == "exact" else LFLOAT
    rng = random.Random(7 if mode == "exact" else 11)
    for _trial in range(50):
        for message in _random_messages(rng, mode):
            word, length = encode_frame((message,), WIRE)
            assert length == message.bit_size(WIRE)
            decoded = decode_frame(word, length, WIRE, arith)
            assert len(decoded) == 1
            assert same_fields(message, decoded[0])


@pytest.mark.parametrize("mode", ["exact", "lfloat"])
def test_coalesced_frame_is_the_concatenation_of_its_messages(mode):
    arith = EXACT if mode == "exact" else LFLOAT
    rng = random.Random(13)
    for _trial in range(20):
        batch = _random_messages(rng, mode)
        rng.shuffle(batch)
        batch = batch[: rng.randrange(1, len(batch) + 1)]
        word, length = encode_frame(batch, WIRE)
        assert length == sum(m.bit_size(WIRE) for m in batch)
        decoded = decode_frame(word, length, WIRE, arith)
        assert len(decoded) == len(batch)
        for sent, received in zip(batch, decoded):
            assert same_fields(sent, received)


def test_explicit_payload_bits_agree_with_the_layout():
    # BfsWave and AggValue override payload_bits with a closed form;
    # the override must agree with the generic layout walk.
    rng = random.Random(17)
    for mode in ("exact", "lfloat"):
        for _trial in range(20):
            for message in _random_messages(rng, mode):
                if type(message).WIRE_LAYOUT is None:
                    continue
                assert message.payload_bits(WIRE) == layout_bits(message, WIRE)


def test_bit_size_is_tag_plus_payload_and_cached():
    message = IntMessage(7)
    first = message.bit_size(WIRE)
    assert first == TYPE_TAG_BITS + message.payload_bits(WIRE)
    assert message.bit_size(WIRE) == first  # memoized path


# ----------------------------------------------------------------------
# L-float corner values
# ----------------------------------------------------------------------
_LIMIT = (1 << PRECISION) - 1

LFLOAT_CORNERS = [
    LFloat.zero(PRECISION),
    # extreme exponents, both signs
    LFloat(1 << (PRECISION - 1), _LIMIT, PRECISION),
    LFloat(_LIMIT, -_LIMIT, PRECISION),
    # ceiling rounding forced a mantissa increment (257 -> 258 at L=8)
    LFloat.from_int(257, PRECISION, Rounding.CEIL),
    # ceiling rounding overflowed into the next binade (511 -> 512)
    LFloat.from_int(511, PRECISION, Rounding.CEIL),
    # floor keeps the truncated mantissa (psi semantics)
    LFloat.from_fraction(Fraction(1, 3), PRECISION, Rounding.FLOOR),
]


@pytest.mark.parametrize("value", LFLOAT_CORNERS, ids=lambda lf: repr(lf))
def test_lfloat_corner_values_round_trip_exactly(value):
    assert value.bit_size() == 2 * PRECISION + 1
    decoded = LFloat.decode(value.encode(), PRECISION)
    assert decoded.mantissa == value.mantissa
    assert decoded.exponent == value.exponent

    # ... and through a full message frame, with the protocol's directed
    # rounding reconstructed by the arithmetic context.
    wave = BfsWave(3, 10, 2, value)
    word, length = encode_frame((wave,), WIRE)
    assert length == wave.bit_size(WIRE)
    (decoded_wave,) = decode_frame(word, length, WIRE, LFLOAT)
    assert decoded_wave.sigma.to_fraction() == value.to_fraction()
    assert decoded_wave.sigma.rounding is Rounding.CEIL

    report = AggValue(4, value)
    word, length = encode_frame((report,), WIRE)
    (decoded_report,) = decode_frame(word, length, WIRE, LFLOAT)
    assert decoded_report.value.to_fraction() == value.to_fraction()
    assert decoded_report.value.rounding is Rounding.FLOOR


def test_ceiling_rounded_corner_actually_rounded_up():
    lf = LFloat.from_int(257, PRECISION, Rounding.CEIL)
    assert lf.to_fraction() == Fraction(258)  # not representable: 257 -> 258
    lf = LFloat.from_int(511, PRECISION, Rounding.CEIL)
    assert lf.to_fraction() == Fraction(512)  # overflow into the next binade


def test_large_value_challenge_sigmas_round_trip():
    # Theta(N)-bit exact sigmas must survive the wire at faithful cost.
    sigma = 2**200 + 12345
    wave = BfsWave(1, 5, 3, sigma)
    word, length = encode_frame((wave,), WIRE)
    assert length == wave.bit_size(WIRE)
    assert value_bits(sigma) >= 200  # faithful, within O(log) of minimal
    (decoded,) = decode_frame(word, length, WIRE, EXACT)
    assert decoded.sigma == sigma


# ----------------------------------------------------------------------
# error paths
# ----------------------------------------------------------------------
def test_opaque_payloads_encode_but_refuse_to_decode():
    message = PayloadMessage(payload={"anything": 1}, bits=12)
    word, length = encode_frame((message,), WIRE)
    assert length == message.bit_size(WIRE) == TYPE_TAG_BITS + 12
    with pytest.raises(WireCodecError, match="opaque"):
        decode_frame(word, length, WIRE, EXACT)


def test_unregistered_message_cannot_be_framed():
    class Untagged(Message):
        WIRE_LAYOUT = ()

    with pytest.raises(WireCodecError, match="no registered wire tag"):
        encode_frame((Untagged(),), WIRE)


def test_decoding_arithmetic_fields_needs_a_context():
    wave = BfsWave(0, 0, 0, 1)
    word, length = encode_frame((wave,), WIRE)
    with pytest.raises(WireCodecError, match="arithmetic context"):
        decode_frame(word, length, WIRE)


def test_truncated_frame_is_rejected():
    wave = BfsWave(3, 10, 2, 7)
    word, length = encode_frame((wave,), WIRE)
    with pytest.raises(WireCodecError, match="truncated"):
        decode_frame(word >> 3, length - 3, WIRE, EXACT)


def test_layout_bits_requires_a_layout():
    message = PayloadMessage(payload=None, bits=4)
    with pytest.raises(WireCodecError, match="WIRE_LAYOUT"):
        layout_bits(message, WIRE)


def test_same_fields_discriminates_types_and_values():
    assert same_fields(TreeWave(3), TreeWave(3))
    assert not same_fields(TreeWave(3), TreeWave(4))
    assert not same_fields(TreeWave(3), DoneReport(3))
    assert not same_fields(PayloadMessage(1, 4), PayloadMessage(1, 4))


# ----------------------------------------------------------------------
# end to end: the audit holds on real protocol traffic
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["exact", "lfloat"])
def test_frame_audit_passes_on_a_clean_run(mode):
    result = distributed_betweenness(
        figure1_graph(),
        arithmetic=mode,
        options=RunOptions(frame_audit=True),
    )
    assert result.rounds > 0  # ran to completion with every frame checked


def test_wire_exactness_monitor_clean_on_real_traffic():
    monitor = WireExactnessMonitor("raise")
    distributed_betweenness(
        figure1_graph(),
        arithmetic="lfloat",
        telemetry=Telemetry(monitors=[monitor]),
    )
    verdict = monitor.verdict()
    assert verdict.status == "OK"
    assert verdict.checked > 0
    assert verdict.detail["unencodable_sends"] == 0


def test_frame_audit_catches_a_dishonest_bit_size():
    # A message billing fewer bits than it encodes to must abort the run.
    from repro.congest import NodeAlgorithm, Simulator
    from repro.graphs import path_graph

    class Dishonest(IntMessage):
        def payload_bits(self, wire):
            return 1  # lie: the real frame carries a varint

    class Sender(NodeAlgorithm):
        def on_round(self, ctx, inbox):
            if ctx.node_id == 0 and ctx.round_number == 0:
                ctx.send(1, Dishonest(1000))
            self.done = True

    simulator = Simulator(
        path_graph(2),
        Sender,
        options=RunOptions(engine="sweep", frame_audit=True),
    )
    with pytest.raises(WireCodecError, match="charged"):
        simulator.run()
