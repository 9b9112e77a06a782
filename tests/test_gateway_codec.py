"""The binary wire codec, end to end: negotiation, frames, fast path.

Four layers of guarantees:

* **negotiation units** — ``codec:*`` feature bits parse, dedupe and
  fail structurally; grant rules reject skew before any frame is read;
* **session matrix** — client offer x server grant over real loopback
  sockets lands each session on the expected codec, counts it in the
  server stats, and every cell answers bit-identically (a mixed-codec
  mesh included);
* **frame fidelity** — only the four per-event messages get their own
  tag, everything else rides embedded JSON; the columnar stream fast
  path is equivalent to the document path byte-for-byte at both levels
  (object round trip and ``to_wire`` doc), and opts out to ``None`` for
  any shape it cannot carry exactly;
* **hostile bytes** — for a payload of every bin1 tag: truncation at
  every boundary, trailing bytes, single-byte mutations, junk and
  retired tags, bad row kinds and version skew always surface as
  structured :class:`~repro.api.errors.ApiError`, never a raw
  ``struct.error`` — the same taxonomy discipline as the JSON fuzz.

Plus the outbound-framing regression: an oversize *response* answers a
structured error and keeps the session alive (the bugfix mirror of the
inbound ``check_frame_length``).
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.api import ServiceSpec, make_backend
from repro.api.conformance import (
    build_conformance_stream,
    check_parity,
    run_backend,
)
from repro.api.errors import ApiError, UnsupportedVersion, ValidationFailed
from repro.api.messages import (
    Batch,
    BatchResult,
    ErrorInfo,
    Flush,
    Flushed,
    GetReport,
    RegisterWorker,
    StreamEnvelope,
    StreamItemResult,
    SubmitTask,
    TaskDecision,
    WorkerRegistered,
    to_wire,
)
from repro.gateway import GatewayConfig, RemoteBackend, serve_gateway
from repro.gateway.codec import (
    decode_bin1,
    decode_stream_batch,
    decode_stream_result,
    encode_bin1,
    encode_stream_batch,
    encode_stream_result,
)
from repro.gateway.protocol import (
    BIN1_CODEC,
    BIN1_MAGIC,
    BIN1_WIRE_VERSION,
    GENERIC_TAG,
    JSON_CODEC,
    REGISTER_WORKER_TAG,
    STREAM_BATCH_TAG,
    STREAM_RESULT_TAG,
    SUBMIT_TASK_TAG,
    TASK_DECISION_TAG,
    WORKER_REGISTERED_TAG,
    codec_feature,
    granted_codec,
    negotiate_codec,
    offered_codecs,
)
from repro.geometry import Box

#: The error codes a hostile peer may surface — nothing else escapes.
STABLE_CODES = {
    "invalid-request",
    "unsupported-version",
    "rate-limited",
    "rejected",
    "unavailable",
    "internal",
}


def _spec(shards=(2, 2)) -> ServiceSpec:
    return ServiceSpec(
        region=Box.square(100.0),
        shards=shards,
        grid_nx=6,
        epsilon=0.5,
        batch_size=8,
        seed=0,
    )


# --------------------------------------------------------------------- #
# negotiation units                                                      #
# --------------------------------------------------------------------- #


class TestCodecNegotiation:
    def test_offered_codecs_parse_in_order_and_dedupe(self):
        features = ["codec:bin1", "pipeline", "codec:zstd9", "codec:bin1"]
        assert offered_codecs(features) == ("bin1", "zstd9")

    def test_unknown_but_well_formed_names_pass_through(self):
        # forward compatibility: the server just won't pick them
        assert offered_codecs(["codec:bin2.ext-x"]) == ("bin2.ext-x",)

    @pytest.mark.parametrize(
        "feature",
        ["codec:", "codec:BIN1", "codec:b n", "codec:-bad", "codec:é"],
    )
    def test_malformed_offers_fail_structurally(self, feature):
        with pytest.raises(ValidationFailed):
            offered_codecs([feature])

    def test_first_offered_supported_codec_wins(self):
        assert negotiate_codec(("zstd9", "bin1"), ("bin1",)) == "bin1"

    def test_no_overlap_means_json(self):
        assert negotiate_codec(("zstd9",), ("bin1",)) == JSON_CODEC
        assert negotiate_codec((), ("bin1",)) == JSON_CODEC

    def test_no_grant_means_json(self):
        assert granted_codec(["pipeline"], (BIN1_CODEC,)) == JSON_CODEC

    def test_granting_an_unoffered_codec_is_version_skew(self):
        with pytest.raises(UnsupportedVersion):
            granted_codec([codec_feature(BIN1_CODEC)], ())

    def test_granting_two_codecs_is_invalid(self):
        with pytest.raises(ValidationFailed):
            granted_codec(
                [codec_feature("bin1"), codec_feature("zstd9")],
                ("bin1", "zstd9"),
            )


# --------------------------------------------------------------------- #
# session matrix over real sockets                                       #
# --------------------------------------------------------------------- #


class TestSessionCodecMatrix:
    def test_offer_grant_matrix_is_bit_identical(self):
        """json-only, bin-only and refused-grant sessions, plus a
        mixed-codec mesh, all answer the sharded reference exactly."""
        spec = _spec()
        stream = build_conformance_stream(
            spec.region, n_workers=30, n_tasks=20, seed=11
        )
        runs = [run_backend(make_backend("sharded", spec), stream, window=8)]

        cells = [
            (True, (BIN1_CODEC,), BIN1_CODEC),  # offered and granted
            (False, (BIN1_CODEC,), JSON_CODEC),  # never offered
            (True, (), JSON_CODEC),  # offered, server declines
        ]
        for binary, server_codecs, expected in cells:
            config = GatewayConfig(
                spec=spec, backend="sharded", codecs=server_codecs
            )
            with serve_gateway(config) as server:
                remote = RemoteBackend(
                    spec, address=server.address, binary=binary
                )
                runs.append(run_backend(remote, stream, window=8))
                assert remote.codec == expected
                assert server.stats["bin1_sessions"] == (
                    1 if expected == BIN1_CODEC else 0
                )

        mesh = make_backend(
            "mesh", spec, n_peers=2, worker_codecs=("bin1", "json")
        )
        runs.append(run_backend(mesh, stream, window=8))

        assert check_parity(runs) == []

    def test_byte_counters_shrink_under_bin1(self):
        """Same stream, both codecs: bin1 must move fewer bytes."""
        spec = _spec()
        stream = build_conformance_stream(
            spec.region, n_workers=30, n_tasks=20, seed=11
        )
        moved = {}
        for binary in (True, False):
            config = GatewayConfig(spec=spec, backend="sharded")
            with serve_gateway(config) as server:
                remote = RemoteBackend(
                    spec, address=server.address, binary=binary
                )
                run_backend(remote, stream, window=8)
                moved[binary] = remote.bytes_sent + remote.bytes_received
        assert moved[True] < moved[False]


# --------------------------------------------------------------------- #
# stream fast path: object <-> document equivalence                      #
# --------------------------------------------------------------------- #


def _stream_batch() -> Batch:
    return Batch(
        [
            StreamEnvelope(0, RegisterWorker(7, (1.5, -2.25), 0.5)),
            StreamEnvelope(1, SubmitTask(3, (0.0, 99.5), 1.0)),
            StreamEnvelope(2, RegisterWorker(8, (-4.0, 4.0), 1.5)),
        ]
    )


def _result_batch() -> BatchResult:
    return BatchResult(
        [
            StreamItemResult(0, WorkerRegistered(7)),
            StreamItemResult(1, TaskDecision(3, 7)),
            StreamItemResult(2, TaskDecision(4, None)),
        ]
    )


class TestStreamEquivalence:
    def test_batch_round_trips_identically(self):
        batch = _stream_batch()
        payload = encode_stream_batch(batch)
        assert payload is not None
        assert decode_stream_batch(payload) == batch

    def test_batch_decodes_to_the_same_wire_document(self):
        # a json-side decoder sees exactly what to_wire would have sent
        batch = _stream_batch()
        assert decode_bin1(encode_stream_batch(batch)) == to_wire(batch)

    def test_result_round_trips_identically(self):
        result = _result_batch()
        payload = encode_stream_result(result)
        assert payload is not None
        assert decode_stream_result(payload) == result

    def test_result_decodes_to_the_same_wire_document(self):
        result = _result_batch()
        assert decode_bin1(encode_stream_result(result)) == to_wire(result)

    @pytest.mark.parametrize(
        "batch",
        [
            RegisterWorker(1, (0.0, 0.0)),  # not a Batch at all
            Batch([StreamEnvelope(0, Flush())]),  # verb with no row kind
            Batch([RegisterWorker(1, (0.0, 0.0))]),  # bare, unenveloped
            Batch(  # id outside i64: struct cannot carry it exactly
                [StreamEnvelope(0, RegisterWorker(2**70, (0.0, 0.0)))]
            ),
        ],
    )
    def test_unsupported_batch_shapes_opt_out(self, batch):
        assert encode_stream_batch(batch) is None

    @pytest.mark.parametrize(
        "result",
        [
            WorkerRegistered(1),  # not a BatchResult
            BatchResult([StreamItemResult(0, Flushed())]),
            BatchResult([WorkerRegistered(1)]),  # bare, unenveloped
            BatchResult([StreamItemResult(0, TaskDecision(1, 2**70))]),
        ],
    )
    def test_unsupported_result_shapes_opt_out(self, result):
        assert encode_stream_result(result) is None


# --------------------------------------------------------------------- #
# per-event tags vs the JSON fallback                                    #
# --------------------------------------------------------------------- #

_PREFIX = struct.Struct(">BBB")
_DECISION = struct.Struct(">qBq")

#: Every bin1 tag this layout defines.
BIN1_TAGS = {
    GENERIC_TAG,
    REGISTER_WORKER_TAG,
    SUBMIT_TASK_TAG,
    STREAM_BATCH_TAG,
    WORKER_REGISTERED_TAG,
    TASK_DECISION_TAG,
    STREAM_RESULT_TAG,
}

#: Tag bytes an older layout used for flush, get_report, batch,
#: envelope, flushed, batch_result, envelope_result, error and packed
#: documents; this layout must refuse every one of them.
RETIRED_TAGS = (0x03, 0x04, 0x05, 0x06, 0x13, 0x15, 0x16, 0x17, 0x19)


def _prefix(tag: int, version: int = BIN1_WIRE_VERSION) -> bytes:
    return _PREFIX.pack(BIN1_MAGIC, version, tag)


@pytest.mark.parametrize(
    "message, tag",
    [
        (RegisterWorker(7, (1.5, -2.25), 0.5), REGISTER_WORKER_TAG),
        (SubmitTask(3, (0.0, 99.5), 1.0), SUBMIT_TASK_TAG),
        (WorkerRegistered(7), WORKER_REGISTERED_TAG),
        (TaskDecision(3, 7), TASK_DECISION_TAG),
        (TaskDecision(4, None), TASK_DECISION_TAG),
        (Flush(), GENERIC_TAG),
        (Flushed(), GENERIC_TAG),
        (GetReport(wall_seconds=1.5), GENERIC_TAG),
        (ErrorInfo("invalid-request", "bad", False, "x"), GENERIC_TAG),
        (Batch([StreamEnvelope(0, Flush())]), GENERIC_TAG),
        (StreamEnvelope(0, SubmitTask(3, (0.0, 1.0), 1.0)), GENERIC_TAG),
    ],
)
def test_only_per_event_messages_get_their_own_tag(message, tag):
    doc = to_wire(message)
    payload = encode_bin1(doc)
    assert payload[2] == tag
    assert decode_bin1(payload) == doc


def test_unassigned_decision_with_nonzero_worker_is_invalid():
    # flag 0 means "no worker": the worker field is padding and must be
    # zero, or two byte strings would decode to one document
    body = _DECISION.pack(4, 0, 0)
    assert decode_bin1(_prefix(TASK_DECISION_TAG) + body) == to_wire(
        TaskDecision(4, None)
    )
    with pytest.raises(ValidationFailed):
        decode_bin1(_prefix(TASK_DECISION_TAG) + _DECISION.pack(4, 0, 5))


# --------------------------------------------------------------------- #
# hostile bytes                                                          #
# --------------------------------------------------------------------- #


def _structured(decode, payload) -> None:
    """Decoding must answer or fail inside the taxonomy — never leak."""
    try:
        decode(payload)
    except ApiError as exc:
        assert exc.code in STABLE_CODES
    # anything else (struct.error, IndexError, hang) propagates and fails


def _tag_payloads() -> list[bytes]:
    """One well-formed payload per bin1 tag (both decision forms)."""
    payloads = [
        encode_stream_batch(_stream_batch()),
        encode_stream_result(_result_batch()),
    ] + [
        encode_bin1(to_wire(message))
        for message in (
            RegisterWorker(7, (1.5, -2.25), 0.5),
            SubmitTask(3, (0.0, 99.5), 1.0),
            WorkerRegistered(7),
            TaskDecision(3, 7),
            TaskDecision(4, None),
            GetReport(wall_seconds=1.5),
        )
    ]
    assert {p[2] for p in payloads} == BIN1_TAGS
    return payloads


class TestStreamFuzz:
    def test_truncation_at_every_boundary(self):
        for payload in _tag_payloads():
            for cut in range(len(payload)):
                with pytest.raises(ApiError) as info:
                    decode_bin1(payload[:cut])
                assert info.value.code in STABLE_CODES

    def test_trailing_bytes_are_rejected(self):
        payload = encode_stream_batch(_stream_batch())
        with pytest.raises(ValidationFailed):
            decode_stream_batch(payload + b"\x00")
        for payload in _tag_payloads():
            with pytest.raises(ValidationFailed):
                decode_bin1(payload + b"\x00")

    def test_single_byte_mutations_never_escape_the_taxonomy(self):
        rng = np.random.default_rng(5)
        for payload in _tag_payloads():
            base = bytearray(payload)
            for _ in range(400):
                mutated = bytearray(base)
                pos = int(rng.integers(len(mutated)))
                mutated[pos] = int(rng.integers(256))
                blob = bytes(mutated)
                _structured(decode_bin1, blob)
                _structured(decode_stream_batch, blob)
                _structured(decode_stream_result, blob)

    def test_foreign_layout_version_is_unsupported(self):
        payload = bytearray(encode_stream_batch(_stream_batch()))
        payload[1] = BIN1_WIRE_VERSION + 1
        with pytest.raises(UnsupportedVersion):
            decode_stream_batch(bytes(payload))
        # the previous layout is as foreign as the next one
        for version in (BIN1_WIRE_VERSION - 1, BIN1_WIRE_VERSION + 1):
            for payload in _tag_payloads():
                skewed = bytearray(payload)
                skewed[1] = version
                with pytest.raises(UnsupportedVersion):
                    decode_bin1(bytes(skewed))

    def test_unknown_tag_is_invalid_everywhere(self):
        payload = bytearray(encode_stream_batch(_stream_batch()))
        payload[2] = 0x7F
        with pytest.raises(ValidationFailed):
            decode_bin1(bytes(payload))
        with pytest.raises(ValidationFailed):
            decode_stream_batch(bytes(payload))

    @pytest.mark.parametrize("tag", RETIRED_TAGS)
    def test_retired_tags_are_invalid_requests(self, tag):
        for body in (b"", b"\x00" * 8, encode_bin1(to_wire(Flush()))[3:]):
            with pytest.raises(ValidationFailed) as info:
                decode_bin1(_prefix(tag) + body)
            assert info.value.code == "invalid-request"

    def test_bad_stream_row_kind_is_invalid(self):
        row = struct.Struct(">Bqqddd").pack(2, 0, 1, 0.0, 0.0, 0.0)
        payload = (
            struct.Struct(">BBB").pack(
                BIN1_MAGIC, BIN1_WIRE_VERSION, STREAM_BATCH_TAG
            )
            + struct.Struct(">I").pack(1)
            + row
        )
        with pytest.raises(ValidationFailed):
            decode_stream_batch(payload)
        with pytest.raises(ValidationFailed):
            decode_bin1(payload)

    @pytest.mark.parametrize("kind", [0, 2])
    def test_nonzero_worker_pad_is_invalid(self, kind):
        # kinds 0 (registered) and 2 (unassigned) carry no worker — a
        # nonzero field there is damage, not data
        row = struct.Struct(">Bqqq").pack(kind, 0, 1, 5)
        payload = (
            struct.Struct(">BBB").pack(
                BIN1_MAGIC, BIN1_WIRE_VERSION, STREAM_RESULT_TAG
            )
            + struct.Struct(">I").pack(1)
            + row
        )
        with pytest.raises(ValidationFailed):
            decode_stream_result(payload)
        with pytest.raises(ValidationFailed):
            decode_bin1(payload)

    def test_overstated_row_count_is_a_structured_truncation(self):
        payload = bytearray(encode_stream_batch(_stream_batch()))
        struct.Struct(">I").pack_into(payload, 3, 1000)
        with pytest.raises(ValidationFailed):
            decode_stream_batch(bytes(payload))


# --------------------------------------------------------------------- #
# outbound framing symmetry (the bugfix regression)                      #
# --------------------------------------------------------------------- #


class TestOversizeResponse:
    @pytest.mark.parametrize("binary", [True, False])
    def test_oversize_response_errors_and_keeps_the_session(self, binary):
        """A response too big for max_frame_bytes answers a structured
        error — this request's failure, not the connection's."""
        spec = _spec()
        config = GatewayConfig(
            spec=spec, backend="sharded", max_frame_bytes=512
        )
        with serve_gateway(config) as server:
            backend = RemoteBackend(
                spec, address=server.address, binary=binary
            )
            backend.open()
            try:
                assert backend.handle(
                    RegisterWorker(0, (1.0, 1.0), 0.0)
                ) == WorkerRegistered(0)
                # the (2,2) report is far past 512 bytes in any codec
                with pytest.raises(ApiError) as info:
                    backend.handle(GetReport())
                assert info.value.code in STABLE_CODES
                # same session, next request: alive and answering
                assert backend.handle(
                    RegisterWorker(1, (2.0, 2.0), 0.1)
                ) == WorkerRegistered(1)
            finally:
                backend.close()
