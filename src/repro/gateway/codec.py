"""The ``bin1`` binary payload codec: struct-packed per-event frames.

JSON text is the gateway's v1 baseline, and it taxes every frame twice:
``json.dumps`` walks the document on the way out, ``json.loads``
re-tokenizes it on the way in, and numbers travel as decimal text. bin1
replaces the *payload encoding only* — framing (u32-BE length prefix),
the handshake, the document shapes and the error taxonomy are all
unchanged — with a tagged binary layout:

```
payload := magic u8 (0xB1) | layout-version u8 (0x02) | tag u8 | body
```

Only the four per-event messages are struct-packed: ``register_worker``
and ``submit_task`` (one ``>qddd`` each), ``worker_registered`` and
``task_decision``, either as one frame per message or as a columnar
stream window (one fixed-width row per enveloped event). Every other
document — flushes, reports, errors, traced envelopes, mesh ops and
their checkpoint snapshots, big ints, int-typed floats — is carried by
:data:`GENERIC_TAG` as embedded JSON. That fallback is what makes the
encoder *total* (any dict that json can carry, bin1 can carry) and what
guarantees decode fidelity: a per-event tag is only used when
re-expanding it reproduces the document a JSON peer would have
produced, value types included, so the negotiated codec can never
change what a backend sees.

Decoding is zero-copy: the caller may hand in the ``memoryview`` slice
straight out of the receive buffer; fields are unpacked in place and
strings decoded directly from the view. Every malformed input — bad
magic, foreign layout version, junk tag, truncation at any boundary,
lying row counts, nonzero padding, trailing garbage — raises a
structured :mod:`repro.api.errors` code, never a bare ``struct.error``;
the fuzz suite drives this promise the same way it drives the JSON path.

Tag numbers and codec names are owned by :mod:`repro.gateway.protocol`
(lint rule RL403); this module holds only the encode/decode machinery.
"""

from __future__ import annotations

import json
import struct

from ..api.errors import UnsupportedVersion, ValidationFailed
from ..api.messages import (
    WIRE_SCHEMA,
    WIRE_VERSION,
    Batch,
    BatchResult,
    RegisterWorker,
    StreamEnvelope,
    StreamItemResult,
    SubmitTask,
    TaskDecision,
    WorkerRegistered,
    to_wire,
)
from .protocol import (
    BIN1_MAGIC,
    BIN1_WIRE_VERSION,
    GENERIC_TAG,
    REGISTER_WORKER_TAG,
    STREAM_BATCH_TAG,
    STREAM_RESULT_TAG,
    SUBMIT_TASK_TAG,
    TASK_DECISION_TAG,
    WORKER_REGISTERED_TAG,
)

__all__ = [
    "encode_bin1",
    "decode_bin1",
    "encode_stream_batch",
    "decode_stream_batch",
    "encode_stream_result",
    "decode_stream_result",
]

_PREFIX = struct.Struct(">BBB")  # magic, layout version, tag
_EVENT = struct.Struct(">qddd")  # id, x, y, time
_I64 = struct.Struct(">q")
_DECISION = struct.Struct(">qBq")  # task_id, has-worker flag, worker_id
_U32 = struct.Struct(">I")

# columnar stream rows (see STREAM_BATCH_TAG / STREAM_RESULT_TAG):
# fixed width, no per-item nesting — the whole window is one pack loop
_STREAM_ROW = struct.Struct(">Bqqddd")  # kind, seq, id, x, y, time
_RESULT_ROW = struct.Struct(">Bqqq")  # kind, seq, id, worker (or 0)

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


def _is_i64(v) -> bool:
    # bool is an int subclass but json spells it true/false, not 0/1
    return type(v) is int and _I64_MIN <= v <= _I64_MAX


def _is_point(v) -> bool:
    return (
        type(v) is list
        and len(v) == 2
        and type(v[0]) is float
        and type(v[1]) is float
    )


def _prefix(tag: int) -> bytes:
    return _PREFIX.pack(BIN1_MAGIC, BIN1_WIRE_VERSION, tag)


# --------------------------------------------------------------------- #
# encode                                                                 #
# --------------------------------------------------------------------- #


def _encode_event(doc: dict) -> bytes | None:
    """The per-event tag encoding of ``doc``, or ``None`` when it is not
    exactly one of the four per-event shapes (-> GENERIC)."""
    if len(doc) != 4 or doc.get("schema") != WIRE_SCHEMA:
        return None
    if doc.get("version") != WIRE_VERSION:
        return None
    kind = doc.get("kind")
    body = doc.get("body")
    if type(body) is not dict:
        return None
    if kind in ("register_worker", "submit_task"):
        key = "worker_id" if kind == "register_worker" else "task_id"
        if len(body) != 3:
            return None
        ident, loc, when = body.get(key), body.get("location"), body.get("time")
        if not (_is_i64(ident) and _is_point(loc) and type(when) is float):
            return None
        tag = REGISTER_WORKER_TAG if kind == "register_worker" else SUBMIT_TASK_TAG
        return _prefix(tag) + _EVENT.pack(ident, loc[0], loc[1], when)
    if kind == "worker_registered":
        if len(body) != 1 or not _is_i64(body.get("worker_id")):
            return None
        return _prefix(WORKER_REGISTERED_TAG) + _I64.pack(body["worker_id"])
    if kind == "task_decision":
        if len(body) != 2 or not _is_i64(body.get("task_id")):
            return None
        worker = body.get("worker_id")
        if worker is not None and not _is_i64(worker):
            return None
        return _prefix(TASK_DECISION_TAG) + _DECISION.pack(
            body["task_id"], 0 if worker is None else 1, worker or 0
        )
    return None


def encode_bin1(doc: dict) -> bytes:
    """One document -> one bin1 frame payload (no length prefix)."""
    if not isinstance(doc, dict):
        raise ValidationFailed(
            f"frame document must be an object, got {type(doc).__name__}"
        )
    payload = _encode_event(doc)
    if payload is None:
        payload = _prefix(GENERIC_TAG) + json.dumps(
            doc, separators=(",", ":")
        ).encode("utf-8")
    return payload


# --------------------------------------------------------------------- #
# decode                                                                 #
# --------------------------------------------------------------------- #


class _Reader:
    """Bounds-checked cursor over one payload view; all failures are
    structured ``invalid-request`` errors, never ``struct.error``."""

    __slots__ = ("view", "pos", "end")

    def __init__(self, view, pos: int, end: int) -> None:
        self.view = view
        self.pos = pos
        self.end = end

    def need(self, n: int) -> int:
        start = self.pos
        if self.end - start < n:
            raise ValidationFailed(
                f"bin1 payload truncated: needed {n} bytes at offset "
                f"{start}, {self.end - start} remain"
            )
        self.pos = start + n
        return start

    def unpack(self, st: struct.Struct):
        return st.unpack_from(self.view, self.need(st.size))

    def done(self) -> None:
        if self.pos != self.end:
            raise ValidationFailed(
                f"bin1 payload has {self.end - self.pos} trailing bytes "
                f"after its body"
            )


def _open(payload) -> tuple[_Reader, int]:
    """Validate the bin1 prefix; a cursor after it, and the frame tag."""
    view = payload if isinstance(payload, memoryview) else memoryview(payload)
    r = _Reader(view, 0, len(view))
    magic, version, tag = r.unpack(_PREFIX)
    if magic != BIN1_MAGIC:
        raise ValidationFailed(
            f"bin1 payload starts with byte {magic:#04x}, "
            f"expected {BIN1_MAGIC:#04x}"
        )
    if version != BIN1_WIRE_VERSION:
        raise UnsupportedVersion(
            f"bin1 layout version {version}, this peer speaks "
            f"{BIN1_WIRE_VERSION}"
        )
    return r, tag


def _doc(kind: str, body: dict) -> dict:
    return {
        "schema": WIRE_SCHEMA,
        "version": WIRE_VERSION,
        "kind": kind,
        "body": body,
    }


def _check_worker_pad(what: str, worker: int) -> None:
    if worker != 0:
        # one canonical byte string per document: the unused worker
        # slot must be zero, anything else is damage
        raise ValidationFailed(
            f"bin1 {what} carries a nonzero worker field {worker}"
        )


def _batch_rows(r: _Reader) -> Batch:
    (count,) = r.unpack(_U32)
    start = r.need(count * _STREAM_ROW.size)
    items = []
    append = items.append
    for k, seq, ident, x, y, when in _STREAM_ROW.iter_unpack(
        r.view[start : r.pos]
    ):
        if k == 0:
            item = RegisterWorker(ident, (x, y), when)
        elif k == 1:
            item = SubmitTask(ident, (x, y), when)
        else:
            raise ValidationFailed(
                f"bin1 stream row kind must be 0 or 1, got {k}"
            )
        append(StreamEnvelope(seq, item))
    return Batch(items)


def _result_rows(r: _Reader) -> BatchResult:
    (count,) = r.unpack(_U32)
    start = r.need(count * _RESULT_ROW.size)
    items = []
    append = items.append
    for k, seq, ident, worker in _RESULT_ROW.iter_unpack(
        r.view[start : r.pos]
    ):
        if k == 1:
            item = TaskDecision(ident, worker)
        elif k == 0 or k == 2:
            _check_worker_pad(f"result row kind {k}", worker)
            item = WorkerRegistered(ident) if k == 0 else TaskDecision(ident, None)
        else:
            raise ValidationFailed(
                f"bin1 result row kind must be 0, 1 or 2, got {k}"
            )
        append(StreamItemResult(seq, item))
    return BatchResult(items)


def _decode_body(r: _Reader, tag: int) -> dict:
    if tag == GENERIC_TAG:
        start = r.pos
        r.pos = r.end
        try:
            doc = json.loads(str(r.view[start : r.end], "utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ValidationFailed(
                f"bin1 generic body is not valid JSON: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if not isinstance(doc, dict):
            raise ValidationFailed(
                f"bin1 generic body must encode an object, "
                f"got {type(doc).__name__}"
            )
        return doc
    if tag in (REGISTER_WORKER_TAG, SUBMIT_TASK_TAG):
        ident, x, y, when = r.unpack(_EVENT)
        kind = "register_worker" if tag == REGISTER_WORKER_TAG else "submit_task"
        key = "worker_id" if tag == REGISTER_WORKER_TAG else "task_id"
        return _doc(kind, {key: ident, "location": [x, y], "time": when})
    if tag == WORKER_REGISTERED_TAG:
        (ident,) = r.unpack(_I64)
        return _doc("worker_registered", {"worker_id": ident})
    if tag == TASK_DECISION_TAG:
        task, has_worker, worker = r.unpack(_DECISION)
        if has_worker == 0:
            _check_worker_pad("unassigned task_decision", worker)
        elif has_worker != 1:
            raise ValidationFailed(
                f"bin1 task_decision has-worker flag must be 0 or 1, "
                f"got {has_worker}"
            )
        return _doc(
            "task_decision",
            {"task_id": task, "worker_id": worker if has_worker else None},
        )
    # stream windows reach here only from a peer sniffing frames (the
    # gateway takes them on the object path); same rows, same document
    # a JSON peer would have received
    if tag == STREAM_BATCH_TAG:
        return to_wire(_batch_rows(r))
    if tag == STREAM_RESULT_TAG:
        return to_wire(_result_rows(r))
    raise ValidationFailed(f"unknown bin1 frame tag {tag:#04x}")


def decode_bin1(payload) -> dict:
    """One bin1 payload (bytes or memoryview) -> the document."""
    r, tag = _open(payload)
    doc = _decode_body(r, tag)
    r.done()
    return doc


# --------------------------------------------------------------------- #
# columnar stream fast path                                              #
# --------------------------------------------------------------------- #
#
# The doc-shaped codec above costs ~35us per streamed event once both
# directions of to_wire/encode/decode/from_wire are summed; the stream
# fast path packs a whole replay window of api dataclasses straight into
# fixed-width rows (and back) without ever building the documents. Only
# these object-level encoders *produce* STREAM_BATCH / STREAM_RESULT
# payloads; `decode_bin1` above accepts them too, so any bin1 decoder —
# including a mixed-codec mesh peer sniffing frames — stays total.


def _open_stream(payload, expect_tag: int) -> _Reader:
    r, tag = _open(payload)
    if tag != expect_tag:
        raise ValidationFailed(
            f"expected bin1 stream tag {expect_tag:#04x}, got {tag:#04x}"
        )
    return r


def encode_stream_batch(batch) -> bytes | None:
    """A :class:`Batch` of enveloped register/submit events -> one
    STREAM_BATCH payload, or ``None`` when anything falls outside the
    fixed-width row shape (the caller takes the document path).

    Fidelity rule: a row carries exactly what ``to_wire`` would have
    serialized — struct ``q`` rejects non-integers (-> ``None`` ->
    fallback) and ``d`` widens ints the way ``float()`` does, and the
    decoders below apply the same coercions ``_from_body`` would — so
    the far side sees identical dataclasses on either path.
    """
    if type(batch) is not Batch:
        return None
    pack = _STREAM_ROW.pack
    try:
        parts = [_prefix(STREAM_BATCH_TAG), _U32.pack(len(batch.items))]
        for env in batch.items:
            if type(env) is not StreamEnvelope:
                return None
            item = env.item
            kind = type(item)
            if kind is RegisterWorker:
                row_kind, ident = 0, item.worker_id
            elif kind is SubmitTask:
                row_kind, ident = 1, item.task_id
            else:
                return None
            x, y = item.location
            parts.append(pack(row_kind, env.seq, ident, x, y, item.time))
    except (struct.error, TypeError, ValueError):
        return None
    return b"".join(parts)


def decode_stream_batch(payload) -> Batch:
    """One STREAM_BATCH payload -> the :class:`Batch`, no document layer.

    Malformed bytes raise the same structured errors as
    :func:`decode_bin1`: truncation, bad kinds and trailing garbage are
    all ``invalid-request``, a foreign layout version is
    ``unsupported-version``.
    """
    r = _open_stream(payload, STREAM_BATCH_TAG)
    batch = _batch_rows(r)
    r.done()
    return batch


def encode_stream_result(result) -> bytes | None:
    """A :class:`BatchResult` of enveloped register/submit answers ->
    one STREAM_RESULT payload, or ``None`` for the document path."""
    if type(result) is not BatchResult:
        return None
    pack = _RESULT_ROW.pack
    try:
        parts = [_prefix(STREAM_RESULT_TAG), _U32.pack(len(result.items))]
        for env in result.items:
            if type(env) is not StreamItemResult:
                return None
            item = env.item
            kind = type(item)
            if kind is WorkerRegistered:
                parts.append(pack(0, env.seq, item.worker_id, 0))
            elif kind is TaskDecision:
                worker = item.worker_id
                if worker is None:
                    parts.append(pack(2, env.seq, item.task_id, 0))
                else:
                    parts.append(pack(1, env.seq, item.task_id, worker))
            else:
                return None
    except (struct.error, TypeError, ValueError):
        return None
    return b"".join(parts)


def decode_stream_result(payload) -> BatchResult:
    """One STREAM_RESULT payload -> the :class:`BatchResult`."""
    r = _open_stream(payload, STREAM_RESULT_TAG)
    result = _result_rows(r)
    r.done()
    return result
