"""Wire protocol for :mod:`repro.serve`: newline-delimited JSON over TCP.

Framing
-------
One message per line, UTF-8 JSON, terminated by ``\\n``; no message may
contain a raw newline (``json.dumps`` guarantees this) or exceed
:data:`MAX_LINE_BYTES`. Requests and responses are plain objects:

Request::

    {"id": 7, "type": "interference", "params": {...}, "deadline_ms": 250}

- ``id`` — client-chosen correlation token (int or string); echoed back
  verbatim. Responses may arrive out of request order (batching and
  per-type scheduling reorder freely), so clients match on ``id``.
- ``type`` — one of :data:`REQUEST_TYPES`.
- ``params`` — type-specific payload (see :mod:`repro.serve.handlers`);
  optional, defaults to ``{}``.
- ``deadline_ms`` — optional wall-clock budget measured from admission.

Response (success / failure)::

    {"id": 7, "ok": true,  "result": {...}, "ms": 3.2, "v": 1}
    {"id": 7, "ok": false, "error": {"code": "overloaded", "message": "..."},
     "ms": 0.1, "v": 1}

``ms`` is the server-side latency from admission to response. Error
``code`` is one of the ``ERR_*`` constants below; anything else a client
sees is a protocol violation. An error object may additionally carry a
structured ``details`` member (e.g. ``wrong_shard`` reports the owning
shards and their endpoints so a client can redirect).

Versioning
----------
Envelopes may carry ``"v": 1`` (:data:`PROTOCOL_VERSION`). A request
*without* ``v`` is treated as version 1 — pre-versioning clients keep
working against any server — but a request carrying an *unknown* version
is rejected with ``bad_request`` instead of being half-understood.
Responses always carry ``v``.

This module is shared by server, client and load generator, and has no
dependencies beyond the stdlib.
"""

from __future__ import annotations

import json

#: Upper bound on one framed message (request or response), in bytes.
#: ``encode_message``/``decode_message`` accept a per-call override so
#: cluster-internal links (whole-shard interference vectors) can raise it.
MAX_LINE_BYTES = 1_000_000

#: Envelope version this module speaks. Requests without a ``v`` field
#: are treated as this version; unknown versions are rejected.
PROTOCOL_VERSION = 1

#: The request types the server understands. ``ping`` and the
#: ``stream_*`` kinds are answered inline on the event loop (the stream
#: lane is stateful, so it can never run on the worker pool); the rest
#: run on the worker pool.
REQUEST_TYPES = (
    "ping",
    "interference",
    "build_topology",
    "opt",
    "experiment",
    "stream_init",
    "stream_apply",
    "stream_read",
    "stream_subscribe",
    "stream_unsubscribe",
)

#: Request types eligible for micro-batching (coalesced into one worker
#: dispatch). Only small, uniform-cost requests benefit; everything else
#: is dispatched individually.
BATCHABLE_TYPES = ("interference",)

#: Request kinds safe to retry after a connection failure: re-executing
#: them cannot change server state. ``stream_apply`` is deliberately
#: absent (a retried apply would double-apply events whose first send
#: actually arrived), as are the subscription kinds (a retried subscribe
#: would leak a subscription on the old connection).
IDEMPOTENT_TYPES = (
    "ping",
    "interference",
    "build_topology",
    "opt",
    "experiment",
    "stream_read",
)

ERR_BAD_REQUEST = "bad_request"
ERR_OVERLOADED = "overloaded"
ERR_DEADLINE = "deadline_exceeded"
ERR_INTERNAL = "internal"
ERR_SHUTTING_DOWN = "shutting_down"
ERR_WRONG_SHARD = "wrong_shard"
ERR_SHARD_UNAVAILABLE = "shard_unavailable"

#: Every error code a response may carry. ``wrong_shard`` additionally
#: carries ``details`` naming the owning shards (and, when known, their
#: endpoints) so clients can redirect; ``shard_unavailable`` means a
#: cluster front-end could not reach a worker shard.
ERROR_CODES = (
    ERR_BAD_REQUEST,
    ERR_OVERLOADED,
    ERR_DEADLINE,
    ERR_INTERNAL,
    ERR_SHUTTING_DOWN,
    ERR_WRONG_SHARD,
    ERR_SHARD_UNAVAILABLE,
)


class ProtocolError(ValueError):
    """A malformed frame or request envelope."""


def encode_message(payload: dict, *, limit: int = MAX_LINE_BYTES) -> bytes:
    """Frame one message: compact JSON + newline (``limit`` bytes max)."""
    line = json.dumps(payload, separators=(",", ":"), allow_nan=False)
    data = line.encode("utf-8") + b"\n"
    if len(data) > limit:
        raise ProtocolError(
            f"message of {len(data)} bytes exceeds the {limit}-byte frame limit"
        )
    return data


def decode_message(line: bytes | str, *, limit: int = MAX_LINE_BYTES) -> dict:
    """Parse one framed line into a message object."""
    if isinstance(line, bytes):
        if len(line) > limit:
            raise ProtocolError("frame exceeds the frame-size limit")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"frame is not UTF-8: {exc}") from exc
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("frame must be a JSON object")
    return payload


def parse_request(message: dict) -> tuple[object, str, dict, float | None]:
    """Validate a request envelope -> ``(id, type, params, deadline_ms)``.

    Raises :class:`ProtocolError` with a message safe to echo back.
    """
    req_id = message.get("id")
    if req_id is not None and not isinstance(req_id, (int, str)):
        raise ProtocolError("request 'id' must be an int or string")
    version = message.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION or isinstance(version, bool):
        raise ProtocolError(
            f"unsupported protocol version {version!r}; "
            f"this server speaks v{PROTOCOL_VERSION}"
        )
    kind = message.get("type")
    if kind not in REQUEST_TYPES:
        raise ProtocolError(
            f"unknown request type {kind!r}; known: {list(REQUEST_TYPES)}"
        )
    params = message.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("request 'params' must be an object")
    deadline_ms = message.get("deadline_ms")
    if deadline_ms is not None:
        if not isinstance(deadline_ms, (int, float)) or isinstance(
            deadline_ms, bool
        ) or deadline_ms <= 0:
            raise ProtocolError("request 'deadline_ms' must be a positive number")
        deadline_ms = float(deadline_ms)
    return req_id, kind, params, deadline_ms


def ok_response(req_id, result: dict, *, ms: float) -> dict:
    return {
        "id": req_id,
        "ok": True,
        "result": result,
        "ms": round(ms, 3),
        "v": PROTOCOL_VERSION,
    }


def error_response(
    req_id, code: str, message: str, *, ms: float = 0.0,
    details: dict | None = None,
) -> dict:
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    error: dict = {"code": code, "message": message}
    if details is not None:
        error["details"] = details
    return {
        "id": req_id,
        "ok": False,
        "error": error,
        "ms": round(ms, 3),
        "v": PROTOCOL_VERSION,
    }
