"""Wire protocol of the render service daemon.

One message is one JSON object on one ``\\n``-terminated line (NDJSON),
UTF-8 encoded.  A connection carries any number of request/response pairs
in order; concurrency comes from concurrent connections, not pipelining.
The same listening socket also answers plain ``GET /healthz`` and
``GET /metrics`` HTTP requests (the daemon sniffs the first line), so the
JSON protocol below only defines the actor-executed and control messages.

Requests name a *kind* (what to run), a *client* (the fairness identity
the admission queue schedules by) and a free-form ``payload``.  Responses
are ``ok`` + ``result`` or ``ok: false`` + ``error``/``code`` — with
``retry_after_s`` set when the daemon rejected the request at admission
(queue full, draining) and the client should back off and retry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Request kinds executed by a worker actor (queued, scheduled fairly).
WORK_KINDS = ("render", "trajectory", "sweep", "sleep")

#: Request kinds answered inline by the event loop (never queued).
CONTROL_KINDS = ("ping", "health", "metrics", "shutdown")

REQUEST_KINDS = WORK_KINDS + CONTROL_KINDS

#: Hard cap on one encoded message; a line beyond this is a protocol error
#: (protects the daemon from unbounded buffering on a hostile connection).
MAX_MESSAGE_BYTES = 8 * 1024 * 1024

#: Longest ``sleep`` request (seconds).  A sleep holds its actor without
#: heartbeats, so the cap stays under the default 20 s quarantine threshold:
#: outside input can occupy an actor, but cannot wedge one.
MAX_SLEEP_S = 10.0

#: Error codes a response can carry.
ERROR_CODES = (
    "bad_request",
    "queue_full",
    "draining",
    "timeout",
    "deadline_exceeded",
    "worker_crashed",
    "evaluation_failed",
)


class ProtocolError(ValueError):
    """A message violated the wire protocol (unparseable, oversized, wrong shape)."""


def encode_message(message: Dict[str, Any]) -> bytes:
    """One wire frame: compact JSON + newline (JSON escapes embedded newlines)."""
    frame = json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"
    if len(frame) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message of {len(frame)} bytes exceeds {MAX_MESSAGE_BYTES}")
    return frame


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one received frame into a message dict."""
    if len(line) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message of {len(line)} bytes exceeds {MAX_MESSAGE_BYTES}")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"unparseable message: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError(f"message must be a JSON object, got {type(message).__name__}")
    return message


@dataclass
class ServiceRequest:
    """One unit of work (or control query) submitted to the daemon.

    Attributes
    ----------
    kind:
        What to run — see :data:`WORK_KINDS` / :data:`CONTROL_KINDS`.
    payload:
        Kind-specific arguments (e.g. ``{"scene": "lego"}`` for a render).
    client:
        Fairness identity; the admission queue schedules per client, so
        every process of one tenant should send the same value.
    id:
        Request id; assigned by the daemon when empty, and echoed in the
        response and the journal.  A client that mints its own stable id
        can safely resend the request after a connection loss: the
        daemon deduplicates by id (idempotency key).
    deadline_s:
        Optional end-to-end deadline, in seconds from admission.  Work
        still queued past its deadline is shed with ``deadline_exceeded``
        instead of being dispatched; actors re-check before executing.
    """

    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    client: str = "anon"
    id: str = ""
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise ProtocolError(
                f"unknown request kind {self.kind!r}; available: {list(REQUEST_KINDS)}"
            )
        if not isinstance(self.payload, dict):
            raise ProtocolError("payload must be a JSON object")
        if not self.client or not isinstance(self.client, str):
            raise ProtocolError("client must be a non-empty string")
        if self.deadline_s is not None:
            try:
                self.deadline_s = float(self.deadline_s)
            except (TypeError, ValueError):
                raise ProtocolError("deadline_s must be a number") from None
            if not 0.0 < self.deadline_s < math.inf:  # False for NaN
                raise ProtocolError(
                    f"deadline_s must be a finite number > 0, got {self.deadline_s}"
                )
        if self.kind == "sleep":
            seconds = self.payload.get("seconds", 0.0)
            try:
                valid = 0.0 <= float(seconds) <= MAX_SLEEP_S  # False for NaN
            except (TypeError, ValueError):
                valid = False
            if not valid:
                raise ProtocolError(
                    f"sleep seconds must be a number in [0, {MAX_SLEEP_S}], "
                    f"got {seconds!r}"
                )

    def to_wire(self) -> Dict[str, Any]:
        message: Dict[str, Any] = {
            "kind": self.kind,
            "payload": self.payload,
            "client": self.client,
            "id": self.id,
        }
        if self.deadline_s is not None:
            message["deadline_s"] = self.deadline_s
        return message

    @classmethod
    def from_wire(cls, message: Dict[str, Any]) -> "ServiceRequest":
        if "kind" not in message:
            raise ProtocolError("request is missing 'kind'")
        return cls(
            kind=message["kind"],
            payload=message.get("payload") or {},
            client=message.get("client") or "anon",
            id=str(message.get("id") or ""),
            deadline_s=message.get("deadline_s"),
        )


@dataclass
class ServiceResponse:
    """The daemon's answer to one request."""

    ok: bool
    result: Any = None
    error: str = ""
    code: str = ""
    retry_after_s: Optional[float] = None
    id: str = ""
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> Dict[str, Any]:
        message: Dict[str, Any] = {"ok": self.ok, "id": self.id}
        if self.ok:
            message["result"] = self.result
        else:
            message["error"] = self.error
            message["code"] = self.code
        if self.retry_after_s is not None:
            message["retry_after_s"] = round(float(self.retry_after_s), 6)
        if self.meta:
            message["meta"] = self.meta
        return message

    @classmethod
    def from_wire(cls, message: Dict[str, Any]) -> "ServiceResponse":
        if "ok" not in message:
            raise ProtocolError("response is missing 'ok'")
        return cls(
            ok=bool(message["ok"]),
            result=message.get("result"),
            error=str(message.get("error") or ""),
            code=str(message.get("code") or ""),
            retry_after_s=message.get("retry_after_s"),
            id=str(message.get("id") or ""),
            meta=message.get("meta") or {},
        )


def error_response(
    code: str,
    error: str,
    request_id: str = "",
    retry_after_s: Optional[float] = None,
) -> ServiceResponse:
    """A failure response with a well-known code."""
    return ServiceResponse(
        ok=False, error=error, code=code, retry_after_s=retry_after_s, id=request_id
    )
