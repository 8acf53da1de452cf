"""Blocking client of the render service daemon.

:class:`ServiceClient` speaks the NDJSON protocol over one socket
connection (TCP or unix) and exposes convenience wrappers per request
kind.  It is deliberately synchronous — examples, benchmarks and CI
smoke drive the daemon from plain scripts and threads; concurrency comes
from multiple clients, matching how the daemon schedules fairness.

``submit`` optionally retries admission rejects: a ``queue_full`` /
``draining`` / ``circuit_open`` response carries ``retry_after_s``, and
with ``retries > 0`` the client sleeps that hint (bounded) and resubmits
**under the same request id** — one logical request keeps one id across
every admission retry, so the daemon's journal and metrics see a single
request.

The id doubles as an idempotency key: on a mid-request connection loss
the client (when built via :meth:`ServiceClient.connect`) transparently
reconnects and resends the same request up to ``reconnect`` times, and
the daemon answers resends of completed work from its response cache —
a dropped response never causes a double render.  When the budget is
exhausted a typed :class:`ServiceConnectionError` carrying the request
id is raised and the connection is marked dead (subsequent calls fail
fast instead of hanging on a desynchronized stream).
"""

from __future__ import annotations

import json
import os
import random
import socket
import time
import urllib.request
import uuid
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.service.protocol import (
    MAX_MESSAGE_BYTES,
    ProtocolError,
    ServiceRequest,
    ServiceResponse,
    decode_message,
    encode_message,
)

Address = Union[Tuple[str, ...], Sequence[str]]

#: Backoff used when a reject carries no ``retry_after_s`` hint at all.
DEFAULT_BACKOFF_S = 0.1

#: Jitter fraction added on top of the hinted backoff (plus a 10 ms floor
#: so even a zero hint desynchronizes resubmissions).
BACKOFF_JITTER = 0.25


def backoff_delay(
    hint: Optional[float],
    max_backoff_s: float = 5.0,
    rng: Optional[random.Random] = None,
) -> float:
    """Seconds to sleep before resubmitting after an admission reject.

    ``hint`` is the daemon's ``retry_after_s``.  A ``0.0`` hint means
    "retry immediately" and is honored — only a missing hint (``None``)
    falls back to :data:`DEFAULT_BACKOFF_S`.  A bounded random jitter
    (up to ``BACKOFF_JITTER`` of the base, plus 10 ms) is added so a
    fleet of clients rejected in the same instant does not resubmit in
    lockstep; the total never exceeds ``max_backoff_s``.
    """
    base = DEFAULT_BACKOFF_S if hint is None else max(0.0, float(hint))
    base = min(float(max_backoff_s), base)
    jitter = (rng or random).uniform(0.0, BACKOFF_JITTER * base + 0.01)
    return max(0.0, min(float(max_backoff_s), base + jitter))


class ServiceError(RuntimeError):
    """A request failed and ``raise_on_error`` was set."""

    def __init__(self, response: ServiceResponse) -> None:
        self.response = response
        super().__init__(f"[{response.code or 'error'}] {response.error}")


class ServiceConnectionError(ConnectionError):
    """The connection died mid-request and could not be restored.

    Carries the in-flight request's id so the caller can resubmit it
    under the same idempotency key (the daemon deduplicates by id).
    """

    def __init__(self, message: str, request_id: str = "", client: str = "") -> None:
        self.request_id = request_id
        self.client = client
        super().__init__(message)


class ServiceClient:
    """One connection to a running :class:`~repro.service.daemon.ServiceDaemon`.

    Usable as a context manager::

        with ServiceClient.connect(("tcp", "127.0.0.1", 7340)) as client:
            result = client.render("lego", resolution_scale=0.25)
    """

    def __init__(
        self,
        sock: socket.socket,
        client: str = "anon",
        timeout: float = 60.0,
        reconnect: int = 1,
    ) -> None:
        self._sock = sock
        self._sock.settimeout(timeout)
        self._file = sock.makefile("rb")
        self.client = client
        self.timeout = timeout
        #: Reconnect-and-resend budget per request; effective only when
        #: the client knows its address (built via :meth:`connect`).
        self.reconnect = max(0, int(reconnect))
        self.requests_sent = 0
        #: Admission rejects this client slept through and resubmitted.
        self.backoffs = 0
        #: Requests resent over a fresh connection after a mid-request
        #: connection loss (served idempotently by the daemon).
        self.resends = 0
        self._address: Optional[Tuple[str, ...]] = None
        self._connect_timeout = 5.0
        self._dead = False
        #: Stable token making this client instance's request ids unique
        #: across processes and reconnects.
        self._token = f"{os.getpid():x}-{uuid.uuid4().hex[:8]}"
        self._serial = 0

    def _next_id(self) -> str:
        """Mint one idempotency key per *logical* request."""
        self._serial += 1
        return f"{self.client}-{self._token}-{self._serial:x}"

    # ------------------------------------------------------------------
    @staticmethod
    def _open_socket(address: Tuple[str, ...], connect_timeout: float) -> socket.socket:
        if address[0] == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(connect_timeout)
            sock.connect(address[1])
            return sock
        if address[0] == "tcp":
            return socket.create_connection(
                (address[1], int(address[2])), timeout=connect_timeout
            )
        raise ValueError(f"unknown address scheme {address[0]!r}")

    @classmethod
    def connect(
        cls,
        address: Address,
        client: str = "anon",
        timeout: float = 60.0,
        connect_timeout: float = 5.0,
        reconnect: int = 1,
    ) -> "ServiceClient":
        """Open a connection to ``("tcp", host, port)`` or ``("unix", path)``."""
        address = tuple(address)
        sock = cls._open_socket(address, connect_timeout)
        instance = cls(sock, client=client, timeout=timeout, reconnect=reconnect)
        instance._address = address
        instance._connect_timeout = connect_timeout
        return instance

    def _mark_dead(self) -> None:
        self._dead = True
        try:
            self._file.close()
        except OSError:  # pragma: no cover - already broken
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already broken
            pass

    def _reconnect(self) -> None:
        assert self._address is not None
        sock = self._open_socket(self._address, self._connect_timeout)
        sock.settimeout(self.timeout)
        self._sock = sock
        self._file = sock.makefile("rb")
        self._dead = False

    def close(self) -> None:
        self._dead = True
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        retries: int = 0,
        max_backoff_s: float = 5.0,
        raise_on_error: bool = False,
        deadline_s: Optional[float] = None,
    ) -> ServiceResponse:
        """Send one request and block for its response.

        With ``retries > 0``, admission rejects (``queue_full`` /
        ``draining`` / ``circuit_open``) are retried after the daemon's
        ``retry_after_s`` hint plus bounded jitter (see
        :func:`backoff_delay`; the sleep is capped at ``max_backoff_s``
        and a ``0.0`` hint is honored).  Every retry reuses the id minted
        for the logical request, so the daemon sees one request no matter
        how many resubmissions it took.  ``deadline_s`` propagates an
        end-to-end deadline the daemon enforces before and at dispatch.
        Other failures are returned (or raised) as-is.
        """
        request = ServiceRequest(
            kind=kind,
            payload=payload or {},
            client=self.client,
            id=self._next_id(),
            deadline_s=deadline_s,
        )
        attempts_left = max(0, int(retries))
        while True:
            response = self._roundtrip(request)
            if response.ok or response.code not in (
                "queue_full",
                "draining",
                "circuit_open",
            ):
                if not response.ok and raise_on_error:
                    raise ServiceError(response)
                return response
            if attempts_left <= 0:
                if raise_on_error:
                    raise ServiceError(response)
                return response
            attempts_left -= 1
            self.backoffs += 1
            time.sleep(backoff_delay(response.retry_after_s, max_backoff_s))

    def _roundtrip(self, request: ServiceRequest) -> ServiceResponse:
        """One request/response exchange, surviving connection loss.

        A send/receive failure (including a torn response line) marks
        the connection dead; with a known address and budget left the
        client reconnects and resends the *same* request — the daemon's
        idempotency cache guarantees at-most-once execution.  Beyond the
        budget a :class:`ServiceConnectionError` carrying the request id
        is raised, and later calls fail fast until a reconnect succeeds.
        """
        resends_left = self.reconnect if self._address is not None else 0
        while True:
            try:
                if self._dead:
                    raise ConnectionError("connection previously failed")
                self._sock.sendall(encode_message(request.to_wire()))
                self.requests_sent += 1
                line = self._file.readline(MAX_MESSAGE_BYTES + 2)
                if not line or not line.endswith(b"\n"):
                    # Empty = clean EOF; no newline = torn frame.  Either
                    # way the stream is unusable mid-request.
                    raise ConnectionError("service connection closed mid-request")
                return ServiceResponse.from_wire(decode_message(line))
            except (ConnectionError, OSError) as error:
                # socket.timeout is an OSError: a timed-out stream is
                # desynchronized, so it is treated as dead too.
                self._mark_dead()
                if resends_left <= 0:
                    raise ServiceConnectionError(
                        f"service connection lost during request "
                        f"{request.id or '<unassigned>'}: {error}",
                        request_id=request.id,
                        client=self.client,
                    ) from error
                resends_left -= 1
                try:
                    self._reconnect()
                except OSError as reconnect_error:
                    raise ServiceConnectionError(
                        f"reconnect failed during request {request.id}: "
                        f"{reconnect_error}",
                        request_id=request.id,
                        client=self.client,
                    ) from reconnect_error
                self.resends += 1

    # ------------------------------------------------------------------
    # convenience wrappers
    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self.submit("ping", raise_on_error=True).result

    def health(self) -> Dict[str, Any]:
        return self.submit("health", raise_on_error=True).result

    def metrics(self) -> Dict[str, Any]:
        return self.submit("metrics", raise_on_error=True).result

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        return self.submit(
            "shutdown", {"drain": drain}, raise_on_error=True
        ).result

    def render(
        self,
        scene: str,
        algorithm: str = "3dgs",
        voxel_size: Optional[float] = None,
        resolution_scale: float = 1.0,
        retries: int = 0,
        deadline_s: Optional[float] = None,
        **extra: Any,
    ) -> ServiceResponse:
        payload: Dict[str, Any] = {
            "scene": scene,
            "algorithm": algorithm,
            "resolution_scale": resolution_scale,
        }
        if voxel_size is not None:
            payload["voxel_size"] = voxel_size
        payload.update(extra)
        return self.submit("render", payload, retries=retries, deadline_s=deadline_s)

    def sweep(
        self,
        base: Optional[Dict[str, Any]] = None,
        grid: Optional[Dict[str, Any]] = None,
        retries: int = 0,
        deadline_s: Optional[float] = None,
        **grid_kwargs: Any,
    ) -> ServiceResponse:
        merged = dict(grid or {})
        merged.update(grid_kwargs)
        payload: Dict[str, Any] = {"grid": merged}
        if base:
            payload["base"] = base
        return self.submit("sweep", payload, retries=retries, deadline_s=deadline_s)

    def trajectory(
        self,
        spec: Any = None,
        retries: int = 0,
        deadline_s: Optional[float] = None,
        **spec_fields: Any,
    ) -> ServiceResponse:
        """Submit a trajectory workload.

        ``spec`` is a :class:`~repro.api.spec.TrajectorySpec` (anything
        with ``to_dict()``) or a spec-shaped mapping; keyword fields build
        or extend the mapping form (``client.trajectory(scene="train",
        path="orbit", frames=24)``).
        """
        if spec is None:
            payload_spec: Dict[str, Any] = dict(spec_fields)
        elif hasattr(spec, "to_dict"):
            if spec_fields:
                raise TypeError(
                    "pass a TrajectorySpec or spec fields, not both"
                )
            payload_spec = spec.to_dict()
        else:
            payload_spec = dict(spec)
            payload_spec.update(spec_fields)
        return self.submit(
            "trajectory", {"spec": payload_spec}, retries=retries, deadline_s=deadline_s
        )


def scrape_http(address: Address, path: str, timeout: float = 5.0) -> Dict[str, Any]:
    """Fetch ``/healthz`` or ``/metrics`` over the daemon's HTTP shim.

    Works against TCP addresses via :mod:`urllib`; unix-socket daemons
    are scraped with a raw socket (urllib has no unix transport).
    """
    address = tuple(address)
    if address[0] == "tcp":
        url = f"http://{address[1]}:{int(address[2])}{path}"
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    if address[0] == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(address[1])
            sock.sendall(
                f"GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n".encode("latin-1")
            )
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        finally:
            sock.close()
        raw = b"".join(chunks)
        header, _, body = raw.partition(b"\r\n\r\n")
        status_line = header.split(b"\r\n", 1)[0].decode("latin-1", "replace")
        parts = status_line.split()
        if len(parts) < 2 or parts[1] != "200":
            raise ProtocolError(f"HTTP scrape failed: {status_line}")
        return json.loads(body.decode("utf-8"))
    raise ValueError(f"unknown address scheme {address[0]!r}")
