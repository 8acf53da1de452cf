"""Wire-protocol unit tests: framing, validation, round trips."""

import json
import math

import pytest

from repro.service.protocol import (
    CONTROL_KINDS,
    MAX_MESSAGE_BYTES,
    MAX_SLEEP_S,
    ProtocolError,
    ServiceRequest,
    ServiceResponse,
    WORK_KINDS,
    decode_message,
    encode_message,
    error_response,
)


class TestFraming:
    def test_encode_decode_round_trip(self):
        message = {"kind": "render", "payload": {"scene": "lego"}, "id": "r1"}
        frame = encode_message(message)
        assert frame.endswith(b"\n")
        assert frame.count(b"\n") == 1  # JSON escapes embedded newlines
        assert decode_message(frame) == message

    def test_embedded_newlines_stay_escaped(self):
        frame = encode_message({"error": "line one\nline two"})
        assert frame.count(b"\n") == 1
        assert decode_message(frame)["error"] == "line one\nline two"

    def test_oversized_message_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(b"x" * (MAX_MESSAGE_BYTES + 1))

    def test_garbage_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2, 3]\n")  # not an object


class TestRequest:
    def test_round_trip(self):
        request = ServiceRequest(
            kind="sweep", payload={"grid": {"num_hfu": [1, 2]}}, client="bench"
        )
        clone = ServiceRequest.from_wire(
            decode_message(encode_message(request.to_wire()))
        )
        assert clone == request

    def test_kind_validated(self):
        with pytest.raises(ProtocolError):
            ServiceRequest(kind="explode")
        for deleted in ("point", "experiment"):
            with pytest.raises(ProtocolError, match="unknown request kind"):
                ServiceRequest.from_wire({"kind": deleted, "payload": {}})
        with pytest.raises(ProtocolError):
            ServiceRequest.from_wire({"payload": {}})

    def test_every_kind_is_work_or_control(self):
        assert not set(WORK_KINDS) & set(CONTROL_KINDS)
        for kind in WORK_KINDS + CONTROL_KINDS:
            assert ServiceRequest(kind=kind).kind == kind

    def test_payload_must_be_object(self):
        with pytest.raises(ProtocolError):
            ServiceRequest(kind="render", payload=[1, 2])

    @pytest.mark.parametrize(
        "seconds",
        [-0.5, float("nan"), float("inf"), MAX_SLEEP_S * 1.01, 1e9, "soon", None],
    )
    def test_sleep_seconds_must_be_finite_and_capped(self, seconds):
        with pytest.raises(ProtocolError, match="sleep seconds"):
            ServiceRequest(kind="sleep", payload={"seconds": seconds})

    def test_sleep_seconds_bounds_are_inclusive(self):
        for seconds in (0, 0.0, MAX_SLEEP_S):
            ServiceRequest(kind="sleep", payload={"seconds": seconds})

    @pytest.mark.parametrize(
        "deadline_s",
        [0, -1.0, float("nan"), float("inf"), -float("inf"),
         "nan", "inf", "soon", [1.0]],
        ids=["zero", "negative", "nan", "inf", "-inf",
             "nan-str", "inf-str", "word", "list"],
    )
    def test_deadline_must_be_finite_and_positive(self, deadline_s):
        with pytest.raises(ProtocolError, match="deadline_s"):
            ServiceRequest(kind="sleep", deadline_s=deadline_s)

    def test_nan_deadline_off_the_wire_is_refused(self):
        # ``json.loads`` parses a bare NaN, and ``NaN <= 0`` is false; the
        # request must still fail validation before the daemon admits it.
        message = decode_message(b'{"kind": "render", "deadline_s": NaN}\n')
        assert math.isnan(message["deadline_s"])
        with pytest.raises(ProtocolError, match="deadline_s"):
            ServiceRequest.from_wire(message)

    def test_finite_positive_deadline_round_trips(self):
        request = ServiceRequest(kind="sleep", deadline_s=1e-3)
        assert ServiceRequest.from_wire(request.to_wire()).deadline_s == 1e-3


class TestResponse:
    def test_success_round_trip(self):
        response = ServiceResponse(ok=True, result={"psnr": 31.5}, id="r9")
        response.meta["attempts"] = 1
        clone = ServiceResponse.from_wire(
            decode_message(encode_message(response.to_wire()))
        )
        assert clone.ok and clone.result == {"psnr": 31.5}
        assert clone.meta["attempts"] == 1

    def test_reject_carries_retry_after(self):
        response = error_response("queue_full", "full", "r1", retry_after_s=0.25)
        wire = response.to_wire()
        assert wire["code"] == "queue_full"
        assert wire["retry_after_s"] == pytest.approx(0.25)
        clone = ServiceResponse.from_wire(json.loads(encode_message(wire)))
        assert not clone.ok
        assert clone.retry_after_s == pytest.approx(0.25)
