"""Journal unit tests: persistence, discard, corrupt-entry tolerance."""

import json

import pytest

from repro.service.protocol import ServiceRequest
from repro.service.supervisor import Journal


class TestJournal:
    def test_record_pending_discard(self, tmp_path):
        journal = Journal(tmp_path / "journal")
        first = ServiceRequest(kind="sleep", payload={"seconds": 0}, id="a1")
        second = ServiceRequest(kind="render", payload={"scene": "lego"}, id="a2")
        journal.record(second, accepted_at=200.0)
        journal.record(first, accepted_at=100.0)
        assert len(journal) == 2
        pending = journal.pending()
        assert [entry["id"] for entry in pending] == ["a1", "a2"]  # oldest first
        assert pending[1]["payload"] == {"scene": "lego"}
        journal.discard("a1")
        assert [entry["id"] for entry in journal.pending()] == ["a2"]
        journal.discard("a1")  # idempotent
        journal.discard("a2")
        assert len(journal) == 0

    def test_entry_keeps_the_deadline(self, tmp_path):
        journal = Journal(tmp_path / "journal")
        request = ServiceRequest(kind="sleep", id="d", deadline_s=0.5)
        journal.record(request, accepted_at=7.0)
        (entry,) = journal.pending()
        assert (entry["deadline_s"], entry["accepted_at"]) == (0.5, 7.0)
        assert ServiceRequest.from_wire(entry).deadline_s == 0.5

    def test_entry_without_a_deadline_resumes_without_one(self, tmp_path):
        journal = Journal(tmp_path / "journal")
        journal.record(ServiceRequest(kind="sleep", id="n"), accepted_at=3.0)
        (entry,) = journal.pending()
        assert "deadline_s" not in entry
        assert ServiceRequest.from_wire(entry).deadline_s is None

    @pytest.mark.parametrize(
        "deadline_s", [0, -1.0, "soon", float("nan"), float("inf")]
    )
    def test_entry_with_an_invalid_deadline_is_moved_aside(self, tmp_path, deadline_s):
        root = tmp_path / "journal"
        journal = Journal(root)
        entry = {"kind": "sleep", "id": "bad", "accepted_at": 1.0}
        entry["deadline_s"] = deadline_s
        (root / "req-bad.json").write_text(json.dumps(entry))
        assert journal.pending() == []
        assert (root / "req-bad.json.corrupt").exists()

    @pytest.mark.parametrize("kind", ["point", "experiment"])
    def test_entry_of_a_deleted_kind_is_moved_aside(self, tmp_path, kind):
        root = tmp_path / "journal"
        journal = Journal(root)
        entry = {"kind": kind, "id": "old", "accepted_at": 1.0, "payload": {}}
        (root / "req-old.json").write_text(json.dumps(entry))
        assert journal.pending() == []
        assert (root / "req-old.json.corrupt").exists()

    def test_corrupt_entry_moved_aside(self, tmp_path):
        root = tmp_path / "journal"
        journal = Journal(root)
        journal.record(ServiceRequest(kind="sleep", id="ok"), accepted_at=1.0)
        (root / "req-bad.json").write_text("{truncated")
        (root / "req-shape.json").write_text(json.dumps({"no": "kind"}))
        (root / "req-stamp.json").write_text(json.dumps({"kind": "sleep", "id": "s"}))
        pending = journal.pending()
        assert [entry["id"] for entry in pending] == ["ok"]
        assert (root / "req-bad.json.corrupt").exists()
        assert (root / "req-shape.json.corrupt").exists()
        assert (root / "req-stamp.json.corrupt").exists()
        assert len(journal) == 1  # corrupt files no longer counted

    def test_disabled_journal_is_inert(self):
        journal = Journal(None)
        assert not journal.enabled
        journal.record(ServiceRequest(kind="sleep", id="x"), accepted_at=0.0)
        journal.discard("x")
        assert journal.pending() == []
        assert len(journal) == 0
