"""Fair-queue unit tests: admission bound, WFQ order, retry re-admission."""

import pytest

from repro.service.queueing import FairQueue, QueueFull


class TestAdmission:
    def test_bounded_push_raises_queue_full(self):
        queue = FairQueue(max_depth=2)
        queue.push("a", 1)
        queue.push("a", 2)
        with pytest.raises(QueueFull) as excinfo:
            queue.push("a", 3)
        assert excinfo.value.depth == 2
        assert queue.stats()["rejected"] == 1
        assert len(queue) == 2  # the reject admitted nothing

    def test_front_push_bypasses_the_bound(self):
        queue = FairQueue(max_depth=1)
        queue.push("a", "queued")
        queue.push("a", "retry", front=True)  # re-admission is exempt
        assert len(queue) == 2
        assert queue.pop() == "retry"  # and runs before the backlog
        assert queue.pop() == "queued"

    def test_counters(self):
        queue = FairQueue(max_depth=4)
        for i in range(3):
            queue.push("a", i)
        queue.pop()
        stats = queue.stats()
        assert stats["pushed"] == 3
        assert stats["popped"] == 1
        assert stats["peak_depth"] == 3
        assert stats["per_client_depth"] == {"a": 2}


class TestFairness:
    def test_burst_does_not_starve_light_client(self):
        queue = FairQueue(max_depth=16)
        for i in range(4):
            queue.push("hog", f"hog{i}")
        queue.push("mouse", "mouse0")
        queue.push("mouse", "mouse1")
        order = queue.drain()
        # Virtual-time WFQ interleaves the late mouse ahead of most of the
        # earlier burst instead of running it FIFO.
        assert order == ["hog0", "mouse0", "hog1", "mouse1", "hog2", "hog3"]

    def test_clients_share_equally(self):
        queue = FairQueue(max_depth=16)
        for i in range(3):
            queue.push("first", f"first{i}")
        for i in range(3):
            queue.push("second", f"second{i}")
        # Every client has the same weight: backlogs of equal cost
        # alternate one for one, whoever queued first.
        assert queue.drain() == [
            "first0", "second0", "first1", "second1", "first2", "second2"
        ]

    def test_cost_charges_the_client_share(self):
        queue = FairQueue(max_depth=16)
        queue.push("sweeper", "big", cost=4.0)
        queue.push("sweeper", "after-big")
        queue.push("pinger", "ping")
        order = queue.drain()
        # The expensive sweep ate sweeper's share; pinger overtakes
        # everything whose finish tag the big request pushed out.
        assert order == ["ping", "big", "after-big"]

    def test_deterministic_for_fixed_push_sequence(self):
        def build():
            queue = FairQueue(max_depth=32)
            for i in range(3):
                queue.push("a", ("a", i))
                queue.push("b", ("b", i))
            queue.push("c", ("c", 0), cost=2.0)
            return queue.drain()

        assert build() == build()

    def test_idle_client_rejoins_at_current_virtual_time(self):
        queue = FairQueue(max_depth=16)
        for i in range(8):
            queue.push("busy", i)
        for _ in range(8):
            queue.pop()
        # "busy" accumulated finish tags up to 8; a fresh push from it
        # starts at the virtual clock, not at zero, so it cannot be
        # pre-empted by its own history — and a new client at the same
        # clock alternates fairly with it.
        queue.push("busy", "b0")
        queue.push("new", "n0")
        queue.push("busy", "b1")
        queue.push("new", "n1")
        assert queue.drain() == ["b0", "n0", "b1", "n1"]
