"""Client-side backoff policy tests."""

import random

from repro.service.client import (
    BACKOFF_JITTER,
    DEFAULT_BACKOFF_S,
    backoff_delay,
)


class TestBackoffDelay:
    def test_zero_hint_is_honored_not_defaulted(self):
        # retry_after_s=0.0 means "retry immediately"; it used to be
        # treated as missing (falsy) and silently replaced by 0.1s.
        rng = random.Random(7)
        delays = [backoff_delay(0.0, rng=rng) for _ in range(64)]
        assert all(0.0 <= delay <= 0.01 for delay in delays)

    def test_missing_hint_falls_back_to_default(self):
        rng = random.Random(7)
        delay = backoff_delay(None, rng=rng)
        ceiling = DEFAULT_BACKOFF_S * (1 + BACKOFF_JITTER) + 0.01
        assert DEFAULT_BACKOFF_S <= delay <= ceiling

    def test_jitter_desynchronizes_lockstep_clients(self):
        rng = random.Random(42)
        delays = {backoff_delay(1.0, rng=rng) for _ in range(32)}
        assert len(delays) > 16  # not one synchronized sleep
        assert all(1.0 <= delay <= 1.0 * (1 + BACKOFF_JITTER) + 0.01 for delay in delays)

    def test_delay_never_exceeds_the_cap(self):
        rng = random.Random(3)
        for hint in (0.0, 0.4, 0.5, 60.0, None):
            assert backoff_delay(hint, max_backoff_s=0.5, rng=rng) <= 0.5

    def test_negative_hint_is_clamped_to_zero(self):
        assert 0.0 <= backoff_delay(-3.0, rng=random.Random(1)) <= 0.01
