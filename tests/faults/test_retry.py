"""RetryPolicy and CircuitBreaker semantics on the simulated clock."""

from __future__ import annotations

import random

import pytest

from repro.faults import CircuitBreaker, GiveUp, RetryPolicy
from repro.simulation.clock import Clock

pytestmark = pytest.mark.faults


class Flaky:
    """Fails the first ``failures`` calls, then succeeds."""

    def __init__(self, failures: int, error: type[Exception] = RuntimeError):
        self.failures = failures
        self.error = error
        self.calls = 0

    def __call__(self) -> str:
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error(f"boom {self.calls}")
        return "ok"


class TestRetryPolicy:
    def test_first_try_success_needs_no_sleep(self):
        policy = RetryPolicy(max_attempts=3)
        slept: list[float] = []
        assert policy.execute(lambda: "ok", sleep=slept.append) == "ok"
        assert slept == []

    def test_recovers_transient_failures_with_backoff(self):
        clock = Clock()
        policy = RetryPolicy(max_attempts=4, base_delay=1.0, multiplier=2.0)
        flaky = Flaky(2)
        result = policy.execute(flaky, sleep=clock.advance, clock=clock)
        assert result == "ok"
        assert flaky.calls == 3
        assert clock.now == pytest.approx(1.0 + 2.0)  # exponential schedule

    def test_gives_up_after_max_attempts(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        flaky = Flaky(10)
        with pytest.raises(GiveUp) as excinfo:
            policy.execute(flaky)
        assert flaky.calls == 2
        assert isinstance(excinfo.value.last_error, RuntimeError)

    def test_non_retryable_errors_propagate_immediately(self):
        policy = RetryPolicy(max_attempts=5)
        flaky = Flaky(3, error=KeyError)
        with pytest.raises(KeyError):
            policy.execute(flaky, retryable=(ValueError,))
        assert flaky.calls == 1

    def test_timeout_bounds_total_simulated_elapsed(self):
        clock = Clock()
        policy = RetryPolicy(
            max_attempts=10, base_delay=4.0, multiplier=1.0, timeout=10.0
        )
        flaky = Flaky(100)
        with pytest.raises(GiveUp, match="timeout"):
            policy.execute(flaky, sleep=clock.advance, clock=clock)
        # 4s + 4s slept; a third retry would cross the 10s budget.
        assert flaky.calls == 3
        assert clock.now == pytest.approx(8.0)

    def test_backoff_capped_by_max_delay(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=1.0, multiplier=10.0, max_delay=5.0
        )
        assert list(policy.delays()) == [1.0, 5.0, 5.0, 5.0, 5.0]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=5, base_delay=1.0, multiplier=1.0, jitter=0.5)
        first = list(policy.delays())
        assert first == list(policy.delays())  # same jitter_seed, same schedule
        assert all(0.5 <= d <= 1.5 for d in first)
        assert len(set(first)) > 1  # actually jittered
        shifted = RetryPolicy(
            max_attempts=5, base_delay=1.0, multiplier=1.0, jitter=0.5, jitter_seed=9
        )
        assert list(shifted.delays()) != first

    def test_execute_sleeps_exactly_the_jittered_schedule(self):
        # The RNG is seeded at the first backoff, not per call: what the
        # sleeps are must not move, or every seeded chaos schedule does.
        policy = RetryPolicy(
            max_attempts=5, base_delay=1.0, multiplier=2.0, jitter=0.5, jitter_seed=7
        )
        rng = random.Random(7)
        schedule = [
            min(1.0 * 2.0**n, 30.0) * (1.0 + 0.5 * (2.0 * rng.random() - 1.0))
            for n in range(4)
        ]
        assert list(policy.delays()) == schedule
        for failures in (0, 2, 4, 9):  # each execute starts the schedule over
            slept: list[float] = []
            try:
                policy.execute(Flaky(failures), sleep=slept.append)
            except GiveUp:
                assert failures > 4
            assert slept == schedule[:failures]

    def test_on_retry_hook_sees_each_failure(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        seen: list[int] = []
        policy.execute(Flaky(2), on_retry=lambda i, exc: seen.append(i))
        assert seen == [0, 1]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match=r"jitter must be in \[0, 1\]"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)

    def test_full_band_jitter_never_goes_negative(self):
        # jitter=1.0 is the widest legal band [0, 2*delay]; every delay
        # in the schedule must stay non-negative on the simulated clock.
        policy = RetryPolicy(max_attempts=8, base_delay=1.0, multiplier=1.0, jitter=1.0)
        delays = list(policy.delays())
        assert all(0.0 <= d <= 2.0 for d in delays)


class TestCircuitBreaker:
    def test_opens_past_threshold(self):
        breaker = CircuitBreaker(0.5)
        breaker.record_success()
        breaker.record_failure()
        assert not breaker.open  # 1/2 is not > 0.5
        breaker.record_failure()
        assert breaker.open  # 2/3

    def test_planned_total_denominator(self):
        breaker = CircuitBreaker(0.25, total=8)
        breaker.record_failure()
        assert not breaker.open  # 1/8 of the plan
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.open  # 3/8 > 25%

    def test_min_calls_suppresses_early_open(self):
        breaker = CircuitBreaker(0.1, min_calls=5)
        for _ in range(4):
            breaker.record_failure()
        assert not breaker.open
        breaker.record_failure()
        assert breaker.open

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(1.0)
        with pytest.raises(ValueError):
            CircuitBreaker(0.5, total=0)
        with pytest.raises(ValueError):
            CircuitBreaker(0.5, min_calls=0)
