"""Retry, backoff, and circuit-breaking policies for the chaos layer.

:class:`RetryPolicy` is how call sites survive the faults that
:mod:`repro.faults.plan` injects: bounded attempts, exponential backoff
with deterministic jitter, and an overall timeout — all measured on the
*simulated* clock, never wall time, so chaos runs stay reproducible and
fast.  :class:`CircuitBreaker` is the phased-deployment guard from the
paper's section 5.3.2: once the failure ratio of a phase exceeds the
threshold, the breaker opens and the rest of the rollout is abandoned to
contain the blast radius.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any, TypeVar

__all__ = ["CircuitBreaker", "GiveUp", "RetryPolicy"]

T = TypeVar("T")


class GiveUp(Exception):
    """Raised by :meth:`RetryPolicy.execute` when every attempt failed.

    The last underlying exception is chained as ``__cause__`` (and kept
    on ``.last_error``) so callers can re-raise or translate it.
    """

    def __init__(self, message: str, last_error: BaseException | None = None):
        super().__init__(message)
        self.last_error = last_error


@dataclass(frozen=True)
class RetryPolicy:
    """How a call site retries transient failures.

    * ``max_attempts`` — total tries, including the first (>= 1);
    * ``base_delay``/``multiplier``/``max_delay`` — exponential backoff:
      attempt *n* (0-based retry index) sleeps
      ``min(base_delay * multiplier**n, max_delay)`` simulated seconds;
    * ``jitter`` — fraction of each delay randomized (*equal/bounded
      jitter* over ``[1-jitter, 1+jitter]`` — not AWS-style "full
      jitter", which draws from ``[0, delay]``), drawn from a per-execute
      RNG seeded with ``jitter_seed`` so schedules are deterministic;
      must lie in ``[0, 1]`` so the band can never go negative;
    * ``timeout`` — give up once the *next* backoff would push total
      simulated elapsed time past this bound (None = unbounded).
    """

    max_attempts: int = 3
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.0
    timeout: float | None = None
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            # jitter > 1 would make the [1-jitter, 1+jitter] band dip
            # below zero and produce negative backoff delays.
            raise ValueError("jitter must be in [0, 1]")

    def backoff(self, retry_index: int, rng: random.Random | None = None) -> float:
        """The delay before retry ``retry_index`` (0-based)."""
        delay = min(self.base_delay * self.multiplier**retry_index, self.max_delay)
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay

    def delays(self) -> Iterator[float]:
        """The full deterministic backoff schedule (one per retry)."""
        rng = random.Random(self.jitter_seed)
        for index in range(self.max_attempts - 1):
            yield self.backoff(index, rng)

    def execute(
        self,
        fn: Callable[[], T],
        *,
        retryable: tuple[type[BaseException], ...] = (Exception,),
        sleep: Callable[[float], None] | None = None,
        clock: Any | None = None,
        on_retry: Callable[[int, BaseException], None] | None = None,
    ) -> T:
        """Call ``fn`` under this policy.

        ``sleep`` advances simulated time between attempts (e.g. a
        scheduler's ``run_for`` or a clock's ``advance``); ``clock``
        (anything with ``.now``) enforces ``timeout``.  ``on_retry`` is
        invoked before each backoff with (retry_index, error) — the hook
        used to bump ``rpc.retry``-style counters.  Raises
        :class:`GiveUp` after the final failure.
        """
        delays = self.delays()  # a generator: seeds its RNG at the first backoff
        started = clock.now if clock is not None else None
        last: BaseException | None = None
        for attempt in range(self.max_attempts):
            try:
                return fn()
            except retryable as exc:
                last = exc
                if attempt == self.max_attempts - 1:
                    break
                delay = next(delays)
                if (
                    self.timeout is not None
                    and started is not None
                    and clock.now - started + delay > self.timeout
                ):
                    raise GiveUp(
                        f"timeout after {attempt + 1} attempt(s) "
                        f"({self.timeout:.1f}s budget): {exc}",
                        last_error=exc,
                    ) from exc
                if on_retry is not None:
                    on_retry(attempt, exc)
                if sleep is not None:
                    sleep(delay)
        raise GiveUp(
            f"gave up after {self.max_attempts} attempt(s): {last}", last_error=last
        ) from last


class CircuitBreaker:
    """Opens when the observed failure ratio crosses a threshold.

    Mirrors the paper's phased-deployment containment: each push records
    a success or failure; once at least ``min_calls`` outcomes are in and
    the failure ratio exceeds ``max_failure_ratio``, the breaker opens
    and the caller aborts the remaining work.  When ``total`` is given
    (e.g. the planned size of a deployment phase) the ratio denominator
    is that plan, so one early failure in a large phase does not trip it.
    """

    def __init__(
        self,
        max_failure_ratio: float,
        *,
        total: int | None = None,
        min_calls: int = 1,
    ):
        if not 0.0 <= max_failure_ratio < 1.0:
            raise ValueError("max_failure_ratio must be in [0, 1)")
        if min_calls < 1:
            raise ValueError("min_calls must be >= 1")
        if total is not None and total < 1:
            raise ValueError("total must be >= 1 (or None)")
        self.max_failure_ratio = max_failure_ratio
        self.min_calls = min_calls
        self.total = total
        self.calls = 0
        self.failures = 0

    def record_success(self) -> None:
        self.calls += 1

    def record_failure(self) -> None:
        self.calls += 1
        self.failures += 1

    @property
    def failure_ratio(self) -> float:
        denominator = self.total if self.total is not None else self.calls
        return self.failures / denominator if denominator else 0.0

    @property
    def open(self) -> bool:
        return (
            self.calls >= self.min_calls
            and self.failure_ratio > self.max_failure_ratio
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else "closed"
        return (
            f"<CircuitBreaker {state} {self.failures}/{self.calls} "
            f"(limit {self.max_failure_ratio:.0%})>"
        )
