"""Resilience primitives for the serving stack.

Four small, composable pieces that the front ends, the micro-batcher and
the engine seam share:

* :class:`Deadline` — an absolute wall-clock budget attached to a query
  (``deadline_ms`` on the wire).  Enforced at micro-batch admission, at
  engine dispatch, and at reply write; carried by
  :class:`~repro.service.api.RankingQuery`.
* :class:`CircuitBreaker` — trips after N *consecutive* failures, stays
  open for a cooldown, then lets exactly one half-open probe through to
  test recovery.  Thread-safe, injectable clock.
* :class:`ResilientBackend` — wraps an :class:`~repro.core.backends.
  ArrayBackend` behind a breaker: kernel failures (real or injected) count
  against the breaker and the call degrades to the **NumPy reference**,
  so a degraded reply equals a healthy one within the compiled kernel's
  declared tolerance (byte-identical when the primary is NumPy).  The
  fault injector's ``backend_error`` / ``latency`` seams live
  here.
* :class:`RetryPolicy` — exponential backoff with full jitter for the
  clients (:class:`~repro.service.server.InProcessClient`,
  :class:`~repro.service.server.TCPClient`).  Safe because every ranking
  request is idempotent by content fingerprint.

Examples::

    >>> ticks = iter([0.0, 1.0, 2.5])
    >>> deadline = Deadline.after_ms(2000, clock=lambda: next(ticks))
    >>> round(deadline.remaining(), 3)                  # t=1.0 of a 2s budget
    1.0
    >>> deadline.expired                                # t=2.5: budget elapsed
    True
    >>> breaker = CircuitBreaker(failure_threshold=2, cooldown=5.0, clock=lambda: 0.0)
    >>> breaker.record_failure(); breaker.record_failure()
    >>> breaker.state
    'open'
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Iterator

import numpy as np

from repro.core.backends import ArrayBackend, NumpyBackend, resolve_backend
from repro.service.faults import FaultInjector, InjectedFault
from repro.service.observability import MetricsRegistry

__all__ = [
    "CircuitBreaker",
    "Deadline",
    "ResilientBackend",
    "RetryPolicy",
]


# ------------------------------------------------------------------ deadlines
class Deadline:
    """An absolute point in (monotonic) time a reply must beat.

    Constructed from a relative budget at request admission
    (:meth:`after_ms`); every later layer asks the same object how much
    budget remains, so clock skew between layers cannot creep in.

    Examples::

        >>> deadline = Deadline.after_ms(500, clock=lambda: 100.0)
        >>> round(deadline.remaining_ms(), 3)
        500.0
        >>> Deadline(expires_at=0.0, clock=lambda: 1.0).expired
        True
    """

    __slots__ = ("expires_at", "_clock")

    def __init__(self, expires_at: float, clock: Callable[[], float] = time.monotonic) -> None:
        self.expires_at = float(expires_at)
        self._clock = clock

    @classmethod
    def after_ms(
        cls, budget_ms: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """Deadline *budget_ms* milliseconds from now."""
        if budget_ms <= 0:
            raise ValueError("deadline_ms must be > 0")
        return cls(clock() + budget_ms / 1000.0, clock)

    def remaining(self) -> float:
        """Seconds left before expiry (negative once past it)."""
        return self.expires_at - self._clock()

    def remaining_ms(self) -> float:
        """Milliseconds left before expiry (negative once past it)."""
        return self.remaining() * 1000.0

    @property
    def expired(self) -> bool:
        """True once the budget has fully elapsed."""
        return self.remaining() <= 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining_ms={self.remaining_ms():.1f})"


# ------------------------------------------------------------ circuit breaker
class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open probing.

    States (:attr:`state`):

    * ``closed`` — healthy; every call is allowed.  *failure_threshold*
      consecutive failures trip the breaker.
    * ``open`` — tripped; calls are refused (callers degrade to their
      fallback) until *cooldown* seconds have passed.
    * ``half-open`` — after the cooldown, exactly **one** probe call is
      allowed through.  Its success closes the breaker; its failure
      re-opens it for another cooldown.

    Thread-safe.  :meth:`allow` performs the open→half-open transition, so
    callers only ever ask "may I?" and report the outcome.

    Examples::

        >>> now = [0.0]
        >>> breaker = CircuitBreaker(failure_threshold=2, cooldown=10.0, clock=lambda: now[0])
        >>> breaker.allow()
        True
        >>> breaker.record_failure(); breaker.record_failure()   # trips
        >>> breaker.allow()                                      # open: refused
        False
        >>> now[0] = 10.0
        >>> breaker.allow()                                      # half-open probe
        True
        >>> breaker.record_success()
        >>> breaker.state
        'closed'
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown <= 0:
            raise ValueError("cooldown must be > 0")
        self.failure_threshold = int(failure_threshold)
        self.cooldown = float(cooldown)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        #: Lifetime counters (monitoring / the ``health`` verb).
        self.failures = 0
        self.successes = 0
        self.trips = 0
        self.recoveries = 0

    @property
    def state(self) -> str:
        """Current state name (``closed`` / ``open`` / ``half-open``)."""
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May the protected call proceed right now?

        In the open state this performs the cooldown check and, once it
        has elapsed, grants a single half-open probe.
        """
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if self._clock() - self._opened_at < self.cooldown:
                    return False
                self._state = self.HALF_OPEN
                self._probe_inflight = True
                return True
            # half-open: one probe at a time
            if self._probe_inflight:
                return False
            self._probe_inflight = True
            return True

    def record_success(self) -> None:
        """Report a successful protected call."""
        with self._lock:
            self.successes += 1
            self._consecutive_failures = 0
            if self._state == self.HALF_OPEN:
                self.recoveries += 1
            self._state = self.CLOSED
            self._probe_inflight = False

    def record_failure(self) -> None:
        """Report a failed protected call (trips after the threshold)."""
        with self._lock:
            self.failures += 1
            self._consecutive_failures += 1
            if self._state == self.HALF_OPEN:
                self._state = self.OPEN
                self._opened_at = self._clock()
                self.trips += 1
            elif (
                self._state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = self.OPEN
                self._opened_at = self._clock()
                self.trips += 1
            self._probe_inflight = False

    def snapshot(self) -> dict:
        """Counters and state as one JSON-serialisable dict."""
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failures": self.failures,
                "successes": self.successes,
                "trips": self.trips,
                "recoveries": self.recoveries,
                "failure_threshold": self.failure_threshold,
                "cooldown": self.cooldown,
            }


# ------------------------------------------------------------ backend wrapper
class ResilientBackend:
    """An :class:`~repro.core.backends.ArrayBackend` behind a circuit breaker.

    Wraps a *primary* backend (the configured one, the compiled kernel by
    default) and degrades to a *fallback* (default: a clean
    :class:`~repro.core.backends.NumpyBackend`, the reference) whenever
    the primary fails or the breaker refuses the call.  The fallback is a
    second implementation, so one fault in the compiled kernel cannot take
    down both; its answers equal the primary's within the declared
    tolerance (:data:`~repro.core.backends.COMPILED_RTOL`), and bit for
    bit when the primary is NumPy.  The fault injector's ``backend_error``
    and ``latency`` seams fire on the primary path only, so the degraded
    path stays clean.

    Implements the :class:`~repro.core.backends.ArrayBackend` protocol, so
    an instance slots anywhere a backend name would
    (``MethodParams.backend``, ``standard_methods(..., backend=...)``).

    Examples::

        >>> backend = ResilientBackend()
        >>> backend.name
        'resilient:compiled'
        >>> backend.breaker.state
        'closed'
    """

    def __init__(
        self,
        primary: "str | ArrayBackend | None" = None,
        fallback: ArrayBackend | None = None,
        breaker: CircuitBreaker | None = None,
        injector: FaultInjector | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.primary = resolve_backend(primary)
        self.fallback = fallback if fallback is not None else NumpyBackend()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.injector = injector
        self.metrics = metrics
        self.name = f"resilient:{self.primary.name}"
        #: Calls answered by the primary / degraded to the fallback.
        self.primary_calls = 0
        self.fallback_calls = 0

    def _record(self, started: float, primary: bool) -> None:
        if self.metrics is None:
            return
        self.metrics.counter(
            "backend.primary_calls" if primary else "backend.fallback_calls"
        ).inc()
        self.metrics.histogram("backend.kernel_ms").observe(
            (time.monotonic() - started) * 1000.0
        )

    def _kernel(self, kernel: str, *args):
        started = time.monotonic()
        if self.breaker.allow():
            try:
                if self.injector is not None:
                    self.injector.inject_latency()
                    if self.injector.fires("backend_error"):
                        raise InjectedFault(f"injected backend fault in {kernel}")
                result = getattr(self.primary, kernel)(*args)
            except Exception:
                self.breaker.record_failure()
            else:
                self.breaker.record_success()
                self.primary_calls += 1
                self._record(started, primary=True)
                return result
        self.fallback_calls += 1
        result = getattr(self.fallback, kernel)(*args)
        self._record(started, primary=False)
        return result

    def mlp_sgd(self, *args) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """Stacked-network SGD kernel, degraded to the reference on failure.

        The initial weight tensors are consumed by the primary attempt, so
        copies are handed to each backend — a failed primary attempt must
        not corrupt the inputs the fallback then trains on.
        """
        started = time.monotonic()
        x_samples, y_samples, w_hidden, b_hidden, w_output, b_output, *rest = args
        weights = (w_hidden, b_hidden, w_output, b_output)
        protected = tuple(np.copy(w) for w in weights)
        if self.breaker.allow():
            try:
                if self.injector is not None:
                    self.injector.inject_latency()
                    if self.injector.fires("backend_error"):
                        raise InjectedFault("injected backend fault in mlp_sgd")
                result = self.primary.mlp_sgd(x_samples, y_samples, *protected, *rest)
            except Exception:
                self.breaker.record_failure()
            else:
                self.breaker.record_success()
                self.primary_calls += 1
                self._record(started, primary=True)
                return result
        self.fallback_calls += 1
        result = self.fallback.mlp_sgd(x_samples, y_samples, *weights, *rest)
        self._record(started, primary=False)
        return result

    def nnt_downdated_statistics(self, pred, target, rows):
        """Leave-one-out statistics kernel, degraded to the reference."""
        return self._kernel("nnt_downdated_statistics", pred, target, rows)

    def snapshot(self) -> dict:
        """Breaker state + call routing counters (the ``health`` verb)."""
        return {
            "primary": self.primary.name,
            "fallback": self.fallback.name,
            "primary_calls": self.primary_calls,
            "fallback_calls": self.fallback_calls,
            "breaker": self.breaker.snapshot(),
        }


# --------------------------------------------------------------------- retry
class RetryPolicy:
    """Exponential backoff with full jitter (deterministic under a seed).

    Attempt *i* (0-based) sleeps ``uniform(0, min(max_delay, base_delay *
    2**i))`` before retrying — the classic full-jitter schedule that
    decorrelates a thundering herd of retrying clients.  Retrying is safe
    for every ranking request because requests are idempotent by content
    fingerprint: asking again can only re-read (or re-train) the same
    cached state.

    Examples::

        >>> policy = RetryPolicy(max_attempts=3, base_delay=1.0, seed=7)
        >>> delays = list(policy.delays())
        >>> len(delays)                       # one sleep between attempts
        2
        >>> all(0.0 <= d <= 2.0 for d in delays)
        True
        >>> list(policy.delays()) == delays   # seeded: reproducible
        True
    """

    def __init__(
        self,
        max_attempts: int = 4,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        seed: int | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be >= 0")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.seed = seed

    def delays(self) -> Iterator[float]:
        """The backoff sleeps between attempts (``max_attempts - 1`` values)."""
        rng = random.Random(self.seed) if self.seed is not None else random.Random()
        for attempt in range(self.max_attempts - 1):
            ceiling = min(self.max_delay, self.base_delay * (2**attempt))
            yield rng.uniform(0.0, ceiling)
