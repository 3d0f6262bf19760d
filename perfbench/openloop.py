"""Open-loop load driver owned by the benchmark.

Arrivals follow a seeded schedule fixed before the first request is sent.
Each request is timed from the moment it was *due*, not from the moment the
driver managed to write it, so a stall in the server (or in this driver)
shows up as latency of every request that was due during the stall.  How
late the driver itself ran is reported separately as ``lateness``.

The driver never resends.  A connection that closes marks every request it
still owed an answer as failed, and every request not yet written on it as
unsent.  That keeps the instrument independent of any client retry logic in
the program under test.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

#: Error codes the driver assigns itself (the server's codes pass through).
DROPPED = "DROPPED"          # connection closed while the request was outstanding
UNSENT = "UNSENT"            # connection was gone before the request was due
UNANSWERED = "UNANSWERED"    # no reply before the phase timeout
MISMATCH = "MISMATCH"        # reply arrived but failed the output check


@dataclass
class Request:
    """One scheduled request: when it is due, what it says, where it goes."""

    due: float                       # seconds after the phase start
    payload: dict[str, Any]
    kind: str = "warm"               # latency class the request is reported under
    arrival: int = 0                 # arrivals of one burst share this number


@dataclass
class Outcome:
    """What happened to one request, in loop-clock seconds."""

    due: float
    sent: float | None = None
    done: float | None = None
    reply: dict[str, Any] | None = None
    code: str | None = None          # None means answered ok and checked ok

    @property
    def ok(self) -> bool:
        return self.code is None

    @property
    def attempted(self) -> bool:
        """False only for requests a closed loop stopped before sending."""
        return self.sent is not None or self.code is not None

    @property
    def latency_ms(self) -> float:
        """Due time to reply time; only meaningful for answered requests."""
        return (self.done - self.due) * 1000.0

    @property
    def lateness_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, *q* in [0, 1].

    The benchmark keeps its own rather than importing ``repro.loadgen``'s,
    so the measuring instrument does not change when the program does.
    """
    if not samples:
        raise ValueError("percentile of an empty sample set")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (position - lower) * (ordered[upper] - ordered[lower])


def cold_sets(
    rng: random.Random,
    machines: Sequence[str],
    count: int,
    sizes: tuple[int, int],
    exclude: Sequence[Sequence[str]] = (),
) -> list[tuple[str, ...]]:
    """*count* distinct sorted predictive sets, sizes cycling through *sizes*.

    Every size in the range occurs equally often (in seeded order), so the
    training work of a run does not depend on the seed.
    """
    low, high = sizes
    cycle = list(range(low, high + 1))
    order = [cycle[i % len(cycle)] for i in range(count)]
    rng.shuffle(order)
    seen = {frozenset(s) for s in exclude}
    out: list[tuple[str, ...]] = []
    for size in order:
        while True:
            chosen = rng.sample(list(machines), size)
            if frozenset(chosen) not in seen:
                break
        seen.add(frozenset(chosen))
        out.append(tuple(sorted(chosen)))
    return out


def fixed_rate(
    rate: float,
    duration: float,
    make_arrival: Callable[[int], list[dict[str, Any]]],
    kind: str,
    offset: float = 0.0,
) -> list[Request]:
    """Arrival *i* is due at ``offset + i / rate``; one arrival may be a burst."""
    requests = []
    for i in range(max(1, round(rate * duration))):
        due = offset + i / rate
        for payload in make_arrival(i):
            requests.append(Request(due=due, payload=payload, kind=kind, arrival=i))
    return requests


def merge(*streams: Sequence[Request]) -> list[Request]:
    """Interleave streams by due time and renumber arrivals uniquely."""
    tagged = []
    for number, stream in enumerate(streams):
        for request in stream:
            tagged.append((request.due, number, request.arrival, request))
    tagged.sort(key=lambda t: (t[0], t[1], t[2]))
    merged, last, arrival = [], None, -1
    for _, number, old, request in tagged:
        if (number, old) != last:
            arrival += 1
            last = (number, old)
        request.arrival = arrival
        merged.append(request)
    return merged


@dataclass
class _Connection:
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    alive: bool = True


@dataclass
class OpenLoopClient:
    """Drives phases of scheduled requests over a fixed set of connections.

    Arrivals are spread round-robin over the connections; the requests of
    one burst share a connection, so they are pipelined as one client
    would send them.  *check* decides, per answered request, whether its
    reply is correct; a reply that fails the check counts as failed.
    """

    host: str
    port: int
    connections: int = 2
    check: Callable[[Request, dict[str, Any]], bool] | None = None
    _conns: list[_Connection] = field(default_factory=list)

    async def connect(self) -> None:
        for _ in range(self.connections):
            reader, writer = await asyncio.open_connection(
                self.host, self.port, limit=1 << 22
            )
            self._conns.append(_Connection(reader, writer))

    async def close(self) -> None:
        for conn in self._conns:
            conn.writer.close()
            try:
                await conn.writer.wait_closed()
            except (OSError, ConnectionError):
                pass
        self._conns.clear()

    async def run_phase(
        self, requests: Sequence[Request], timeout: float = 30.0
    ) -> tuple[list[Outcome], float]:
        """Send *requests* on schedule and wait for every answer.

        Returns one :class:`Outcome` per request (same order) and the
        loop-clock time the phase started at.  *timeout* bounds the wait
        after the last request was due.
        """
        return await self._run(requests, timeout)

    async def run_closed(
        self, requests: Sequence[Request], depth: int, seconds: float, timeout: float = 30.0
    ) -> tuple[list[Outcome], float]:
        """Keep *depth* requests outstanding per connection for *seconds*.

        Each request is due the moment a reply frees its slot, so the
        server never sees more than ``depth`` requests per connection.
        Requests still unsent after *seconds* are not attempted (see
        :attr:`Outcome.attempted`).
        """
        return await self._run(requests, timeout, depth=depth, seconds=seconds)

    async def _run(
        self, requests: Sequence[Request], timeout: float,
        depth: int | None = None, seconds: float = 0.0,
    ) -> tuple[list[Outcome], float]:
        loop = asyncio.get_running_loop()
        lines = [(json.dumps(r.payload) + "\n").encode() for r in requests]
        start = loop.time() + 0.02
        outcomes = [Outcome(due=start + r.due) for r in requests]
        shares: list[list[int]] = [[] for _ in self._conns]
        for index, request in enumerate(requests):
            shares[request.arrival % len(shares)].append(index)
        if depth is None:
            last_due = start + (requests[-1].due if requests else 0.0)
        else:
            last_due = start + seconds
        tasks = [
            asyncio.ensure_future(self._drive(
                conn, share, outcomes, lines, requests, depth, last_due
            ))
            for conn, share in zip(self._conns, shares)
        ]
        done, pending = await asyncio.wait(
            tasks, timeout=max(0.0, last_due - loop.time()) + timeout
        )
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
        for task in done:
            task.result()
        for outcome in outcomes:
            if outcome.sent is not None and outcome.done is None and outcome.code is None:
                outcome.code = UNANSWERED
            elif outcome.sent is None and depth is None and outcome.code is None:
                outcome.code = UNSENT
        if pending:
            # A connection that timed out owes replies to requests this
            # phase has already written off; later phases cannot use it.
            for conn, task in zip(self._conns, tasks):
                if task in pending:
                    conn.alive = False
        return outcomes, start

    async def _drive(
        self,
        conn: _Connection,
        share: list[int],
        outcomes: list[Outcome],
        lines: list[bytes],
        requests: Sequence[Request],
        depth: int | None,
        stop_at: float,
    ) -> None:
        if not conn.alive:
            for index in share:
                outcomes[index].code = UNSENT
            return
        loop = asyncio.get_running_loop()
        outstanding: list[int] = []
        head = 0  # position in outstanding of the next reply to match
        written = asyncio.Event()
        finished = False
        slots = asyncio.Semaphore(depth) if depth is not None else None

        async def send() -> None:
            nonlocal finished
            position = 0
            while position < len(share):
                if slots is not None:
                    await slots.acquire()
                    if loop.time() >= stop_at:
                        break
                    outcomes[share[position]].due = loop.time()
                delay = outcomes[share[position]].due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                now = loop.time()
                # Write everything already due in one go, then yield once.
                while position < len(share) and outcomes[share[position]].due <= now:
                    index = share[position]
                    conn.writer.write(lines[index])
                    outcomes[index].sent = now
                    outstanding.append(index)
                    position += 1
                    if slots is not None:
                        break
                written.set()
                await conn.writer.drain()
            finished = True
            written.set()

        async def receive() -> None:
            nonlocal head
            while True:
                if head == len(outstanding):
                    if finished:
                        return
                    written.clear()
                    await written.wait()
                    continue
                raw = await conn.reader.readline()
                if not raw:
                    raise ConnectionError("server closed the connection")
                index = outstanding[head]
                head += 1
                if slots is not None:
                    slots.release()
                outcome = outcomes[index]
                outcome.done = loop.time()
                reply = json.loads(raw)
                outcome.reply = reply
                if not reply.get("ok"):
                    code = reply.get("code")
                    outcome.code = code if isinstance(code, str) and code else "UNTYPED"
                elif self.check is not None and not self.check(requests[index], reply):
                    outcome.code = MISMATCH

        sender = asyncio.ensure_future(send())
        receiver = asyncio.ensure_future(receive())
        try:
            await asyncio.gather(sender, receiver)
        except (OSError, ConnectionError, ValueError):
            conn.alive = False
            for index in outstanding[head:]:
                outcomes[index].code = DROPPED
            if slots is None:  # a closed loop never attempts what it did not send
                for index in share:
                    if outcomes[index].sent is None:
                        outcomes[index].code = UNSENT
        finally:
            for task in (sender, receiver):
                task.cancel()
            await asyncio.gather(sender, receiver, return_exceptions=True)


def failed(outcomes: Sequence[Outcome]) -> int:
    """Requests that failed, were refused, went unanswered or mismatched."""
    return sum(1 for o in outcomes if not o.ok)
