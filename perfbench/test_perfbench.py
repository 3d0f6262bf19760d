"""Tests of the benchmark's own instruments (no server, no timing claims)."""

from __future__ import annotations

import asyncio
import json
import random
import time

import openloop
import serving
import spans
from openloop import OpenLoopClient, Request


# ---------------------------------------------------------------- schedules
def test_schedules_are_deterministic_under_a_seed():
    from repro.data import build_default_dataset

    dataset = build_default_dataset()

    def build(seed):
        warm = serving.warm_arrivals(50.0, 2.0, seed, dataset, "w")
        cold = serving.cold_arrivals(3.0, 2.0, random.Random(seed), dataset,
                                     serving.pool_of(warm), "c")
        merged = openloop.merge(warm, cold)
        return [(r.due, r.kind, r.arrival, json.dumps(r.payload, sort_keys=True))
                for r in merged]

    assert build(11) == build(11)
    assert build(11) != build(12)
    merged = build(11)
    assert [due for due, *_ in merged] == sorted(due for due, *_ in merged)


def test_cold_sets_are_distinct_sized_and_avoid_the_pool():
    machines = [f"m{i:03d}" for i in range(40)]
    pool = [tuple(machines[:6])]
    sets = openloop.cold_sets(random.Random(3), machines, 30, (6, 12), exclude=pool)
    assert len({frozenset(s) for s in sets}) == 30
    assert all(6 <= len(s) <= 12 and list(s) == sorted(s) for s in sets)
    assert frozenset(pool[0]) not in {frozenset(s) for s in sets}


# ------------------------------------------------------------- fake server
async def _serve(replies, drop_after=None):
    """Answer line *i* with ``replies(i, payload)``; close after *drop_after* lines."""
    count = 0

    async def handle(reader, writer):
        nonlocal count
        while True:
            line = await reader.readline()
            if not line:
                break
            if drop_after is not None and count >= drop_after:
                break
            payload = json.loads(line)
            writer.write((json.dumps(replies(count, payload)) + "\n").encode())
            count += 1
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def _requests(n, spacing):
    return [Request(i * spacing, {"trace_id": str(i)}, "warm", i) for i in range(n)]


def _drive(requests, replies, drop_after=None, check=None, stall=None, timeout=5.0):
    async def go():
        server = await _serve(replies, drop_after)
        port = server.sockets[0].getsockname()[1]
        client = OpenLoopClient("127.0.0.1", port, connections=1, check=check)
        await client.connect()
        if stall is not None:
            at, seconds = stall
            loop = asyncio.get_running_loop()
            loop.call_later(at, time.sleep, seconds)
        outcomes, _ = await client.run_phase(requests, timeout=timeout)
        await client.close()
        server.close()
        await server.wait_closed()
        return outcomes

    return asyncio.run(go())


def test_latency_counts_from_due_time_so_a_stall_delays_later_requests():
    requests = _requests(30, 0.01)
    # The phase starts ~20 ms after the stall is armed, so it hits at ~80 ms.
    outcomes = _drive(requests, lambda i, p: {"ok": True}, stall=(0.1, 0.2))
    assert openloop.failed(outcomes) == 0
    # Requests due during the stall were written late; their latency
    # includes that wait even though the server answered them at once.
    stalled = [o for o in outcomes if o.lateness_ms > 50.0]
    assert len(stalled) >= 10
    for outcome in stalled:
        assert outcome.latency_ms >= outcome.lateness_ms
        assert (outcome.done - outcome.sent) * 1000.0 < outcome.latency_ms - 50.0
    before = [o for o in outcomes if o.due < outcomes[0].due + 0.05]
    assert max(o.latency_ms for o in before) < 50.0


def test_fail_count_includes_typed_errors_refusals_drops_and_mismatches():
    def replies(i, payload):
        if i == 1:
            return {"ok": False, "code": "OVERLOADED", "error": "shed"}
        if i == 2:
            return {"ok": False, "code": "BACKEND_FAILURE", "error": "x"}
        if i == 3:
            return {"ok": False, "error": "no code"}
        return {"ok": True, "value": i}

    requests = _requests(8, 0.0)
    outcomes = _drive(
        requests, replies, drop_after=5,
        check=lambda request, reply: reply.get("value") != 4,
    )
    codes = [o.code for o in outcomes]
    assert codes[:5] == [None, "OVERLOADED", "BACKEND_FAILURE", "UNTYPED", openloop.MISMATCH]
    assert set(codes[5:]) <= {openloop.DROPPED, openloop.UNSENT}
    assert openloop.failed(outcomes) == 7


def test_requests_never_answered_count_as_failed():
    # A server that reads but never replies: every request ends UNANSWERED.
    async def go():
        async def handle(reader, writer):
            await reader.read()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        client = OpenLoopClient("127.0.0.1", server.sockets[0].getsockname()[1], 1)
        await client.connect()
        result, _ = await client.run_phase(_requests(3, 0.0), timeout=0.3)
        await client.close()
        server.close()
        await server.wait_closed()
        return result

    outcomes = asyncio.run(go())
    assert [o.code for o in outcomes] == [openloop.UNANSWERED] * 3
    assert openloop.failed(outcomes) == 3


def test_closed_loop_bounds_outstanding_requests_and_skips_the_unsent():
    async def go():
        async def slow(reader, writer):
            while line := await reader.readline():
                await asyncio.sleep(0.005)
                writer.write(b'{"ok": true}\n')
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(slow, "127.0.0.1", 0)
        client = OpenLoopClient("127.0.0.1", server.sockets[0].getsockname()[1], 1)
        await client.connect()
        outcomes, _ = await client.run_closed(_requests(1000, 0.0), depth=3, seconds=0.2)
        await client.close()
        server.close()
        await server.wait_closed()
        return outcomes

    outcomes = [o for o in asyncio.run(go()) if o.attempted]
    assert 10 < len(outcomes) < 1000
    assert openloop.failed(outcomes) == 0
    for outcome in outcomes:
        busy = sum(1 for o in outcomes if o.sent <= outcome.sent < o.done)
        assert busy <= 3
        assert 0.0 <= outcome.sent - outcome.due < 0.005


# -------------------------------------------------------------------- spans
def _span(span_id, name, start, end, parent=-1, attrs=None):
    return (span_id, name, start, end, parent, None, attrs or {})


def test_self_time_subtracts_the_union_of_children():
    trace = [
        _span(0, "pipeline.split_pass", 0.0, 10.0),
        _span(1, "mlp.fit", 1.0, 5.0, parent=0),
        _span(2, "gaknn.predict", 4.0, 7.0, parent=0),    # overlaps the first child
        _span(3, "kernel.mlp_sgd", 2.0, 4.5, parent=1),
        _span(4, "splitctx.for_split", 9.0, 12.0, parent=0),  # runs past the parent
    ]
    own = spans.self_times(trace)
    assert own[0] == 10.0 - (7.0 - 1.0) - (10.0 - 9.0)
    assert own[1] == 4.0 - 2.5
    assert own[3] == 2.5


def test_layer_metrics_window_and_cache_accounting():
    trace = [
        _span(0, "data.build", 0.0, 0.5),
        _span(1, "cache.get_or_create", 1.0, 1.1, attrs={"hit": False, "evictions": 3}),
        _span(2, "cache.get_or_create", 2.0, 2.1, attrs={"hit": True}),
        _span(3, "cache.get_or_create", 2.2, 2.3, attrs={"hit": False, "evictions": 5}),
        _span(4, "kernel.mlp_sgd", 2.4, 3.4, attrs={"steps": 10, "flop": 2e9}),
        _span(5, "cache.get_or_create", 2.5, 2.6, attrs={"hit": False, "evictions": 6}),
    ]
    layers = spans.layer_metrics(trace, window=(1.5, 4.0), wall_s=2.0)
    assert layers["cache.lookups"] == 3
    assert layers["cache.inserts"] == 2
    assert layers["cache.hit_ratio"] == 1 / 3
    assert layers["cache.evictions"] == 6 - 3
    assert layers["kernel.mlp_sgd.steps"] == 10
    assert layers["kernel.mlp_sgd.share"] == 0.5
    assert layers["kernel.mlp_sgd.gflop_computed"] == 2.0
    assert layers["data.build_s"] == 0.5


def test_recorder_nests_spans_by_call_stack():
    recorder = spans.Recorder()

    def inner():
        return 1

    wrapped_inner = recorder.wrap(inner, "inner")
    wrapped_outer = recorder.wrap(lambda: wrapped_inner() + 1, "outer")
    assert wrapped_outer() == 2
    by_name = {span[spans.NAME]: span for span in recorder.spans}
    assert by_name["inner"][spans.PARENT] == by_name["outer"][spans.ID]
    assert by_name["outer"][spans.PARENT] == -1
