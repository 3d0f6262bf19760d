"""Tests for the repro-serve wire protocol and front ends.

Covers request parsing (every malformed-payload branch answers with an
error object, never a traceback), the stdio JSON-lines loop, the TCP front
end with micro-batching, and the CLI dispatch from ``repro-experiments
serve``.
"""

import asyncio
import io
import json

import pytest

from repro.core import BatchedLinearTransposition
from repro.data import build_default_dataset
from repro.service import (
    InProcessClient,
    PredictionService,
    RankingQuery,
    ServiceError,
    build_service,
    serve_stdio,
    serve_tcp,
)
from repro.service.server import query_from_payload, reply_to_payload


@pytest.fixture(scope="module")
def dataset():
    return build_default_dataset()


@pytest.fixture(scope="module")
def service(dataset):
    return PredictionService(dataset, {"NN^T": BatchedLinearTransposition()})


# ------------------------------------------------------------------ protocol
def test_query_from_payload_round_trip(dataset):
    payload = {
        "application": "gcc",
        "predictive_machines": dataset.machine_ids[:3],
        "target_machines": dataset.machine_ids[3:6],
        "method": "NN^T",
        "top_n": 2,
    }
    query = query_from_payload(payload)
    assert query == RankingQuery(
        "gcc",
        tuple(dataset.machine_ids[:3]),
        tuple(dataset.machine_ids[3:6]),
        "NN^T",
        2,
    )


@pytest.mark.parametrize(
    "payload",
    [
        [],  # not an object
        {"predictive_machines": ["m"]},  # missing application
        {"application": "gcc"},  # missing predictive machines
        {"application": 7, "predictive_machines": ["m"]},
        {"application": "gcc", "predictive_machines": "m001"},
        {"application": "gcc", "predictive_machines": [1, 2]},
        {"application": "gcc", "predictive_machines": ["m"], "target_machines": "m"},
        {"application": "gcc", "predictive_machines": ["m"], "top_n": "3"},
        {"application": "gcc", "predictive_machines": ["m"], "top_n": True},
        {"application": "gcc", "predictive_machines": ["m"], "method": 5},
        {"application": "gcc", "predictive_machines": ["m"], "surprise": True},
        {"application": "gcc", "predictive_machines": ["m"], "deadline_ms": "1s"},
        {"application": "gcc", "predictive_machines": ["m"], "deadline_ms": 0},
        {"application": "gcc", "predictive_machines": ["m"], "deadline_ms": True},
    ],
)
def test_query_from_payload_rejects_malformed_requests(payload):
    with pytest.raises(ServiceError):
        query_from_payload(payload)


def test_reply_payload_shape(service, dataset):
    reply = service.rank(RankingQuery("gcc", tuple(dataset.machine_ids[:4]), top_n=2))
    payload = reply_to_payload(reply)
    assert payload["ok"] is True
    assert payload["application"] == "gcc"
    assert [entry["machine"] for entry in payload["ranking"]] == list(reply.machine_ids)
    assert all(isinstance(entry["score"], float) for entry in payload["ranking"])
    # The whole payload must survive JSON serialisation (the wire format).
    assert json.loads(json.dumps(payload)) == payload


# ----------------------------------------------------------------- in-process
def test_in_process_client_speaks_the_wire_protocol(service, dataset):
    client = InProcessClient(service)
    reply = client.request(
        {"application": "mcf", "predictive_machines": dataset.machine_ids[:4], "top_n": 1}
    )
    assert reply["ok"] is True and len(reply["ranking"]) == 1
    error = client.request({"application": "mcf"})
    assert error["ok"] is False and error["code"] == "INVALID_REQUEST"
    assert "predictive_machines" in error["error"]
    metrics = client.request({"op": "metrics"})
    assert metrics["ok"] is True and metrics["metrics"]["cache"]["entries"] >= 1


def test_stats_reply_exposes_full_cache_accounting(service, dataset):
    """``metrics.cache`` carries the SplitContextCache counters."""
    client = InProcessClient(service)
    client.request(
        {"application": "gcc", "predictive_machines": dataset.machine_ids[:4]}
    )
    client.request(
        {"application": "gcc", "predictive_machines": dataset.machine_ids[:4]}
    )
    stats = client.request({"op": "metrics"})["metrics"]["cache"]
    assert stats["misses"] >= 1 and stats["hits"] >= 1
    lookups = stats["hits"] + stats["misses"]
    assert stats["hit_rate"] == pytest.approx(stats["hits"] / lookups)
    assert stats["capacity"] == service.cache.capacity
    assert json.loads(json.dumps(stats)) == stats


def test_stats_hit_rate_is_null_before_any_lookup():
    fresh = build_service(preset="smoke", cache_capacity=4)
    stats = InProcessClient(fresh).request({"op": "metrics"})["metrics"]["cache"]
    assert stats["hit_rate"] is None and stats["entries"] == 0


# ---------------------------------------------------------------------- stdio
def test_serve_stdio_answers_one_line_per_request(service, dataset):
    machines = dataset.machine_ids[:4]
    lines = "\n".join(
        [
            json.dumps({"application": "gcc", "predictive_machines": machines, "top_n": 2}),
            "",  # blank lines are skipped
            "not json",
            json.dumps({"application": "gcc", "predictive_machines": ["bogus"]}),
            json.dumps({"op": "metrics"}),
        ]
    )
    out = io.StringIO()
    served = serve_stdio(service, io.StringIO(lines), out)
    replies = [json.loads(line) for line in out.getvalue().splitlines()]
    assert served == len(replies) == 4
    assert replies[0]["ok"] is True
    assert [entry["machine"] for entry in replies[0]["ranking"]]
    assert replies[1]["ok"] is False and replies[1]["code"] == "INVALID_JSON"
    assert replies[2]["ok"] is False and replies[2]["code"] == "INVALID_REQUEST"
    assert replies[3]["ok"] is True and "cache" in replies[3]["metrics"]


# ------------------------------------------------------------------------ tcp
def test_serve_tcp_round_trip(service, dataset):
    machines = dataset.machine_ids[:4]

    async def run():
        server = await serve_tcp(service, "127.0.0.1", 0, window=0.001)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        requests = [
            {"application": "gcc", "predictive_machines": machines, "top_n": 1},
            {"application": "namd", "predictive_machines": machines, "top_n": 1},
            {"application": "gcc", "predictive_machines": ["bogus"]},
            {"op": "metrics"},
        ]
        for request in requests:
            writer.write((json.dumps(request) + "\n").encode())
        await writer.drain()
        replies = [json.loads(await reader.readline()) for _ in requests]
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        return replies

    replies = asyncio.run(asyncio.wait_for(run(), timeout=30))
    assert replies[0]["ok"] is True and replies[0]["application"] == "gcc"
    assert replies[1]["ok"] is True and replies[1]["application"] == "namd"
    assert replies[2]["ok"] is False and replies[2]["code"] == "INVALID_REQUEST"
    assert replies[3]["ok"] is True and replies[3]["metrics"]["cache"]["entries"] >= 1


def test_serve_tcp_pipelined_requests_coalesce_and_stay_ordered(service, dataset):
    from repro.service import MicroBatcher

    machines = dataset.machine_ids[:4]
    apps = ["gcc", "mcf", "lbm", "namd", "povray"]
    batcher = MicroBatcher(service, window=0.02)

    async def run():
        server = await serve_tcp(service, "127.0.0.1", 0, batcher=batcher)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        before = batcher.batches_dispatched
        # Pipeline every request in one write, then read the replies.
        writer.write(
            "".join(
                json.dumps({"application": app, "predictive_machines": machines, "top_n": 1})
                + "\n"
                for app in apps
            ).encode()
        )
        await writer.drain()
        replies = [json.loads(await reader.readline()) for _ in apps]
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        return before, replies

    before, replies = asyncio.run(asyncio.wait_for(run(), timeout=30))
    # Replies come back in request order...
    assert [reply["application"] for reply in replies] == apps
    # ...and same-connection pipelined requests shared batches instead of
    # dispatching one batch per request.
    assert batcher.batches_dispatched - before < len(apps)


# ------------------------------------------------------------- equivalence
def test_stdio_and_tcp_front_ends_answer_identically(dataset):
    """Both front ends share one request path: the same lines get the same
    replies (rankings, error codes and messages), traces aside."""
    machines = dataset.machine_ids[:4]
    lines = [
        json.dumps({"application": "gcc", "predictive_machines": machines, "top_n": 2}),
        json.dumps({"application": "mcf", "predictive_machines": machines}),
        "not json",
        json.dumps({"application": "gcc", "predictive_machines": machines, "x": 1}),
        json.dumps({"application": "gzip", "predictive_machines": machines}),
        json.dumps({"application": "gcc", "predictive_machines": machines, "top_n": 0}),
        json.dumps({"op": "levitate"}),
        json.dumps({"op": "stats"}),
        '{"application": "' + "x" * 4096 + '"}',
    ]

    def fresh():
        return PredictionService(dataset, {"NN^T": BatchedLinearTransposition()})

    out = io.StringIO()
    serve_stdio(fresh(), io.StringIO("\n".join(lines) + "\n"), out, max_line_bytes=1024)
    via_stdio = [json.loads(line) for line in out.getvalue().splitlines()]

    async def run():
        server = await serve_tcp(fresh(), "127.0.0.1", 0, max_line_bytes=1024)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        replies = []
        for line in lines:  # one at a time, so batching cannot reorder training
            writer.write((line + "\n").encode())
            await writer.drain()
            replies.append(json.loads(await reader.readline()))
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        return replies

    via_tcp = asyncio.run(asyncio.wait_for(run(), timeout=30))
    for reply in via_stdio + via_tcp:
        reply.pop("trace", None)
    assert via_tcp == via_stdio
    assert [reply.get("code") for reply in via_stdio] == [
        None,
        None,
        "INVALID_JSON",
        "INVALID_REQUEST",
        "INVALID_REQUEST",
        "INVALID_REQUEST",
        "INVALID_REQUEST",
        "INVALID_REQUEST",
        "PAYLOAD_TOO_LARGE",
    ]
    assert [reply.get("cache_hit") for reply in via_stdio[:2]] == [False, True]


# ------------------------------------------------------------------------ cli
def test_build_service_applies_preset_and_rejects_unknown():
    service = build_service(preset="smoke", cache_capacity=8)
    assert set(service.methods) == {"NN^T", "MLP^T", "GA-kNN"}
    assert service.cache.capacity == 8
    with pytest.raises(ValueError):
        build_service(preset="warp-speed")


def test_cli_dispatches_serve_subcommand(dataset, capsys, monkeypatch):
    from repro import cli

    machines = dataset.machine_ids[:4]
    request = json.dumps({"application": "gcc", "predictive_machines": machines, "top_n": 1})
    monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
    assert cli.main(["serve", "--preset", "smoke"]) == 0
    reply = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert reply["ok"] is True and len(reply["ranking"]) == 1


# ----------------------------------------------------------------- ops verbs
def test_health_and_ready_ops_report_ok_state(service):
    client = InProcessClient(service)
    health = client.request({"op": "health"})
    assert health["ok"] is True and health["status"] == "ok"
    assert health["ready"] is True
    assert health["degraded_served"] == 0
    ready = client.request({"op": "ready"})
    assert ready == {"ok": True, "ready": True}
    unknown = client.request({"op": "levitate"})
    assert unknown["ok"] is False and unknown["code"] == "INVALID_REQUEST"


def test_health_reports_resilient_backend_breaker():
    fresh = build_service(preset="smoke", cache_capacity=4)
    health = InProcessClient(fresh).request({"op": "health"})
    assert health["backend"]["breaker"]["state"] == "closed"
    assert health["backend"]["primary"] == fresh.backend.primary.name
    assert json.loads(json.dumps(health)) == health


# -------------------------------------------------------------- bounded lines
def test_serve_stdio_bounds_line_length(service, dataset):
    machines = dataset.machine_ids[:4]
    good = json.dumps({"application": "gcc", "predictive_machines": machines, "top_n": 1})
    huge = '{"application": "' + "x" * 4096 + '"}'
    out = io.StringIO()
    served = serve_stdio(
        service, io.StringIO(huge + "\n" + good + "\n"), out, max_line_bytes=1024
    )
    replies = [json.loads(line) for line in out.getvalue().splitlines()]
    assert served == 2
    assert replies[0]["ok"] is False and replies[0]["code"] == "PAYLOAD_TOO_LARGE"
    # The stream recovers: the next (normal) line is answered normally.
    assert replies[1]["ok"] is True


def test_serve_tcp_bounds_line_length(service, dataset):
    machines = dataset.machine_ids[:4]

    async def run():
        server = await serve_tcp(
            service, "127.0.0.1", 0, window=0.001, max_line_bytes=1024
        )
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b'{"application": "' + b"x" * 200_000 + b'"}\n')
        writer.write(
            (json.dumps({"application": "gcc", "predictive_machines": machines}) + "\n").encode()
        )
        await writer.drain()
        replies = [json.loads(await reader.readline()) for _ in range(2)]
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        return replies

    replies = asyncio.run(asyncio.wait_for(run(), timeout=30))
    assert replies[0]["ok"] is False and replies[0]["code"] == "PAYLOAD_TOO_LARGE"
    assert replies[1]["ok"] is True


# ------------------------------------------------------------------ shutdown
def test_serve_stdio_handles_keyboard_interrupt_cleanly(service, dataset):
    machines = dataset.machine_ids[:4]
    good = json.dumps({"application": "gcc", "predictive_machines": machines, "top_n": 1})

    class InterruptingStream:
        """Yields one good line, then simulates ctrl-C on the next read."""

        def __init__(self):
            self.lines = iter([good + "\n"])

        def readline(self, limit=-1):
            try:
                return next(self.lines)
            except StopIteration:
                raise KeyboardInterrupt

    out = io.StringIO()
    served = serve_stdio(service, InterruptingStream(), out)
    assert served == 1
    assert json.loads(out.getvalue().strip())["ok"] is True


# ----------------------------------------------------------------- tcp client
def test_tcp_client_round_trip_and_reuse(service, dataset):
    from repro.service import RetryPolicy, TCPClient

    machines = dataset.machine_ids[:4]

    async def run():
        server = await serve_tcp(service, "127.0.0.1", 0, window=0.001)
        port = server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()

        def client_calls():
            with TCPClient(
                "127.0.0.1", port, retry=RetryPolicy(max_attempts=2, seed=3)
            ) as client:
                first = client.request(
                    {"application": "gcc", "predictive_machines": machines, "top_n": 1}
                )
                second = client.request({"op": "ready"})
                return first, second

        first, second = await loop.run_in_executor(None, client_calls)
        server.close()
        await server.wait_closed()
        return first, second

    first, second = asyncio.run(asyncio.wait_for(run(), timeout=30))
    assert first["ok"] is True and len(first["ranking"]) == 1
    assert second == {"ok": True, "ready": True}


def test_tcp_client_reconnects_after_connection_drop(service, dataset):
    """A dropped connection is retried on a fresh connection, not surfaced."""
    from repro.service import RetryPolicy, TCPClient

    machines = dataset.machine_ids[:4]
    drops = {"remaining": 1}

    async def run():
        server = await serve_tcp(service, "127.0.0.1", 0, window=0.001)
        real_port = server.sockets[0].getsockname()[1]

        # A proxy that kills the first connection before any reply.
        async def proxy(reader, writer):
            if drops["remaining"]:
                drops["remaining"] -= 1
                writer.close()
                return
            upstream_reader, upstream_writer = await asyncio.open_connection(
                "127.0.0.1", real_port
            )

            async def pump(src, dst):
                try:
                    while True:
                        data = await src.read(65536)
                        if not data:
                            break
                        dst.write(data)
                        await dst.drain()
                finally:
                    dst.close()

            await asyncio.gather(
                pump(reader, upstream_writer), pump(upstream_reader, writer)
            )

        front = await asyncio.start_server(proxy, "127.0.0.1", 0)
        front_port = front.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()

        def client_call():
            client = TCPClient(
                "127.0.0.1",
                front_port,
                retry=RetryPolicy(max_attempts=4, base_delay=0.01, seed=11),
            )
            try:
                return client.request(
                    {"application": "gcc", "predictive_machines": machines, "top_n": 1}
                )
            finally:
                client.close()

        reply = await loop.run_in_executor(None, client_call)
        front.close()
        await front.wait_closed()
        server.close()
        await server.wait_closed()
        return reply

    reply = asyncio.run(asyncio.wait_for(run(), timeout=30))
    assert reply["ok"] is True and drops["remaining"] == 0


# -------------------------------------------------------- stats & metrics ops
def test_stats_verb_is_gone_and_health_lists_the_methods(service):
    """The cache accounting lives under ``metrics.cache``; ``stats`` and its
    ``{"stats": true}`` alias are unknown requests, and the method line-up
    they reported is part of ``health``."""
    client = InProcessClient(service)
    for removed in ({"op": "stats"}, {"stats": True}):
        reply = client.request(removed)
        assert reply["ok"] is False and reply["code"] == "INVALID_REQUEST"
    assert client.request({"op": "health"})["methods"] == sorted(service.methods)


def test_stats_hit_rate_arithmetic_from_a_fresh_service(dataset):
    """One miss then one hit: hits=1, misses=1, hit_rate=0.5 exactly.

    Built directly (not via ``build_service``) so an active ``REPRO_FAULTS``
    spec in the chaos leg cannot evict the entry between the two requests.
    """
    fresh = PredictionService(dataset, {"NN^T": BatchedLinearTransposition()})
    client = InProcessClient(fresh)
    machines = list(dataset.machine_ids[:4])
    request = {"application": "gcc", "predictive_machines": machines}
    assert client.request(request)["cache_hit"] is False
    assert client.request(request)["cache_hit"] is True
    stats = client.request({"op": "metrics"})["metrics"]["cache"]
    assert (stats["hits"], stats["misses"], stats["hit_rate"]) == (1, 1, 0.5)


def test_metrics_op_exposes_counters_and_percentiles(service, dataset):
    """The metrics verb reports request counters and latency histograms."""
    client = InProcessClient(service)
    before = client.request({"op": "metrics"})["metrics"]
    client.request(
        {"application": "lbm", "predictive_machines": dataset.machine_ids[:4]}
    )
    client.request({"application": "lbm"})  # INVALID_REQUEST: counted as error
    after = client.request({"op": "metrics"})
    assert after["ok"] is True
    metrics = after["metrics"]
    counters = metrics["counters"]
    assert counters["server.requests"] == before["counters"].get("server.requests", 0) + 2
    assert counters["server.errors"] >= 1
    assert counters["server.error.INVALID_REQUEST"] >= 1
    latency = metrics["histograms"]["server.request_ms"]
    assert latency["count"] == counters["server.requests"]
    assert latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]
    assert metrics["cache"]["capacity"] == service.cache.capacity
    assert json.loads(json.dumps(metrics)) == metrics


def test_metrics_op_is_not_counted_as_server_load(service):
    """Monitoring traffic must not perturb the load counters it reports."""
    client = InProcessClient(service)
    first = client.request({"op": "metrics"})["metrics"]["counters"]
    second = client.request({"op": "metrics"})["metrics"]["counters"]
    assert second.get("server.requests", 0) == first.get("server.requests", 0)


def test_unknown_op_lists_the_full_verb_catalogue(service):
    reply = InProcessClient(service).request({"op": "bogus"})
    assert reply["ok"] is False and reply["code"] == "INVALID_REQUEST"
    assert "health, metrics, ready)" in reply["error"]


# ----------------------------------------------------------------- trace echo
def test_ranking_replies_echo_a_trace_with_stage_spans(service, dataset):
    client = InProcessClient(service)
    reply = client.request(
        {"application": "milc", "predictive_machines": dataset.machine_ids[:4]}
    )
    trace = reply["trace"]
    assert trace["id"]
    stages = [span["stage"] for span in trace["spans"]]
    assert "admission" in stages and "engine" in stages and "reply" in stages
    assert all(span["ms"] >= 0 for span in trace["spans"])


def test_client_supplied_trace_id_is_echoed_back(service, dataset):
    client = InProcessClient(service)
    reply = client.request(
        {
            "application": "milc",
            "predictive_machines": dataset.machine_ids[:4],
            "trace_id": "caller-7",
        }
    )
    assert reply["trace"]["id"] == "caller-7"
    # Error replies carry a trace too (fresh id when the caller sent none).
    error = client.request({"application": "milc"})
    assert error["ok"] is False and error["trace"]["id"]


def test_tcp_replies_carry_queue_and_batch_spans(service, dataset):
    """Requests through the micro-batcher record the queue/batch stages."""
    machines = dataset.machine_ids[:4]

    async def run():
        server = await serve_tcp(service, "127.0.0.1", 0, window=0.001)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(
            (
                json.dumps(
                    {
                        "application": "gcc",
                        "predictive_machines": machines,
                        "trace_id": "tcp-1",
                    }
                )
                + "\n"
            ).encode()
        )
        await writer.drain()
        reply = json.loads(await reader.readline())
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        return reply

    reply = asyncio.run(asyncio.wait_for(run(), timeout=30))
    assert reply["ok"] is True and reply["trace"]["id"] == "tcp-1"
    stages = [span["stage"] for span in reply["trace"]["spans"]]
    for stage in ("admission", "queue", "batch", "engine", "reply"):
        assert stage in stages, stages
