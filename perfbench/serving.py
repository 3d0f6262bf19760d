"""The ``serve-warm`` and ``serve-mixed`` workloads.

Each launches the real server, ``python -m repro.service --preset fast
--tcp 127.0.0.1:0`` with default flags (or, traced, ``serve_boot.py``
around the same ``main``), warms its split pool, and drives it with
:mod:`openloop` over two connections: open loop at fixed rates, then one
request at a time, then (``serve-warm``) saturated.  Every warm reply is
compared with the offline ``predict_split_scores`` answer computed here in
set-up; the service promises those are bit-identical.  Cold replies are
checked on a seeded sample after the timed phases.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import openloop
from openloop import OpenLoopClient, Outcome, Request

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUPS = 3
CONNECTIONS = 2

# Each serving run has up to three timed phases, as shares of --seconds:
#  * open loop at fixed rates: latency under load and CPU per request;
#  * one request at a time ("alone"): the gated latency (latency under
#    load is too unsteady on a shared 2-vCPU guest to gate, see README.md);
#  * serve-warm only, saturated closed loop: the highest sustained rate.
SHARES = {
    "serve-warm": {"open": 0.5, "alone": 0.25, "saturated": 0.25},
    "serve-mixed": {"open": 0.6, "alone": 0.4},
}
#: Requests kept outstanding per connection while saturating, under the
#: server's per-connection pipeline limit (128), so it never sheds.
DEPTH = 100
# serve-warm: warm NN^T traffic on the trained pool.
WARM_RATE = 100.0            # arrivals/s; 25% are bursts of 8 (~275 req/s)
# serve-mixed: warm NN^T reads beside cold MLP^T training requests.
MIXED_WARM_RATE = 40.0
MIXED_COLD_RATE = 3.5        # cold arrivals/s
COLD_SIZES = (3, 5)          # predictive machines per cold set, each size equally often
COLD_CHECKS = 8              # cold replies recomputed offline per run
#: Closed-loop phases draw from request lists this many times denser than
#: the open-loop rates, more than the server can answer in the time.
SUPPLY = 12.0


@dataclass
class ServerProcess:
    """The program's server process, started from the checkout's ``src``."""

    root: Path
    out: Path
    spans_path: Path | None = None
    proc: subprocess.Popen | None = None
    port: int = 0
    _log: Any = None

    def start(self, timeout: float = 60.0) -> None:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        args = ["--preset", "fast", "--tcp", "127.0.0.1:0"]
        if self.spans_path is None:
            command = [sys.executable, "-m", "repro.service", *args]
        else:
            boot = Path(__file__).with_name("serve_boot.py")
            command = [sys.executable, str(boot), "--spans", str(self.spans_path), "--", *args]
        log_path = self.out / "server.log"
        self._log = open(log_path, "w+", encoding="utf-8")
        self.proc = subprocess.Popen(
            command, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=self._log,
        )
        deadline = time.monotonic() + timeout
        marker = "repro-serve listening on "
        while time.monotonic() < deadline:
            text = log_path.read_text(encoding="utf-8")
            if marker in text:
                address = text.split(marker, 1)[1].split()[0].split(",")[0]
                self.port = int(address.rsplit(":", 1)[1])
                return
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during start-up:\n{text}")
            time.sleep(0.005)
        raise RuntimeError("server did not start listening in time")

    def _stat(self) -> list[str]:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            text = handle.read()
        return text[text.rindex(")") + 2:].split()

    def cpu_s(self) -> float:
        """User + system CPU seconds of the server so far (all threads)."""
        fields = self._stat()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_peak_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode


# ------------------------------------------------------------- references
@dataclass
class Reference:
    """Offline answers the service's replies must equal exactly."""

    dataset: Any
    methods: dict
    rankings: dict = field(default_factory=dict)

    @classmethod
    def create(cls) -> "Reference":
        from repro.data import build_default_dataset
        from repro.experiments import ExperimentConfig, standard_methods

        config = ExperimentConfig.fast()
        dataset = build_default_dataset(noise_sigma=config.noise_sigma, seed=config.seed)
        return cls(dataset, standard_methods(config))

    def add_split(self, predictive: Sequence[str], method: str) -> None:
        """Every application's full ranking for one split, as the service orders it."""
        from repro.core.pipeline import predict_split_scores
        from repro.core.ranking import MachineRanking
        from repro.data.splits import MachineSplit

        owned = set(predictive)
        targets = tuple(m for m in self.dataset.machine_ids if m not in owned)
        split = MachineSplit("reference", tuple(predictive), targets)
        scores = predict_split_scores(
            self.dataset, split, {method: self.methods[method]}, self.dataset.benchmark_names
        )[method]
        for application, row in scores.items():
            ranking = MachineRanking.from_scores(targets, row)
            by_id = dict(zip(targets, (float(s) for s in row)))
            self.rankings[(tuple(predictive), application, method)] = [
                {"machine": mid, "score": by_id[mid]} for mid in ranking.ordered_ids()
            ]

    def matches(self, payload: dict, reply: dict) -> bool:
        key = (tuple(payload["predictive_machines"]), payload["application"], payload["method"])
        expected = self.rankings.get(key)
        if expected is None:
            return True  # cold request: checked on a sample after the window
        return (
            reply.get("method") == payload["method"]
            and not reply.get("degraded")
            and reply.get("ranking") == expected[: payload.get("top_n") or len(expected)]
        )


# --------------------------------------------------------------- schedules
def warm_arrivals(rate: float, duration: float, seed: int, dataset, tag: str) -> list[Request]:
    """The ``warm-skewed`` shape of :mod:`repro.loadgen` at a fixed rate."""
    from repro.loadgen import MIXES, build_schedule

    requests, arrival, last = [], -1, None
    for index, (send_at, payload) in enumerate(
        build_schedule(MIXES["warm-skewed"], rate, duration, seed=seed, dataset=dataset)
    ):
        if send_at != last:
            arrival, last = arrival + 1, send_at
        payload["trace_id"] = f"{tag}{index}"
        requests.append(Request(send_at, payload, "warm", arrival))
    return requests


def cold_arrivals(rate: float, duration: float, rng: random.Random, dataset,
                  exclude: Sequence[Sequence[str]], tag: str) -> list[Request]:
    """Fresh predictive sets of varied size, each one MLP^T training pass."""
    count = max(1, round(rate * duration))
    sets = openloop.cold_sets(rng, dataset.machine_ids, count, COLD_SIZES, exclude)
    applications = dataset.benchmark_names

    def arrival(i: int) -> list[dict]:
        return [{
            "application": rng.choice(applications),
            "predictive_machines": list(sets[i]),
            "method": "MLP^T",
            "top_n": 3,
            "trace_id": f"{tag}{i}",
        }]

    # Offset by half an interval so cold arrivals never share a warm instant.
    return openloop.fixed_rate(rate, duration, arrival, "cold", offset=0.5 / rate)


def pool_of(requests: Sequence[Request]) -> list[tuple[str, ...]]:
    seen: dict[tuple[str, ...], None] = {}
    for request in requests:
        if request.kind == "warm":
            seen.setdefault(tuple(request.payload["predictive_machines"]), None)
    return list(seen)


# ----------------------------------------------------------------- running
@dataclass
class Phase:
    """One timed phase: its requests, their outcomes, and the server's CPU."""

    requests: list[Request]
    outcomes: list[Outcome]
    start: float
    end: float
    cpu_s: float

    def attempted(self) -> list[tuple[Request, Outcome]]:
        return [(r, o) for r, o in zip(self.requests, self.outcomes) if o.attempted]

    def latencies(self, kind: str | None = None) -> list[float]:
        return [o.latency_ms for r, o in self.attempted()
                if o.ok and (kind is None or r.kind == kind)]


async def _setup(server: ServerProcess, reference: Reference,
                 pool: Sequence[tuple[str, ...]]) -> OpenLoopClient:
    """Start the server, train the warm pool, compute the reference answers."""
    server.start()
    client = OpenLoopClient("127.0.0.1", server.port, CONNECTIONS, check=None)
    await client.connect()
    application = reference.dataset.benchmark_names[0]
    warmup = [
        Request(0.0, {"application": application, "predictive_machines": list(p),
                      "method": "NN^T", "top_n": 1}, "warm", k)
        for k, p in enumerate(pool)
    ]
    outcomes, _ = await client.run_phase(warmup)
    if openloop.failed(outcomes):
        raise RuntimeError(f"warm-up failed: {[o.reply for o in outcomes if not o.ok]}")
    reference.rankings.clear()
    for predictive in pool:
        reference.add_split(predictive, "NN^T")
    client.check = lambda request, reply: reference.matches(request.payload, reply)
    return client


async def _measure(client: OpenLoopClient, server: ServerProcess, requests: list[Request],
                   depth: int | None = None, seconds: float = 0.0) -> Phase:
    """One phase: open loop when *depth* is None, else a closed loop of *depth*."""
    cpu = server.cpu_s()
    if depth is None:
        outcomes, start = await client.run_phase(requests)
    else:
        outcomes, start = await client.run_closed(requests, depth, seconds)
    end = max((o.done or o.due for o in outcomes if o.attempted), default=start)
    return Phase(requests, outcomes, start, end, server.cpu_s() - cpu)


def _schedules(workload: str, seed: int, seconds: float, dataset) -> dict[str, list[Request]]:
    """The requests of each phase of one run, all from *seed*."""
    rng = random.Random(seed)
    share = {phase: seconds * part for phase, part in SHARES[workload].items()}
    if workload == "serve-warm":
        alone = warm_arrivals(WARM_RATE * SUPPLY, share["alone"], seed + 1, dataset, "a")
        return {
            "open": warm_arrivals(WARM_RATE, share["open"], seed, dataset, "w"),
            "alone": [Request(0.0, r.payload, r.kind, 0) for r in alone],
            "saturated": warm_arrivals(WARM_RATE * SUPPLY, share["saturated"], seed + 2,
                                       dataset, "s"),
        }
    warm = warm_arrivals(MIXED_WARM_RATE, share["open"], seed, dataset, "w")
    pool = pool_of(warm)
    cold = cold_arrivals(MIXED_COLD_RATE, share["open"], rng, dataset, pool, "c")
    alone = cold_arrivals(
        MIXED_COLD_RATE * SUPPLY, share["alone"], rng, dataset,
        pool + [tuple(r.payload["predictive_machines"]) for r in cold], "a",
    )
    return {
        "open": openloop.merge(warm, cold),
        "alone": [Request(0.0, r.payload, r.kind, 0) for r in alone],
    }


async def run(workload: str, seed: int, seconds: float, root: Path, out: Path,
              traced: bool) -> dict:
    """One run of a serving workload: set-up, then its timed phases in order."""
    reference = Reference.create()
    schedules = _schedules(workload, seed, seconds, reference.dataset)
    pool = pool_of([r for requests in schedules.values() for r in requests])
    spans_path = out / f"spans-{workload}.jsonl" if traced else None

    setup_s: list[float] = []
    phases: dict[str, Phase] = {}
    server = client = None
    try:
        for attempt in range(SETUPS):
            started = time.monotonic()
            server = ServerProcess(root, out, spans_path)
            client = await _setup(server, reference, pool)
            setup_s.append(time.monotonic() - started)
            if attempt < SETUPS - 1:
                await client.close()
                if server.stop() != 0:
                    raise RuntimeError("server did not exit cleanly after set-up")
        phases["open"] = await _measure(client, server, schedules["open"])
        phases["alone"] = await _measure(client, server, schedules["alone"], 1,
                                         seconds * SHARES[workload]["alone"])
        if "saturated" in schedules:
            phases["saturated"] = await _measure(client, server, schedules["saturated"],
                                                 DEPTH, seconds * SHARES[workload]["saturated"])
        rss = server.rss_peak_mb()
        cold_check = _check_cold_sample(list(phases.values()), reference,
                                        random.Random(seed + 3))
        await client.close()
        client = None
        exit_code = server.stop()
        server = None
    finally:
        if client is not None:
            await client.close()
        if server is not None:
            server.stop()
    return {
        "setup_s": setup_s,
        "phases": phases,
        "rss_peak_mb": rss,
        "cold_check": cold_check,
        "server_exit": exit_code,
        "spans_path": spans_path,
    }


def _check_cold_sample(phases: Sequence[Phase], reference: Reference,
                       rng: random.Random) -> dict:
    """Recompute a seeded sample of answered cold replies offline."""
    answered = [
        (r, o) for phase in phases for r, o in phase.attempted()
        if r.kind == "cold" and o.reply is not None and o.reply.get("ok")
    ]
    sample = rng.sample(answered, min(COLD_CHECKS, len(answered)))
    bad = 0
    for request, outcome in sample:
        reference.add_split(request.payload["predictive_machines"], "MLP^T")
        if not reference.matches(request.payload, outcome.reply):
            outcome.code = openloop.MISMATCH
            bad += 1
    return {"checked": len(sample), "mismatches": bad}
