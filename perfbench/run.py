"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see README.md in this directory for why each exists):

* ``cv-table2-fast`` — ``run_table2`` on the fast preset, in a worker process;
* ``serve-warm``     — warm NN^T traffic against ``repro-serve``;
* ``serve-mixed``    — warm NN^T reads beside cold MLP^T training requests.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the program
runs with span wrappers installed and the object holds the per-layer
metrics.  Lines before it print every metric by name with its unit.  Each
run also appends a self-describing record to ``perfbench/out/records.jsonl``.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference" / "table2_fast.json"
WORKLOADS = ("cv-table2-fast", "serve-warm", "serve-mixed")
#: cv-table2-fast builds its dataset from ``seed % DATASET_SEEDS``; the
#: reference holds the cells of each.
DATASET_SEEDS = 3


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """``{metric: unit}`` of the end-to-end and per-layer metrics of BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in declared["end_to_end"]},
        {m["name"]: m["unit"] for m in declared["per_layer"]},
    )


def environment() -> dict:
    """Where this ran: source identity, CPUs and the numeric stack."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a plain checkout without git metadata
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "platform": platform.platform(),
    }


def cpu_steal_s() -> float:
    """CPU time the hypervisor gave to other guests so far (all CPUs).

    Recorded per run: latency figures from a run with heavy steal are the
    neighbours' as much as the program's.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


# ------------------------------------------------------------ cv-table2-fast
def _start_worker(seed: int, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Launch the worker; return it and its set-up time (launch to ready)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [
        sys.executable, str(HERE / "cv_worker.py"),
        "--dataset-seed", str(seed % DATASET_SEEDS), "--reference", str(REFERENCE), *extra,
    ]
    started = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.monotonic()
    if not line.startswith('{"ready"'):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"cv worker failed during set-up: {line!r}")
    return proc, ready - started


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker's output; kill it if it overruns or we are interrupted."""
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"cv worker exited with {proc.returncode}")
    return stdout


def run_cv(seed: int, seconds: float, traced: bool) -> dict:
    setups = []
    for _ in range(2):
        proc, setup = _start_worker(seed, ["--setup-only"])
        _finish(proc, 60)
        setups.append(setup)
    spans_path = OUT / "spans-cv-table2-fast.jsonl"
    extra = ["--seconds", str(seconds)] + (["--trace", str(spans_path)] if traced else [])
    proc, setup = _start_worker(seed, extra)
    setups.append(setup)
    stdout = _finish(proc, 170)
    summary = json.loads(stdout.strip().splitlines()[-1])
    walls = summary["walls_s"]
    cells = summary["cells_per_call"]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_ms": 1000.0 * statistics.median(walls),
        "cpu_ms_per_op": 1000.0 * summary["cpu_s"] / (cells * len(walls)),
        "rss_peak_mb": summary["maxrss_kb"] / 1024.0,
    }
    named = [
        ("cv_cells_per_s", cells / statistics.median(walls),
         f"cells/s (median of {len(walls)} calls)"),
    ]
    result = {
        "metrics": metrics,
        "attempted": summary["checked"],
        "failed": summary["mismatches"],
        "named": named,
        "raw": {"setup_s": setups, "walls_s": walls, "cells_per_call": cells},
    }
    if traced:
        import spans

        window = tuple(summary["window"])
        result["layers"] = spans.layer_metrics(spans.load(str(spans_path)), window, sum(walls))
    return result


# ------------------------------------------------------------------ serving
def run_serving(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import openloop
    import serving
    from openloop import percentile

    run = asyncio.run(serving.run(workload, seed, seconds, ROOT, OUT, traced))
    phases = run["phases"]
    loaded, alone = phases["open"], phases["alone"]
    outcomes = [o for phase in phases.values() for _, o in phase.attempted()]
    alone_ms = alone.latencies()
    metrics = {
        "setup_s": statistics.median(run["setup_s"]),
        "op_ms": percentile(alone_ms, 0.50),
        "cpu_ms_per_op": 1000.0 * loaded.cpu_s / len(loaded.outcomes),
        "rss_peak_mb": run["rss_peak_mb"],
    }
    kind = "warm" if workload == "serve-warm" else "cold"
    warm, cold = loaded.latencies("warm"), loaded.latencies("cold")
    named = [
        (f"{kind}_alone_p50_ms", metrics["op_ms"], f"ms (one at a time, n={len(alone_ms)})"),
        (f"{kind}_alone_p90_ms", percentile(alone_ms, 0.90), f"ms (n={len(alone_ms)})"),
        ("warm_p50_ms", percentile(warm, 0.50), f"ms (open loop, n={len(warm)})"),
        ("warm_p99_ms", percentile(warm, 0.99), f"ms (open loop, n={len(warm)})"),
    ]
    if cold:
        named += [
            ("cold_p50_ms", percentile(cold, 0.50), f"ms (open loop, n={len(cold)})"),
            ("cold_p80_ms", percentile(cold, 0.80), f"ms (open loop, n={len(cold)})"),
        ]
    if "saturated" in phases:
        saturated = phases["saturated"]
        served = len(saturated.latencies())
        named.append(("max_rate_rps", served / (saturated.end - saturated.start),
                      f"req/s (closed loop, {serving.DEPTH} outstanding per connection)"))
    lateness = [o.lateness_ms for o in loaded.outcomes if o.sent is not None]
    result = {
        "metrics": metrics,
        "attempted": len(outcomes),
        "failed": openloop.failed(outcomes),
        "named": named,
        "server_exit": run["server_exit"],
        "raw": {
            "setup_s": run["setup_s"],
            "phase_cpu_s": {name: phase.cpu_s for name, phase in phases.items()},
            "errors": Counter(o.code for o in outcomes if o.code is not None),
            "cold_check": run["cold_check"],
            "gen_lateness_p99_ms": percentile(lateness, 0.99) if lateness else 0.0,
        },
    }
    if traced:
        import spans

        window = (loaded.start, max(phase.end for phase in phases.values()))
        layers = spans.layer_metrics(spans.load(str(run["spans_path"])), window,
                                     window[1] - window[0])
        layers["gen.sent"] = sum(1 for o in outcomes if o.sent is not None)
        layers["gen.lateness_p99_ms"] = result["raw"]["gen_lateness_p99_ms"]
        result["layers"] = layers
    return result


# --------------------------------------------------------------------- main
def _records(workload: str, trace: int) -> list[dict]:
    """Earlier records of this workload and trace mode, oldest first."""
    path = OUT / "records.jsonl"
    if not path.exists():
        return []
    records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    return [r for r in records if r["workload"] == workload and r["trace"] == trace]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the servers and workers started below
    # are stopped by their cleanup code instead of being orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    end_to_end_units, layer_units = declared_units()
    steal_before = cpu_steal_s()

    if args.workload == "cv-table2-fast":
        result = run_cv(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_serving(args.workload, args.seed, args.seconds, bool(args.trace))

    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and result.get("server_exit", 0) == 0
    for name, unit in end_to_end_units.items():
        print(f"{args.workload}  {name} = {result['metrics'][name]:.6g} {unit}")
    for name, value, unit in result["named"]:
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    print(f"{args.workload}  fail_ratio = {failed / attempted:.6g} "
          f"({failed} of {attempted} failed)  output check: {'PASS' if correct else 'FAIL'}")

    overhead = None
    if args.trace:
        for name, value in result["layers"].items():
            print(f"{args.workload}  {name} = {value:.6g}")
        untraced = [r for r in _records(args.workload, 0) if r["seed"] == args.seed]
        if untraced:
            base = untraced[-1]["metrics"]
            overhead = {name: result["metrics"][name] - base[name] for name in base}
            for name, delta in overhead.items():
                print(f"{args.workload}  tracing overhead {name} = {delta:+.6g} "
                      f"{end_to_end_units[name]} (vs untraced run of the same seed)")

    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run": len(_records(args.workload, args.trace)) + 1,
        "environment": environment(),
        "cpu_steal_s": cpu_steal_s() - steal_before,
        "verdict": "PASS" if correct else "FAIL",
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": result["metrics"],
        "named": {name: value for name, value, _ in result["named"]},
        "layers": result.get("layers"),
        "tracing_overhead": overhead,
        "raw": result["raw"],
    }
    with open(OUT / "records.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")

    if args.trace:
        reported = {name: {"value": value, "unit": layer_units[name]}
                    for name, value in result["layers"].items()}
    else:
        reported = {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in end_to_end_units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
