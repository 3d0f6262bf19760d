"""The ``cv-table2-fast`` workload's program process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It imports the library, builds the dataset for its seed and loads
the reference cells, then prints ``{"ready": ...}``: that is where set-up
ends.  Unless ``--setup-only`` is given it then calls
``repro.experiments.run_table2`` repeatedly for about ``--seconds``, checks
every cell of every call against the reference, and prints one JSON summary
line.  ``--trace PATH`` installs the span wrappers first and writes the
spans to PATH at the end.  ``--record PATH`` writes the reference instead
of checking against it.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time

#: Output-check tolerance for every cell metric.  Kernel changes may drift
#: by ~5e-10 relative; a changed ranking moves a rank correlation by at
#: least ~1e-5 for the <= 40 target machines of a family split.
REL_TOL = 1e-6
ABS_TOL = 1e-9


def cell_table(result) -> dict[str, list[float]]:
    """``{"method|split|application": [rank corr, top-1 err, mean err]}``."""
    return {
        f"{cell.method}|{cell.split_name}|{cell.application}": [
            cell.rank_correlation, cell.top1_error_percent, cell.mean_error_percent,
        ]
        for method_results in result.results.values()
        for cell in method_results.cells
    }


def mismatches(cells: dict[str, list[float]], reference: dict[str, list[float]]) -> int:
    """Cells missing from either side or off by more than the tolerance."""
    bad = len(set(cells) ^ set(reference))
    for key, values in cells.items():
        expected = reference.get(key)
        if expected is None:
            continue
        for got, want in zip(values, expected):
            both_nan = math.isnan(got) and math.isnan(want)
            if not both_nan and not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                bad += 1
                break
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset-seed", type=int, required=True)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="PATH")
    parser.add_argument("--record", action="store_true",
                        help="write this seed's cells into --reference")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    from repro.data import spec_dataset
    from repro.experiments import ExperimentConfig, run_table2

    config = ExperimentConfig.fast()
    dataset = spec_dataset.build_default_dataset(
        noise_sigma=config.noise_sigma, seed=args.dataset_seed
    )
    with open(args.reference, encoding="utf-8") as handle:
        references = json.load(handle)
    reference = references["datasets"].get(str(args.dataset_seed), {})
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if args.setup_only:
        return 0

    walls, bad, checked = [], 0, 0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    window_start = time.monotonic()
    while True:
        started = time.perf_counter()
        result = run_table2(dataset, config)
        walls.append(time.perf_counter() - started)
        cells = cell_table(result)
        if args.record:
            references["datasets"][str(args.dataset_seed)] = cells
            with open(args.reference, "w", encoding="utf-8") as handle:
                json.dump(references, handle, indent=0, sort_keys=True)
            reference = cells
        checked += len(cells)
        bad += mismatches(cells, reference)
        elapsed = time.monotonic() - window_start
        # Stop before a further call would run past the measuring time.
        if elapsed + walls[-1] > args.seconds:
            break
    window_end = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_SELF)
    if recorder is not None:
        recorder.dump(args.trace)
    print(json.dumps({
        "walls_s": walls,
        "cells_per_call": len(cells),
        "checked": checked,
        "mismatches": bad,
        "cpu_s": (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime),
        "maxrss_kb": after.ru_maxrss,
        "window": [window_start, window_end],
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
