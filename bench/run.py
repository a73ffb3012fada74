#!/usr/bin/env python3
"""secomp benchmark: one workload's CLI batch, timed and checked, in one process.

    python3 bench/run.py --workload region|order|simulate --seed N --seconds S --trace 0|1

Set-up runs ``bench/inputs.py`` in a fresh interpreter ``SETUP_REPEATS``
times (import secomp, write the distribution files) and reports the median
as ``setup_s``. The workload then calls ``secomp.cli.main(argv)`` in this
process, stdout captured, for whole rounds of its fixed command batch until
``--seconds`` have passed. With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced rounds and
reports the per-layer metrics, writing the spans to
``bench/out/trace-<workload>-<seed>.json``.

Outputs are checked after the timed rounds, so check time and check memory
stay out of the metrics. Every round must print byte-identical output.
The line ``failed_checks [...]`` lists each failed (check, command, joint).
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A command counts as failed when any of its checks fails; only the
known se-closed shortfall keeps ``correct`` true.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads, here and in the set-up children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 7
WORKLOADS = ("region", "order", "simulate")


def measure_setup(workload: str, seed: int, out: Path) -> float:
    times = []
    argv = [sys.executable, str(BENCH / "inputs.py"), "--workload", workload,
            "--seed", str(seed), "--out", str(out)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run(argv, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def best_latencies(rounds: list[list[float]]) -> list[float]:
    """Each command's fastest latency over the rounds.

    On a shared machine a fixed computation runs at one of two speeds, about
    1.5x apart, switching every second or so; how much of a run falls in the
    slow state moves a median by tens of percent from run to run, while the
    fastest of several rounds stays put.
    """
    return [min(lat) for lat in zip(*rounds)]


def run_round(cli, batch: list[dict], tracer, round_id: int) -> tuple[list[float], list[str]]:
    """Run the batch once; returns (per-command latencies, outputs)."""
    latencies, outputs = [], []
    for i, cmd in enumerate(batch):
        if tracer is not None:
            tracer.command = f"r{round_id}c{i}"
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(cmd["argv"])
        except SystemExit as exc:  # argparse rejecting a flag exits; count it, run on
            rc = exc.code
        except Exception as exc:  # a traceback is a failed command, not a dead run
            rc = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        outputs.append(buf.getvalue() if rc == 0 else f"exit {rc}\n{buf.getvalue()}")
    return latencies, outputs


def check_outputs(batch: list[dict], outputs: list[str], changed: set[int],
                  rounds: int) -> tuple[bool, int, Counter]:
    """(correct, commands failed per round, failed checks counted over all rounds)."""
    failures: Counter = Counter()
    correct, failed_per_round = True, 0
    for i, (cmd, output) in enumerate(zip(batch, outputs)):
        if output.startswith("exit "):
            results = [checks.Result("exit_status", "fail", output.splitlines()[0])]
        else:
            results = checks.check(cmd, output)
        if i in changed:
            results.append(checks.Result("byte_identical_rounds", "fail", "output changed"))
        bad = [r for r in results if r.status != "pass"]
        failed_per_round += bool(bad)
        correct &= all(r.status == "known" for r in bad)
        for r in bad:
            failures[(r.status, r.name, " ".join(cmd["argv"][:2]),
                      Path(cmd.get("joint", "-")).name, r.detail)] += rounds
    return correct, failed_per_round, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "secomp" / "__init__.py").is_file():
        print(f"error: no secomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"{args.workload}-") as tmp:
        setup_s = measure_setup(args.workload, args.seed, Path(tmp))
        from secomp import cli

        batch = json.loads((Path(tmp) / "manifest.json").read_text())
        tracer = tracing.Tracer() if args.trace else None
        latencies: dict[bool, list[list[float]]] = {False: [], True: []}
        first_outputs: list[str] | None = None
        changed: set[int] = set()
        rounds = 0
        begin = time.perf_counter()
        # Whole rounds only, so the failed share is the same in every run; a
        # traced run needs at least one untraced and one traced round.
        while (not latencies[False] or time.perf_counter() - begin < args.seconds
               or (args.trace and not latencies[True])):
            traced = bool(args.trace) and rounds % 2 == 1
            if traced:
                tracer.install()
            lat, outputs = run_round(cli, batch, tracer if traced else None, rounds)
            if traced:
                tracer.uninstall()
            latencies[traced].append(lat)
            if first_outputs is None:
                first_outputs = outputs
            changed.update(i for i, o in enumerate(outputs) if o != first_outputs[i])
            rounds += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        correct, failed_per_round, failures = check_outputs(batch, first_outputs, changed, rounds)

    attempted = rounds * len(batch)
    failed = rounds * failed_per_round
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds of {len(batch)} commands")
    print(f"attempted {attempted} failed {failed}")
    for (status, name, command, joint, detail), count in sorted(failures.items()):
        print(f"{'KNOWN ' if status == 'known' else ''}FAILED {name} x{count}: {command} {joint}: {detail}")
    # Machine-readable, for steady.py: which checks failed on which commands.
    print("failed_checks " + json.dumps(sorted({key[1:4] for key in failures})))

    if args.trace:
        traced_wall = sum(map(sum, latencies[True]))
        overhead = sum(best_latencies(latencies[True])) - sum(best_latencies(latencies[False]))
        metrics = tracing.layer_metrics(tracer.spans, len(latencies[True]), traced_wall, overhead)
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(trace_path, {
            "layer_metrics": {name: m["value"] for name, m in metrics.items()},
            "self_s_per_round": tracing.self_time_by_name(tracer.spans, len(latencies[True])),
        })
        print(f"spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}"
              f"; absent: {', '.join(tracer.absent) or 'none'}")
        # The result line carries a number for every per-layer metric; one this
        # workload gave no spans for reads 0 there and is named here (null in
        # the trace file), so it does not pass for a speed-up.
        no_spans = [name for name, m in metrics.items() if m["value"] is None]
        print(f"no spans (reported as 0): {', '.join(no_spans) or 'none'}")
        for name in no_spans:
            metrics[name]["value"] = 0.0
    else:
        best = best_latencies(latencies[False])
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": sum(best), "unit": "s"},
            "cmd_p50_s": {"value": statistics.median(best), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
