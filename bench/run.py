"""Benchmark of the LRR stack, one workload per invocation.

    python3 bench/run.py --workload fig6_direct|fig4_grid|cli_pipeline
                         --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports the package from
``src/`` and writes its outputs under ``bench/out/``. The workload runs in
a process of its own (``worker.py``), so its peak resident set is its own,
with the BLAS threading a user gets by default.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: the medians over the run's rounds of ``wall_s``
and ``cpu_s`` (process user + system time over the same span), the peak
resident set ``peak_rss_mb`` at the end of the first round (before the
checks, which load SciPy modules the program does not use), and
``setup_s``, the median over ``SETUP_SAMPLES`` process starts of the time
from start to the first timed operation. With ``--trace 1`` the workload
runs with spans recorded and the object holds the per-layer metrics of
:mod:`tracer` (medians over rounds for times; counts per round). Either way
it also holds ``correct``, ``attempted`` and ``failed``.

Exits 0 with that line, or non-zero without it if the program cannot be
found or a worker fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("fig6_direct", "fig4_grid", "cli_pipeline")
# Set-up is sampled in this many processes per run (SETUP_SAMPLES - 1
# set-up-only processes plus the measured one); the median is reported.
SETUP_SAMPLES = 5
# A run must end within 180 s; the workers share what is left of it.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _worker(args, mode, deadline):
    spawned = time.perf_counter()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--spawned", repr(spawned),
           "--out", os.path.join(OUT, args.workload)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(deadline - time.perf_counter(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} worker for {args.workload} exited with "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    started = time.perf_counter()
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be nonnegative and --seconds positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "lrr", "__init__.py")):
        print(f"error: no lrr package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = started + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_worker(args, "setup", deadline)["setup_s"])
        run = _worker(args, "run", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rounds = run["rounds"]
    if args.trace:
        metrics = {}
        layers = [r["layers"] for r in rounds]
        for name, unit in tracer.METRICS.items():
            values = [layer[name] for layer in layers]
            if name in tracer.COUNTS:
                if len(set(values)) > 1:
                    print(f"warning: {name} differs between rounds: {values}",
                          file=sys.stderr)
                value = values[0]
            else:
                value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
    else:
        setups.append(run["setup_s"])
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rounds[0]["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"wall {[round(r['wall_s'], 3) for r in rounds]}, "
          f"setup {[round(t, 3) for t in setups]}", file=sys.stderr)
    print(json.dumps({"correct": not run["incorrect"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
