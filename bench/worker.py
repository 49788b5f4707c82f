"""One benchmark process for one workload; started by ``run.py``.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
                            --mode setup|run --spawned T --out DIR

``--spawned`` is the parent's ``time.perf_counter()`` just before it
started this process (the clock is system-wide on Linux), so set-up time
counts interpreter start, imports, input generation and warm-up.

In ``setup`` mode the process stops at the first timed operation and
reports its set-up time. In ``run`` mode it runs whole rounds of the
workload until the timed work adds up to ``--seconds``, checks every
round's outputs outside the timed span, and prints one JSON object as the
last line of its standard output. With ``--trace 1`` it records spans
(see :mod:`tracer`), writes them to ``DIR/trace-<workload>-<seed>.json``
and reports per-layer metrics per round.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_program():
    sys.path.insert(0, SRC)
    import lrr

    where = os.path.dirname(os.path.abspath(lrr.__file__))
    if where != os.path.join(SRC, "lrr"):
        raise ImportError(f"lrr imported from {where}, not from {SRC}")


def main(argv=None):
    ap = argparse.ArgumentParser(prog="worker.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    _import_program()
    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.out)
    workload.setup()
    trace = None
    if args.trace:
        trace = tracer.Tracer()
        per_span = trace.per_span_cost()
        trace.install()
    workload.prepare_round()
    setup_s = time.perf_counter() - args.spawned
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rounds = []
    spans_out = []
    attempted = failed = 0
    incorrect = []
    measured = 0.0
    while True:
        if rounds:
            workload.prepare_round()
        w0 = time.perf_counter()
        c0 = time.process_time()
        try:
            result, error = workload.run(), None
        except Exception as exc:  # the program failed; the round is recorded
            result, error = None, exc
            traceback.print_exc()
        wall = time.perf_counter() - w0
        cpu = time.process_time() - c0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        entry = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_mb}
        if trace is not None:
            spans = trace.take()
            entry["layers"] = tracer.layer_metrics(spans, wall, per_span)
            spans_out.append([s.as_record() for s in spans])
        if error is not None:
            ops = [(op, f"raised {error!r}", []) for op in workload.operations()]
        else:
            ops = workload.check(result)
        if trace is not None:
            trace.take()
        for op, failure, problems in ops:
            attempted += 1
            if failure is not None or problems:
                failed += 1
                print(f"{args.workload} round {len(rounds)} {op}: "
                      f"{failure or '; '.join(problems)}", file=sys.stderr)
            if failure is None and problems:
                incorrect.append(op)
        rounds.append(entry)
        measured += wall
        if measured >= args.seconds:
            break

    if trace is not None:
        trace.uninstall()
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "rounds": spans_out}, fh)

    print(json.dumps({"setup_s": setup_s, "rounds": rounds, "attempted": attempted,
                      "failed": failed, "incorrect": incorrect}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
