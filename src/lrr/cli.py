"""Command-line front end.

Subcommands::

    lrr solve            one representation solve, writes Z.csv / E.csv / result.json
    lrr segment          full segmentation pipeline, writes labels.csv / result.json
    lrr detect-outliers  solve + column-norm thresholding, ROC/AUC when truth given
    lrr replicate        run a built-in benchmark recipe, writes metrics + plot CSVs

Each ``cmd_*`` computes and returns ``(csvs, solution, fields)``: the
matrices to write as ``<name>.csv``, the solver's :class:`LrrSolution` (or
``None``), and the ``result.json`` fields it sets. :func:`main` alone times
the command, fills in the rest of the record, writes the files and picks
the exit code.

Exit codes: 0 success, 2 argument or parse error, 3 numerical failure,
4 the solve did not converge: it hit the iteration cap, or the residual it
reports is not below eps (results are still written).
"""

import argparse
import dataclasses
import os
import sys
import time

import numpy as np

from . import cluster, matio, metrics, recipes, solver, synth
from .errors import NumericalError, UndefinedMetricError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_NO_CONVERGENCE = 4

# The stopping fields of SolverOptions; each is one flag (--eps, ...) whose
# type and default are the field's own.
SCHEDULE = [f for f in dataclasses.fields(solver.SolverOptions) if f.name != "lam"]
SOLVER_FIELDS = ("iterations", "converged", "final_residuals", "objective",
                 "objective_trace", "warm_sweeps")


def _add_solver_args(p):
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="tradeoff weight on the error term")
    p.add_argument("--error-norm", dest="model", default="l21",
                   choices=list(solver.ERROR_MODELS))
    for f in SCHEDULE:
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                       default=f.default)


def _add_io_args(p, dictionary=True):
    """Input flags; ``--dict`` only where the command takes a dictionary,
    and then never together with ``--self``."""
    p.add_argument("--input", required=True, help="data matrix X as CSV")
    source = p.add_mutually_exclusive_group()
    if dictionary:
        source.add_argument("--dict", dest="dictionary", default=None,
                            help="dictionary matrix A as CSV (default: --self)")
    source.add_argument("--self", dest="self_mode", action="store_true",
                        help="use the data itself as the dictionary (default; no-op on segment)")
    p.add_argument("--header", action="store_true",
                   help="input CSVs carry a header row")
    p.add_argument("--normalize", action="store_true",
                   help="scale every input column to unit length before solving")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="k-means seed of segment, data seed of replicate (default:"
                             " 0); solve and detect-outliers only echo it")
    common.add_argument("--output", required=True, help="output directory")
    ap = argparse.ArgumentParser(prog="lrr")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[common], help="run one representation solve")
    _add_io_args(p)
    _add_solver_args(p)

    p = sub.add_parser("segment", parents=[common],
                       help="solve + affinity + spectral segmentation")
    _add_io_args(p, dictionary=False)
    _add_solver_args(p)
    p.add_argument("--k", default="auto", help="cluster count or 'auto'")
    p.add_argument("--tau", type=float, default=cluster.DEFAULT_TAU,
                   help="soft threshold for estimating the cluster count")
    p.add_argument("--delta", type=float, default=None,
                   help="column-norm threshold for outlier detection")
    p.add_argument("--truth", default=None, help="ground-truth labels CSV")

    p = sub.add_parser("detect-outliers", parents=[common],
                       help="solve + outlier thresholding")
    _add_io_args(p)
    _add_solver_args(p)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--truth", default=None,
                   help="0/1 outlier indicator CSV for ROC/AUC")

    p = sub.add_parser("replicate", parents=[common],
                       help="run a built-in benchmark recipe")
    p.add_argument("--figure", required=True, choices=list(recipes.RECIPES))

    return ap


def _solver_options(args):
    return solver.SolverOptions(lam=args.lam, **{f.name: getattr(args, f.name) for f in SCHEDULE})


def _load_input(args):
    X = matio.read_matrix_csv(args.input, header=args.header)
    if args.normalize:
        divisors, factors = synth._unit_scale(X)
        X = X / divisors * factors
    return X


def _read_truth(args, X):
    """The ``--truth`` vector, read and checked against the columns of X
    before any solve; ``None`` without ``--truth``."""
    if args.truth is None:
        return None
    truth = matio.read_int_vector(args.truth)
    if truth.size != X.shape[1]:
        raise ValueError(f"{args.truth} holds {truth.size} entries, "
                         f"the input has {X.shape[1]} samples")
    return truth


def _solve(args, X):
    opts = _solver_options(args)
    if args.dictionary is None:
        return solver.solve_lrr_self(X, args.model, opts)
    A = matio.read_matrix_csv(args.dictionary, header=args.header)
    return solver.solve_lrr(X, A, args.model, opts)


def cmd_solve(args):
    sol = _solve(args, _load_input(args))
    return {"Z": sol.Z, "E": sol.E}, sol, {}


def cmd_segment(args):
    X = _load_input(args)
    truth = _read_truth(args, X)
    opts = _solver_options(args)
    k = args.k if args.k == "auto" else int(args.k)
    result = cluster.segment(X, k, args.model, opts, tau=args.tau, delta=args.delta,
                             seed=args.seed)

    metric_values = {"k_hat": result.k_hat, "k_used": result.k,
                     "accuracy": None, "auc": None}
    reasons = {}
    if truth is not None:
        auth = truth >= 0
        if auth.any():
            metric_values["accuracy"] = metrics.segmentation_accuracy(
                result.labels[auth], truth[auth]
            )
        else:
            reasons["accuracy"] = "truth file holds no authentic samples"
        if result.outliers is not None:
            try:
                scores = np.linalg.norm(result.solution.E, axis=0)
                metric_values["auc"] = metrics.auc(scores, truth < 0)
            except UndefinedMetricError as exc:
                reasons["auc"] = str(exc)
        else:
            reasons["auc"] = "no delta provided"
    else:
        reasons["accuracy"] = "no ground truth"
        reasons["auc"] = "no ground truth"

    return {"labels": result.labels.reshape(-1, 1)}, result.solution, {
        "metrics": metric_values, "metric_reasons": reasons,
        "labels": result.labels, "outliers": result.outliers}


def cmd_detect_outliers(args):
    X = _load_input(args)
    truth = _read_truth(args, X)
    if args.delta is not None:
        cluster._check_delta(args.delta)
    sol = _solve(args, X)
    scores = np.linalg.norm(sol.E, axis=0)

    outliers = None
    metric_values = {"auc": None, "n_detected": None}
    reasons = {}
    if args.delta is not None:
        outliers = cluster.detect_outliers(sol.E, args.delta)
        metric_values["n_detected"] = int(outliers.size)
    else:
        reasons["n_detected"] = "no delta provided"
    csvs = {"scores": scores.reshape(1, -1)}
    if truth is not None:
        truth = truth.astype(bool)
        try:
            metric_values["auc"] = metrics.auc(scores, truth)
            csvs["roc"] = metrics.roc_sweep(scores, truth)
        except UndefinedMetricError as exc:
            reasons["auc"] = str(exc)
    else:
        reasons["auc"] = "no ground truth"

    return csvs, sol, {"metrics": metric_values, "metric_reasons": reasons,
                       "outliers": outliers}


def cmd_replicate(args):
    out = recipes.run_replication(args.figure, args.seed)
    csvs = {**out.tables, "X": out.dataset.X,
            "true_labels": out.dataset.true_labels.reshape(-1, 1)}
    return csvs, None, {"config": {"figure": args.figure, "seed": args.seed},
                        "metrics": out.metrics, "labels": out.labels,
                        "outliers": out.outliers}


COMMANDS = {
    "solve": cmd_solve,
    "segment": cmd_segment,
    "detect-outliers": cmd_detect_outliers,
    "replicate": cmd_replicate,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    started = time.perf_counter()
    try:
        csvs, sol, fields = COMMANDS[args.command](args)
        record = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "config": {k: v for k, v in vars(args).items() if k != "output"},
            "solver": None if sol is None else {f: getattr(sol, f) for f in SOLVER_FIELDS},
            "metrics": {}, "metric_reasons": {}, "labels": None, "outliers": None,
            **fields,
            "timing": {"total_s": time.perf_counter() - started},
        }
        os.makedirs(args.output, exist_ok=True)
        for name, matrix in csvs.items():
            matio.write_matrix_csv(os.path.join(args.output, f"{name}.csv"), matrix)
        matio.write_json(os.path.join(args.output, "result.json"), record)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK if sol is None or sol.converged else EXIT_NO_CONVERGENCE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
