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
import functools
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

SOLVER_FIELDS = ("iterations", "converged", "final_residuals", "objective",
                 "objective_trace", "warm_sweeps")


def _add_solver_args(p):
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="tradeoff weight on the error term")
    p.add_argument("--error-norm", dest="model", default="l21",
                   choices=list(solver.ERROR_MODELS))
    p.add_argument("--eps", type=float, default=solver.SolverOptions.eps)
    p.add_argument("--max-iters", type=int, default=solver.SolverOptions.max_iters)


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


def _seed(text):
    """A ``--seed`` value: a non-negative integer, checked before any work."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


@functools.cache
def build_parser():
    """The ``lrr`` argument parser, built once per process: parsing leaves
    it unchanged, and :func:`main` would otherwise rebuild it on every
    call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=0,
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
    p.add_argument("--truth", default=None, help="labels CSV; a negative id marks an outlier")

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
    return solver.SolverOptions(lam=args.lam, eps=args.eps, max_iters=args.max_iters)


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


def _outlier_step(args, X, flags):
    """The outlier step of ``segment`` and ``detect-outliers``. Before the
    solve, reads ``--truth`` (``None`` without it), takes its outlier flags
    ``flags(truth)`` and checks ``--delta``; returns the truth and ``score``.
    ``score(E)`` returns E's column norms and the step's ``result.json``
    fields: the columns above ``--delta`` and the AUC of the norms against
    the flags, each ``None`` with a reason where undefined."""
    truth = _read_truth(args, X)
    positive = None if truth is None else flags(truth)
    if args.delta is not None:
        cluster._check_delta(args.delta)

    def score(E):
        scores = np.linalg.norm(E, axis=0)
        values, reasons = {"auc": None}, {}
        if positive is None:
            reasons["auc"] = "no ground truth"
        else:
            try:
                values["auc"] = metrics.auc(scores, positive)
            except UndefinedMetricError as exc:
                reasons["auc"] = str(exc)
        outliers = None if args.delta is None else cluster.detect_outliers(E, args.delta)
        return scores, {"metrics": values, "metric_reasons": reasons, "outliers": outliers}

    return truth, score


def cmd_segment(args):
    X = _load_input(args)
    truth, score = _outlier_step(args, X, lambda truth: truth < 0)
    result = cluster.segment(X, args.k, args.model, _solver_options(args), tau=args.tau,
                             seed=args.seed)
    _, fields = score(result.solution.E)
    values, reasons = fields["metrics"], fields["metric_reasons"]
    values.update(k_hat=result.k_hat, k_used=result.k, accuracy=None)
    auth = None if truth is None else truth >= 0
    if auth is None:
        reasons["accuracy"] = "no ground truth"
    elif auth.any():
        values["accuracy"] = metrics.segmentation_accuracy(result.labels[auth], truth[auth])
    else:
        reasons["accuracy"] = "truth file holds no authentic samples"
    return {"labels": result.labels.reshape(-1, 1)}, result.solution, {
        **fields, "labels": result.labels}


def cmd_detect_outliers(args):
    def flags(truth):
        if not np.isin(truth, (0, 1)).all():
            raise ValueError(f"{args.truth} holds values other than the 0/1 outlier flags")
        return truth

    X = _load_input(args)
    truth, score = _outlier_step(args, X, flags)
    sol = _solve(args, X)
    scores, fields = score(sol.E)
    csvs = {"scores": scores.reshape(1, -1)}
    if fields["metrics"]["auc"] is not None:
        csvs["roc"] = metrics.roc_sweep(scores, truth)
    outliers = fields["outliers"]
    fields["metrics"]["n_detected"] = None if outliers is None else int(outliers.size)
    if outliers is None:
        fields["metric_reasons"]["n_detected"] = "no delta provided"
    return csvs, sol, fields


def cmd_replicate(args):
    # the module attribute, not the RECIPES value, so that a wrapper set on
    # it (a tracer, a test spy) sees the call
    out = getattr(recipes, f"replicate_{args.figure}")(args.seed)
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
