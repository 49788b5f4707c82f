"""Command-line front end.

Subcommands::

    lrr solve            one representation solve, writes Z.csv / E.csv / result.json
    lrr segment          full segmentation pipeline, writes labels.csv / result.json
    lrr detect-outliers  solve + column-norm thresholding, ROC/AUC when truth given
    lrr replicate        run a built-in benchmark recipe, writes metrics + plot CSVs

Exit codes: 0 success, 2 argument or parse error, 3 numerical failure,
4 solver hit the iteration cap (results are still written).
"""

import argparse
import json
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


def _default_seed():
    env = os.environ.get("LRR_SEED")
    return int(env) if env else 0


def _add_solver_args(p, need_lambda=True):
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="tradeoff weight on the error term")
    p.add_argument("--lambda-preset", choices=["motion"], default=None,
                   help="named preset (motion = 4.0) instead of --lambda")
    p.add_argument("--error-norm", dest="model", default="l21",
                   choices=list(solver.ERROR_MODELS))
    p.add_argument("--mu-init", type=float, default=1e-6)
    p.add_argument("--mu-max", type=float, default=1e6)
    p.add_argument("--rho", type=float, default=1.1)
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--max-iters", type=int, default=1000)


def _add_io_args(p):
    p.add_argument("--input", required=True, help="data matrix X as CSV")
    p.add_argument("--dict", dest="dictionary", default=None,
                   help="dictionary matrix A as CSV (default: --self)")
    p.add_argument("--self", dest="self_mode", action="store_true",
                   help="use the data itself as the dictionary")
    p.add_argument("--header", action="store_true",
                   help="input CSVs carry a header row")
    p.add_argument("--normalize", action="store_true",
                   help="scale every input column to unit length before solving")


def build_parser():
    ap = argparse.ArgumentParser(prog="lrr")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one representation solve")
    _add_io_args(p)
    _add_solver_args(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", required=True, help="output directory")

    p = sub.add_parser("segment", help="solve + affinity + spectral segmentation")
    _add_io_args(p)
    _add_solver_args(p)
    p.add_argument("--k", default="auto", help="cluster count or 'auto'")
    p.add_argument("--tau", type=float, default=cluster.DEFAULT_TAU,
                   help="soft threshold for estimating the cluster count")
    p.add_argument("--delta", type=float, default=None,
                   help="column-norm threshold for outlier detection")
    p.add_argument("--truth", default=None, help="ground-truth labels CSV")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", required=True)

    p = sub.add_parser("detect-outliers", help="solve + outlier thresholding")
    _add_io_args(p)
    _add_solver_args(p)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--truth", default=None,
                   help="0/1 outlier indicator CSV for ROC/AUC")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", required=True)

    p = sub.add_parser("replicate", help="run a built-in benchmark recipe")
    p.add_argument("--figure", required=True, choices=list(recipes.FIGURES))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", required=True)

    return ap


def _solver_options(args):
    if args.lam is None and args.lambda_preset == "motion":
        lam = 4.0
    elif args.lam is not None:
        lam = args.lam
    else:
        raise ValueError("--lambda (or --lambda-preset) is required")
    return solver.SolverOptions(lam=lam, mu_init=args.mu_init, mu_max=args.mu_max,
                                rho=args.rho, eps=args.eps,
                                max_iters=args.max_iters,
                                seed=args.seed if args.seed is not None else _default_seed())


def _load_input(args):
    X = matio.read_matrix_csv(args.input, header=args.header)
    if args.normalize:
        X = X * synth.unit_column_scale(X)
    A = None
    if args.dictionary is not None:
        A = matio.read_matrix_csv(args.dictionary, header=args.header)
    return X, A


def _solve(args):
    X, A = _load_input(args)
    opts = _solver_options(args)
    if A is None:
        return solver.solve_lrr_self(X, args.model, opts)
    return solver.solve_lrr(X, A, args.model, opts)


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _solution_record(sol):
    return {
        "iterations": sol.iterations,
        "converged": bool(sol.converged),
        "final_residuals": [float(r) for r in sol.final_residuals],
        "objective": sol.objective,
        "objective_trace": sol.objective_trace.tolist(),
    }


def _result_record(command, config, solver_diag, metric_values, metric_reasons,
                   labels, outliers, started):
    return _jsonable({
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "solver": solver_diag,
        "metrics": metric_values,
        "metric_reasons": metric_reasons,
        "labels": labels,
        "outliers": outliers,
        "timing": {"total_s": time.perf_counter() - started},
    })


def _write_outputs(output, csvs, record):
    """Write each matrix of ``csvs`` to ``<output>/<name>.csv`` and the
    record to ``<output>/result.json``."""
    os.makedirs(output, exist_ok=True)
    for name, matrix in csvs.items():
        matio.write_matrix_csv(os.path.join(output, f"{name}.csv"), matrix)
    matio.write_json(os.path.join(output, "result.json"), record)


def _config_echo(args, skip=("output",)):
    cfg = {k: v for k, v in vars(args).items() if k not in skip and k != "func"}
    return _jsonable(cfg)


def cmd_solve(args):
    started = time.perf_counter()
    sol = _solve(args)
    record = _result_record("solve", _config_echo(args), _solution_record(sol),
                            {}, {}, None, None, started)
    _write_outputs(args.output, {"Z": sol.Z, "E": sol.E}, record)
    return EXIT_OK if sol.converged else EXIT_NO_CONVERGENCE


def cmd_segment(args):
    started = time.perf_counter()
    X, A = _load_input(args)
    if A is not None:
        raise ValueError("segment runs in self-expressive mode; --dict is not supported")
    opts = _solver_options(args)
    k = args.k if args.k == "auto" else int(args.k)
    result = cluster.segment(X, k, args.model, opts, tau=args.tau, delta=args.delta)

    metric_values = {"k_hat": result.k_hat, "k_used": result.k,
                     "accuracy": None, "auc": None}
    reasons = {}
    if args.truth is not None:
        truth = matio.read_int_vector(args.truth)
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

    record = _result_record("segment", _config_echo(args),
                            _solution_record(result.solution), metric_values,
                            reasons, result.labels,
                            result.outliers, started)
    _write_outputs(args.output, {"labels": result.labels.reshape(-1, 1)}, record)
    return EXIT_OK if result.solution.converged else EXIT_NO_CONVERGENCE


def cmd_detect_outliers(args):
    started = time.perf_counter()
    sol = _solve(args)
    scores = np.linalg.norm(sol.E, axis=0)

    outliers = None
    metric_values = {"auc": None, "n_detected": None}
    reasons = {}
    if args.delta is not None:
        outliers = cluster.detect_outliers(sol.E, args.delta)
        metric_values["n_detected"] = int(outliers.size)
    else:
        reasons["n_detected"] = "no delta provided"
    roc = None
    if args.truth is not None:
        truth = matio.read_int_vector(args.truth).astype(bool)
        try:
            metric_values["auc"] = metrics.auc(scores, truth)
            roc = metrics.roc_sweep(scores, truth)
        except UndefinedMetricError as exc:
            reasons["auc"] = str(exc)
    else:
        reasons["auc"] = "no ground truth"

    csvs = {"scores": scores.reshape(1, -1)}
    if roc is not None:
        csvs["roc"] = roc
    record = _result_record("detect-outliers", _config_echo(args),
                            _solution_record(sol), metric_values, reasons,
                            None, outliers, started)
    _write_outputs(args.output, csvs, record)
    return EXIT_OK if sol.converged else EXIT_NO_CONVERGENCE


def cmd_replicate(args):
    started = time.perf_counter()
    seed = args.seed if args.seed is not None else _default_seed()
    out = recipes.run_replication(args.figure, seed)
    csvs = dict(out.tables)
    if out.dataset is not None:
        csvs["X"] = out.dataset.X
        csvs["true_labels"] = out.dataset.true_labels.reshape(-1, 1)
    record = _result_record("replicate", {"figure": args.figure, "seed": seed},
                            None, out.metrics, {}, out.labels, out.outliers,
                            started)
    _write_outputs(args.output, csvs, record)
    return EXIT_OK


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
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
