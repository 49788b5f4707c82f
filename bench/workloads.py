"""The benchmark workloads.

Each workload has these parts. ``setup`` makes its inputs from the seed
and warms the code up; it is timed as set-up. ``run`` is one round of the
workload's operations, the only part that is timed as work; ``operations``
names them. ``check`` checks the outputs of one round with :mod:`checks`,
outside the timed span, and returns one ``(operation, failure, problems)``
triple per operation: ``failure`` says why the operation did not complete
as documented (``None`` if it did), ``problems`` what is wrong with the
outputs of one that did.

Why these workloads (each stresses other layers):

- ``fig6_direct``: the paper's mixed-error experiment and the largest
  solve. Rank 500 puts it on the direct path (no dictionary reduction), so
  the 500x500 SVT and the 2000x500 products of the solver dominate and no
  file is read or written.
- ``fig4_grid``: five small solves on one 200x250 matrix of rank 70 on the
  reduced-dictionary path: many small BLAS calls, five identical
  reductions of the same X, no large products and no file I/O.
- ``cli_pipeline``: the command-line front end on CSV inputs, the only
  workload in which ``cli``, ``matio`` and ``metrics`` do real work and
  the only one on the l1, frobenius_sq and closed-form paths.
"""

import contextlib
import json
import os
import shutil

import numpy as np

import checks
from lrr import cli, cluster, matio, recipes, solver, synth

# fig6 lands near recovery error 0.13 on every seed tried; the paper's
# claim is near recovery, not exact recovery.
FIG6_RECOVERY_RANGE = (0.10, 0.25)
# fig4 reports a lambda as exact when its outliers separate and its
# recovery error is at most this. Whether that happens is a property of
# the seed, not of the program: at lambda = 0.16 it fails on 4 of the
# seeds 0-99 (see README), so the check is that the recipe reports it right.
FIG4_EXACT_RECOVERY = 1e-3


@contextlib.contextmanager
def captured_solutions():
    """Collect every ``solver.solve_lrr_self`` result while active.

    The recipes return metrics but not the iterates; the checks need Z and
    E, so they are taken from the solver call on the way out.
    """
    inner = solver.solve_lrr_self
    got = []

    def capturing(*args, **kwargs):
        sol = inner(*args, **kwargs)
        got.append(sol)
        return sol

    solver.solve_lrr_self = capturing
    try:
        yield got
    finally:
        solver.solve_lrr_self = inner


def _warm_up():
    """One tiny self-expressive solve and segmentation, so that the first
    timed round pays no first-call cost (BLAS thread start, lazy imports)."""
    ens = synth.gen_ensemble(2, 2, 12, mode="independent", seed=0)
    ds = synth.sample(ens, 6, seed=1)
    sol = solver.solve_lrr_self(ds.X, "l21", solver.SolverOptions(lam=1.0, max_iters=50))
    cluster.ncut_segment(cluster.build_affinity(sol.Z), 2, seed=0)


def _converged(sol):
    return [] if sol.converged else [f"not converged after {sol.iterations} iterations"]


class Fig6Direct:
    name = "fig6_direct"

    def __init__(self, seed, out_dir):
        self.seed = seed

    def setup(self):
        _warm_up()

    def operations(self):
        return ["solve"]

    def prepare_round(self):
        pass

    def run(self):
        with captured_solutions() as sols:
            out = recipes.replicate_fig6(self.seed)
        return out, sols

    def check(self, result):
        out, sols = result
        if len(sols) != 1:
            return [("solve", f"expected 1 solve, saw {len(sols)}", [])]
        sol = sols[0]
        X = out.dataset.X
        lam = out.config["lambda"]
        problems = _converged(sol)
        problems += checks.solution(X, X, sol.Z, sol.E, lam, "l21", sol.objective,
                                    seed=self.seed)
        problems += checks.recovery_within(sol.Z, out.dataset.V0, *FIG6_RECOVERY_RANGE)
        return [("solve", None, problems)]


class Fig4Grid:
    name = "fig4_grid"

    def __init__(self, seed, out_dir):
        self.seed = seed

    def setup(self):
        _warm_up()

    def operations(self):
        return [f"lambda={lam:g}" for lam in recipes.FIG4_LAMBDAS]

    def prepare_round(self):
        pass

    def run(self):
        with captured_solutions() as sols:
            out = recipes.replicate_fig4(self.seed)
        return out, sols

    def check(self, result):
        out, sols = result
        lambdas = out.config["lambdas"]
        if len(sols) != len(lambdas):
            return [(op, f"expected {len(lambdas)} solves, saw {len(sols)}", [])
                    for op in self.operations()]
        ds = out.dataset
        X = ds.X
        ops = []
        for i, (lam, sol) in enumerate(zip(lambdas, sols)):
            problems = _converged(sol)
            problems += checks.solution(X, X, sol.Z, sol.E, lam, "l21", sol.objective,
                                        seed=self.seed * 1000 + i)
            problems += checks.in_row_space(X, sol.Z)
            reported = out.metrics["per_lambda"][f"{lam:g}"]
            err = checks.recovery_error(sol.Z, ds.V0)
            problems += checks.equal("recovery_error", reported["recovery_error"], err,
                                     rtol=1e-9)
            separated = checks.outliers_separated(sol.E, ds.outlier_indices)
            exact = separated and err <= FIG4_EXACT_RECOVERY
            for key, value in (("supports_exact", separated), ("exact_recovery", exact)):
                if reported[key] != value:
                    problems.append(f"{key} {reported[key]} reported, {value} recomputed")
            ops.append((f"lambda={lam:g}", None, problems))
        return ops


class CliPipeline:
    name = "cli_pipeline"

    # (operation, expected exit code). The overflow call scales its X by
    # 1e160, so A^T A overflows in the solver; the CLI documents exit 3 for
    # a numerical failure.
    OPERATIONS = (
        ("segment", 0),
        ("detect-outliers", 0),
        ("solve-l1-dict", 0),
        ("solve-frobenius-self", 0),
        ("replicate-fig3", 0),
        ("solve-overflow", 3),
    )

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.inputs = os.path.join(out_dir, "inputs")
        self.outputs = os.path.join(out_dir, "outputs")
        self.data = {}

    def _in(self, name):
        return os.path.join(self.inputs, name)

    def _out(self, name):
        return os.path.join(self.outputs, name)

    def setup(self):
        os.makedirs(self.inputs, exist_ok=True)
        s = [int(v) for v in np.random.SeedSequence(self.seed).generate_state(8)]

        # 9 clean independent subspaces: estimate_k finds 9 and the k! label
        # matching runs in full.
        ens = synth.gen_ensemble(9, 3, 90, mode="independent", seed=s[0])
        seg = synth.normalize_columns(synth.sample(ens, 12, seed=s[1]))
        matio.write_matrix_csv(self._in("seg_X.csv"), seg.X)
        matio.write_matrix_csv(self._in("seg_truth.csv"),
                               seg.true_labels.reshape(-1, 1).astype(float))

        # 4 subspaces plus 15 appended outliers at 3x the sample magnitude.
        ens = synth.gen_ensemble(4, 3, 100, mode="independent", seed=s[2])
        out = synth.sample(ens, 15, seed=s[3])
        out = synth.normalize_columns(synth.add_outliers(out, 15, 3.0, seed=s[4]))
        flags = (out.true_labels < 0).astype(float).reshape(-1, 1)
        matio.write_matrix_csv(self._in("out_X.csv"), out.X)
        matio.write_matrix_csv(self._in("out_flags.csv"), flags)

        # A dictionary of clean samples and data from the same subspaces with
        # 5% of its entries grossly corrupted.
        rng = np.random.default_rng(s[5])
        ens = synth.gen_ensemble(5, 3, 100, mode="independent", seed=s[6])
        A = synth.normalize_columns(synth.sample(ens, 6, seed=s[7])).X
        clean = synth.normalize_columns(synth.sample(ens, 12, seed=s[7] + 1)).X
        mask = rng.random(clean.shape) < 0.05
        X_l1 = clean + mask * rng.normal(0.0, 0.5, size=clean.shape)
        matio.write_matrix_csv(self._in("l1_A.csv"), A)
        matio.write_matrix_csv(self._in("l1_X.csv"), X_l1)

        # Noisy samples for the frobenius_sq solve. X is tall (100x60): on
        # wide full-row-rank data this solve fails on most seeds (see README).
        noisy = synth.normalize_columns(
            synth.add_noise(synth.sample(ens, 12, seed=s[7] + 2), 0.1, seed=s[7] + 3))
        matio.write_matrix_csv(self._in("frob_X.csv"), noisy.X)

        # The overflow call fails on every run; its input is the same for
        # every --seed, so the failed share cannot depend on the seed.
        fixed = synth.gen_ensemble(5, 3, 100, mode="independent", seed=0)
        big = synth.normalize_columns(synth.sample(fixed, 12, seed=1)).X * 1e160
        matio.write_matrix_csv(self._in("big_X.csv"), big)

        self.data = {"seg_truth": seg.true_labels, "out_flags": flags.ravel() > 0,
                     "l1_A": A, "l1_X": X_l1, "frob_X": noisy.X}
        _warm_up()

    def argv(self, op):
        seed = str(self.seed)
        if op == "segment":
            return ["segment", "--input", self._in("seg_X.csv"), "--self",
                    "--lambda", "1000", "--k", "auto", "--truth", self._in("seg_truth.csv"),
                    "--seed", seed, "--output", self._out("segment")]
        if op == "detect-outliers":
            return ["detect-outliers", "--input", self._in("out_X.csv"), "--self",
                    "--lambda", "0.3", "--delta", "0.5",
                    "--truth", self._in("out_flags.csv"),
                    "--seed", seed, "--output", self._out("detect-outliers")]
        if op == "solve-l1-dict":
            return ["solve", "--input", self._in("l1_X.csv"), "--dict", self._in("l1_A.csv"),
                    "--error-norm", "l1", "--lambda", "0.1",
                    "--seed", seed, "--output", self._out("solve-l1-dict")]
        if op == "solve-frobenius-self":
            return ["solve", "--input", self._in("frob_X.csv"), "--self",
                    "--error-norm", "frobenius_sq", "--lambda", "1",
                    "--seed", seed, "--output", self._out("solve-frobenius-self")]
        if op == "replicate-fig3":
            return ["replicate", "--figure", "fig3", "--seed", seed,
                    "--output", self._out("replicate-fig3")]
        if op == "solve-overflow":
            return ["solve", "--input", self._in("big_X.csv"), "--self",
                    "--error-norm", "l21", "--lambda", "0.3",
                    "--seed", seed, "--output", self._out("solve-overflow")]
        raise ValueError(op)

    def operations(self):
        return [op for op, _ in self.OPERATIONS]

    def prepare_round(self):
        # Outputs of an earlier round must not pass for this round's.
        shutil.rmtree(self.outputs, ignore_errors=True)

    def run(self):
        return [(op, cli.main(self.argv(op))) for op, _ in self.OPERATIONS]

    def check(self, result):
        expected = dict(self.OPERATIONS)
        ops = []
        for op, code in result:
            if code != expected[op]:
                ops.append((op, f"exit code {code}, expected {expected[op]}", []))
                continue
            try:
                problems = self._check_outputs(op)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            ops.append((op, None, problems))
        return ops

    def _record(self, op):
        with open(os.path.join(self._out(op), "result.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def _matrix(self, op, name):
        return np.loadtxt(os.path.join(self._out(op), name), delimiter=",", ndmin=2)

    def _check_outputs(self, op):
        if op == "segment":
            labels = self._matrix(op, "labels.csv").ravel().astype(int)
            acc = checks.assignment_accuracy(labels, self.data["seg_truth"])
            return checks.equal("accuracy", self._record(op)["metrics"]["accuracy"], acc)
        if op == "detect-outliers":
            scores = self._matrix(op, "scores.csv").ravel()
            auc = checks.mann_whitney_auc(scores, self.data["out_flags"])
            return checks.equal("auc", self._record(op)["metrics"]["auc"], auc)
        if op == "solve-l1-dict":
            Z, E = self._matrix(op, "Z.csv"), self._matrix(op, "E.csv")
            return checks.feasibility(self.data["l1_X"], self.data["l1_A"], Z, E)
        if op == "solve-frobenius-self":
            Z, E = self._matrix(op, "Z.csv"), self._matrix(op, "E.csv")
            X = self.data["frob_X"]
            return checks.feasibility(X, X, Z, E)
        if op == "replicate-fig3":
            record = self._record(op)
            truth = self._matrix(op, "true_labels.csv").ravel().astype(int)
            acc = checks.majority_accuracy(record["labels"], truth)
            return checks.equal("segmentation_accuracy",
                                record["metrics"]["segmentation_accuracy"], acc)
        return []


WORKLOADS = {w.name: w for w in (Fig6Direct, Fig4Grid, CliPipeline)}
