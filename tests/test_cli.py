import dataclasses
import os
import stat
import tempfile

import hypothesis
import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest

import oracles
from lrr import cluster, matio, metrics, solver, synth
from lrr.cli import main

# Top-level keys of result.json, as documented in the README.
RESULT_KEYS = {"schema_version", "command", "config", "solver", "metrics",
               "metric_reasons", "labels", "outliers", "timing"}


def write_dataset(tmp_path, seed=0, outliers=0):
    ens = synth.gen_ensemble(3, 2, 48, mode="independent", seed=seed)
    ds = synth.sample(ens, 6, seed=seed + 1)
    if outliers:
        ds = synth.normalize_columns(synth.add_outliers(ds, outliers, 3.0, seed=seed + 2))
    x_path = tmp_path / "X.csv"
    matio.write_matrix_csv(x_path, ds.X)
    t_path = tmp_path / "truth.csv"
    matio.write_matrix_csv(t_path, ds.true_labels.reshape(-1, 1).astype(float))
    return ds, str(x_path), str(t_path)


class TestMatio:
    def test_round_trip_bit_identical(self, tmp_path):
        M = np.random.default_rng(0).standard_normal((7, 5)) * 1e3
        M[0, 0] = 1e-17
        p = tmp_path / "m.csv"
        matio.write_matrix_csv(p, M)
        back = matio.read_matrix_csv(p)
        assert np.array_equal(back, M)

    def test_header_round_trip(self, tmp_path):
        # the writer never writes a header; --header reads files that carry one
        M = np.arange(6.0).reshape(2, 3)
        p = tmp_path / "m.csv"
        matio.write_matrix_csv(p, M)
        p.write_text("c0,c1,c2\n" + p.read_text())
        assert np.array_equal(matio.read_matrix_csv(p, header=True), M)

    def test_single_row_and_column_shapes(self, tmp_path):
        for M in (np.ones((1, 4)), np.ones((4, 1)), np.ones((1, 1))):
            p = tmp_path / "m.csv"
            matio.write_matrix_csv(p, M)
            assert matio.read_matrix_csv(p).shape == M.shape

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                   elements=st.floats(allow_nan=False, allow_infinity=False)
                   | st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308])))
    @hypothesis.example(np.array([[5e-324, -0.0, 0.0, 1e300, -1e300, 1e308, -1e308]]))
    @hypothesis.example(np.array([[-0.0], [2.2250738585072014e-308], [-1e-320]]))
    def test_writer_bytes_match_reference(self, M):
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "m.csv")
            matio.write_matrix_csv(p, M)
            with open(p, "rb") as fh:
                assert fh.read() == oracles.csv_text_reference(M).encode()

    def test_failed_write_keeps_target_and_leaves_no_temp(self, tmp_path, monkeypatch):
        p = tmp_path / "m.csv"
        matio.write_matrix_csv(p, np.ones((2, 2)))
        before = p.read_bytes()
        real_fdopen = os.fdopen

        class FailsOnThirdLine:
            def __init__(self, fh):
                self.fh, self.lines = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.lines += 1
                if self.lines == 3:
                    raise OSError("disk full")
                return self.fh.write(text)

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

        monkeypatch.setattr(matio.os, "fdopen",
                            lambda *a, **k: FailsOnThirdLine(real_fdopen(*a, **k)))
        with pytest.raises(OSError, match="disk full"):
            matio.write_matrix_csv(p, np.arange(20.0).reshape(5, 4))
        assert p.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["m.csv"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_written_files_get_the_umask_mode(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            matio.write_matrix_csv(tmp_path / "m.csv", np.ones((2, 2)))
            matio.write_json(tmp_path / "r.json", {"a": 1})
        finally:
            os.umask(old)
        for name in ("m.csv", "r.json"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode
        assert sorted(os.listdir(tmp_path)) == ["m.csv", "r.json"]

    def test_parse_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError):
            matio.read_matrix_csv(p)


class TestSolveCommand:
    def test_self_solve_writes_outputs(self, tmp_path):
        ds, x_path, _ = write_dataset(tmp_path)
        out = tmp_path / "out"
        code = main(["solve", "--input", x_path, "--self", "--lambda", "1000",
                     "--error-norm", "l21", "--output", str(out)])
        assert code == 0
        Z = matio.read_matrix_csv(out / "Z.csv")
        E = matio.read_matrix_csv(out / "E.csv")
        assert Z.shape == (ds.n, ds.n) and E.shape == (ds.d, ds.n)
        record = matio.read_json(out / "result.json")
        assert record["schema_version"] == 1
        assert record["solver"]["converged"] is True
        # E never turns on at this lambda: all but the last few sweeps of
        # the l21 self solve are fast-forwarded
        assert 0 < record["solver"]["warm_sweeps"] < record["solver"]["iterations"]
        VVt = ds.V0 @ ds.V0.T
        assert np.linalg.norm(Z - VVt) < 1e-5 * np.linalg.norm(VVt)

    def test_dictionary_dimension_mismatch_exit_2(self, tmp_path):
        _, x_path, _ = write_dataset(tmp_path)
        a_path = tmp_path / "A.csv"
        matio.write_matrix_csv(a_path, np.ones((5, 3)))
        code = main(["solve", "--input", x_path, "--dict", str(a_path),
                     "--lambda", "1", "--output", str(tmp_path / "o")])
        assert code == 2

    def test_self_and_dict_together_exit_2(self, tmp_path):
        _, x_path, _ = write_dataset(tmp_path)
        out = tmp_path / "o"
        assert main(["solve", "--input", x_path, "--self", "--dict", x_path,
                     "--lambda", "1", "--output", str(out)]) == 2
        assert not out.exists()

    def test_missing_lambda_exit_2(self, tmp_path):
        _, x_path, _ = write_dataset(tmp_path)
        assert main(["solve", "--input", x_path, "--self",
                     "--output", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("flag", ["--mu-init", "--mu-max", "--rho", "--lambda-preset"])
    def test_removed_flag_exit_2(self, tmp_path, flag):
        # the penalty schedule is Algorithm 1's, and --lambda the one way to set lambda
        _, x_path, _ = write_dataset(tmp_path)
        value = "motion" if flag == "--lambda-preset" else "1.5"
        assert main(["solve", "--input", x_path, "--self", "--lambda", "1", flag, value,
                     "--output", str(tmp_path / "o")]) == 2

    def test_nonconvergence_exit_4_still_writes(self, tmp_path):
        _, x_path, _ = write_dataset(tmp_path)
        out = tmp_path / "o"
        code = main(["solve", "--input", x_path, "--self", "--lambda", "0.5",
                     "--max-iters", "3", "--output", str(out)])
        assert code == 4
        assert (out / "Z.csv").exists()
        assert matio.read_json(out / "result.json")["solver"]["converged"] is False

    def test_unconverged_below_the_cap_exit_4(self, tmp_path):
        # the loop stops on its own residual, but the residual on X, which
        # carries the rounding of the back-map at this scale, is above eps
        x_path = tmp_path / "X.csv"
        matio.write_matrix_csv(x_path, np.random.default_rng(28).standard_normal((10, 14)) * 1e7)
        out = tmp_path / "o"
        code = main(["solve", "--input", str(x_path), "--self", "--lambda", "1",
                     "--output", str(out)])
        assert code == 4
        record = matio.read_json(out / "result.json")["solver"]
        assert record["converged"] is False and record["iterations"] < 1000
        assert record["final_residuals"][0] >= 1e-8

    @pytest.mark.parametrize("model", solver.ERROR_MODELS)
    def test_zero_dictionary_exit_0(self, tmp_path, model):
        # Z = 0 and E = X is the exact answer
        ds, x_path, _ = write_dataset(tmp_path)
        a_path = tmp_path / "A.csv"
        matio.write_matrix_csv(a_path, np.zeros((ds.d, 3)))
        out = tmp_path / "o"
        code = main(["solve", "--input", x_path, "--dict", str(a_path), "--error-norm", model,
                     "--lambda", "1", "--output", str(out)])
        assert code == 0
        Z = matio.read_matrix_csv(out / "Z.csv")
        assert Z.shape == (3, ds.n) and not Z.any()
        assert np.array_equal(matio.read_matrix_csv(out / "E.csv"), ds.X)

    def test_replay_identical_except_timing(self, tmp_path):
        _, x_path, _ = write_dataset(tmp_path)
        o1, o2 = tmp_path / "r1", tmp_path / "r2"
        args = ["solve", "--input", x_path, "--self", "--lambda", "2",
                "--seed", "7"]
        assert main(args + ["--output", str(o1)]) == 0
        assert main(args + ["--output", str(o2)]) == 0
        r1 = matio.read_json(o1 / "result.json")
        r2 = matio.read_json(o2 / "result.json")
        r1.pop("timing"), r2.pop("timing")
        assert r1 == r2
        assert (o1 / "Z.csv").read_bytes() == (o2 / "Z.csv").read_bytes()

    def test_bad_csv_exit_2(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("not,numbers\n")
        assert main(["solve", "--input", str(p), "--self", "--lambda", "1",
                     "--output", str(tmp_path / "o")]) == 2

    def test_normalize_flag(self, tmp_path):
        _, x_path, _ = write_dataset(tmp_path)
        out = tmp_path / "o"
        assert main(["solve", "--input", x_path, "--self", "--lambda", "1000",
                     "--normalize", "--output", str(out)]) == 0

    def test_normalize_scales_columns_to_unit_length(self, tmp_path):
        ds, x_path, _ = write_dataset(tmp_path)
        unit_path = tmp_path / "unit.csv"
        matio.write_matrix_csv(unit_path, ds.X * (1.0 / np.linalg.norm(ds.X, axis=0)))
        args = ["solve", "--self", "--lambda", "1000"]
        n_out, u_out = tmp_path / "n", tmp_path / "u"
        assert main(args + ["--input", x_path, "--normalize", "--output", str(n_out)]) == 0
        assert main(args + ["--input", str(unit_path), "--output", str(u_out)]) == 0
        assert (n_out / "Z.csv").read_bytes() == (u_out / "Z.csv").read_bytes()

    @pytest.mark.parametrize("scale", [1e300, 1e-200, 1e-310])
    def test_normalize_at_extreme_scales(self, tmp_path, monkeypatch, scale):
        # the plain sum of squares of a column overflows at 1e300 and
        # underflows at 1e-200
        # at 1e-310 the entries are subnormal and no factor 1 / ||x|| is a float
        x_path = tmp_path / "X.csv"
        matio.write_matrix_csv(x_path, np.random.default_rng(0).standard_normal((6, 8)) * scale)
        real = cluster.solve_lrr_self
        seen = []

        def capturing(X, model, opts):
            seen.append(X)
            return real(X, model, opts)

        monkeypatch.setattr(cluster, "solve_lrr_self", capturing)
        assert main(["segment", "--input", str(x_path), "--k", "2", "--lambda", "0.5",
                     "--normalize", "--output", str(tmp_path / "o")]) == 0
        np.testing.assert_allclose(np.linalg.norm(seen[0], axis=0), 1.0, rtol=1e-14)

    def test_non_finite_iterate_exit_3(self, tmp_path, monkeypatch):
        _, x_path, _ = write_dataset(tmp_path)
        real = solver._column_shrink

        def poisoned(G, alpha):
            out, norms = real(G, alpha)
            out[0, 0] = np.nan
            return out, norms

        monkeypatch.setattr(solver, "_column_shrink", poisoned)
        out = tmp_path / "o"
        assert main(["solve", "--input", x_path, "--self", "--lambda", "1",
                     "--output", str(out)]) == 3
        assert not (out / "Z.csv").exists()

    @pytest.mark.parametrize("flag, field, value", [
        ("--eps", "eps", 1e-6),
        ("--max-iters", "max_iters", 50),
    ])
    def test_schedule_flag_reaches_solver_options(self, tmp_path, monkeypatch,
                                                  flag, field, value):
        _, x_path, _ = write_dataset(tmp_path)
        real = solver.solve_lrr_self
        seen = []

        def capturing(X, model, opts):
            seen.append(opts)
            return real(X, model, opts)

        monkeypatch.setattr(solver, "solve_lrr_self", capturing)
        assert main(["solve", "--input", x_path, "--self", "--lambda", "1000",
                     flag, str(value), "--output", str(tmp_path / "o")]) in (0, 4)
        assert seen == [dataclasses.replace(solver.SolverOptions(lam=1000.0),
                                            **{field: value})]

    def test_overflow_exit_3(self, tmp_path):
        ds, _, _ = write_dataset(tmp_path)
        big_path = tmp_path / "big.csv"
        matio.write_matrix_csv(big_path, ds.X * 1e160)
        assert main(["solve", "--input", str(big_path), "--self", "--lambda", "0.3",
                     "--output", str(tmp_path / "o")]) == 3

    def test_zero_dictionary_overflow_exit_3(self, tmp_path):
        # Z = 0 and E = X, whose squared Frobenius norm overflows
        x_path, a_path = tmp_path / "X.csv", tmp_path / "A.csv"
        matio.write_matrix_csv(x_path, np.random.default_rng(0).standard_normal((5, 4)) * 1e160)
        matio.write_matrix_csv(a_path, np.zeros((5, 3)))
        out = tmp_path / "o"
        assert main(["solve", "--input", str(x_path), "--dict", str(a_path),
                     "--error-norm", "frobenius_sq", "--lambda", "0.5",
                     "--output", str(out)]) == 3
        assert not out.exists()

    def test_frobenius_dictionary_overflow_exit_3(self, tmp_path):
        # the ADM's first squared Frobenius norm of E overflows
        rng = np.random.default_rng(0)
        x_path, a_path = tmp_path / "X.csv", tmp_path / "A.csv"
        matio.write_matrix_csv(x_path, rng.standard_normal((5, 4)) * 1e160)
        matio.write_matrix_csv(a_path, rng.standard_normal((5, 3)))
        out = tmp_path / "o"
        assert main(["solve", "--input", str(x_path), "--dict", str(a_path),
                     "--error-norm", "frobenius_sq", "--lambda", "1",
                     "--output", str(out)]) == 3
        assert not out.exists()

    def test_frobenius_self_on_huge_data_exit_0(self, tmp_path):
        # the closed form needs no I + X^T X, which overflows at this scale
        ds, _, _ = write_dataset(tmp_path)
        big_path = tmp_path / "big.csv"
        matio.write_matrix_csv(big_path, ds.X * 1e160)
        out = tmp_path / "o"
        assert main(["solve", "--input", str(big_path), "--self", "--lambda", "0.3",
                     "--error-norm", "frobenius_sq", "--output", str(out)]) == 0
        record = matio.read_json(out / "result.json")["solver"]
        assert record["iterations"] == 0 and record["converged"] is True
        assert record["objective_trace"] == [] and record["warm_sweeps"] == 0
        assert np.isfinite(matio.read_matrix_csv(out / "Z.csv")).all()


class TestSegmentCommand:
    def test_with_truth_accuracy_one(self, tmp_path):
        ds, x_path, t_path = write_dataset(tmp_path)
        out = tmp_path / "o"
        code = main(["segment", "--input", x_path, "--k", "3", "--lambda", "1000",
                     "--truth", t_path, "--output", str(out)])
        assert code == 0
        record = matio.read_json(out / "result.json")
        assert record["metrics"]["accuracy"] == 1.0
        labels = matio.read_int_vector(out / "labels.csv")
        assert labels.shape == (ds.n,)

    def test_auto_k(self, tmp_path):
        _, x_path, _ = write_dataset(tmp_path)
        out = tmp_path / "o"
        code = main(["segment", "--input", x_path, "--k", "auto", "--tau", "0.08",
                     "--lambda", "1000", "--output", str(out)])
        assert code == 0
        record = matio.read_json(out / "result.json")
        assert record["metrics"]["k_hat"] == 3
        assert record["metrics"]["k_used"] == 3

    def test_no_truth_metrics_null_with_reason(self, tmp_path):
        _, x_path, _ = write_dataset(tmp_path)
        out = tmp_path / "o"
        assert main(["segment", "--input", x_path, "--k", "3", "--lambda", "1000",
                     "--output", str(out)]) == 0
        record = matio.read_json(out / "result.json")
        assert record["metrics"]["accuracy"] is None
        assert record["metric_reasons"]["accuracy"] == "no ground truth"

    def test_truth_length_mismatch_exit_2(self, tmp_path):
        _, x_path, _ = write_dataset(tmp_path)
        t_path = tmp_path / "short.csv"
        matio.write_matrix_csv(t_path, np.zeros((5, 1)))
        out = tmp_path / "o"
        assert main(["segment", "--input", x_path, "--k", "3", "--lambda", "1000",
                     "--truth", str(t_path), "--output", str(out)]) == 2
        assert not out.exists()

    def test_dict_rejected_exit_2(self, tmp_path):
        _, x_path, _ = write_dataset(tmp_path)
        out = tmp_path / "o"
        assert main(["segment", "--input", x_path, "--dict", x_path, "--k", "3",
                     "--lambda", "1000", "--output", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--tau", "1.5"], ["--delta", "-1"],
                                       ["--k", "0"], ["--k", "999"]])
    def test_bad_parameter_exit_2_before_solving(self, tmp_path, monkeypatch, flags):
        _, x_path, _ = write_dataset(tmp_path)

        def no_solve(*args):
            raise AssertionError("solved before checking the parameters")

        monkeypatch.setattr(solver, "solve_lrr_self", no_solve)
        monkeypatch.setattr(cluster, "solve_lrr_self", no_solve)
        out = tmp_path / "o"
        assert main(["segment", "--input", x_path, "--lambda", "1000", *flags,
                     "--output", str(out)]) == 2
        assert not out.exists()

    def test_huge_truth_ids_give_compact_accuracy(self, tmp_path):
        ds, x_path, _ = write_dataset(tmp_path)
        t_path = tmp_path / "huge.csv"
        matio.write_matrix_csv(t_path, ds.true_labels.reshape(-1, 1) * 1e12)
        out = tmp_path / "o"
        # two clusters for three classes, so the accuracy is below 1
        assert main(["segment", "--input", x_path, "--k", "2", "--lambda", "1000",
                     "--truth", str(t_path), "--output", str(out)]) == 0
        labels = matio.read_int_vector(out / "labels.csv")
        accuracy = matio.read_json(out / "result.json")["metrics"]["accuracy"]
        assert accuracy == metrics.segmentation_accuracy(labels, ds.true_labels)
        assert accuracy < 1.0


class TestDetectOutliersCommand:
    def test_with_truth_and_delta(self, tmp_path):
        ds, x_path, _ = write_dataset(tmp_path, outliers=4)
        flags = (ds.true_labels < 0).astype(float).reshape(-1, 1)
        f_path = tmp_path / "flags.csv"
        matio.write_matrix_csv(f_path, flags)
        out = tmp_path / "o"
        code = main(["detect-outliers", "--input", x_path, "--lambda", "0.6",
                     "--delta", "0.5", "--truth", str(f_path), "--output", str(out)])
        assert code == 0
        record = matio.read_json(out / "result.json")
        assert record["metrics"]["auc"] == 1.0
        assert record["outliers"] == ds.outlier_indices.tolist()
        assert (out / "roc.csv").exists()
        assert (out / "scores.csv").exists()

    def test_delta_above_max_norm_empty(self, tmp_path):
        _, x_path, _ = write_dataset(tmp_path, outliers=4)
        out = tmp_path / "o"
        assert main(["detect-outliers", "--input", x_path, "--lambda", "0.6",
                     "--delta", "1e9", "--output", str(out)]) == 0
        assert matio.read_json(out / "result.json")["outliers"] == []

    def test_truth_length_mismatch_exit_2_before_solving(self, tmp_path, monkeypatch):
        _, x_path, _ = write_dataset(tmp_path, outliers=4)
        f_path = tmp_path / "short.csv"
        matio.write_matrix_csv(f_path, np.zeros((5, 1)))

        def no_solve(*args):
            raise AssertionError("solved before checking --truth")

        monkeypatch.setattr(solver, "solve_lrr_self", no_solve)
        out = tmp_path / "o"
        assert main(["detect-outliers", "--input", x_path, "--lambda", "0.6",
                     "--truth", str(f_path), "--output", str(out)]) == 2
        assert not out.exists()

    def test_bad_delta_exit_2_before_solving(self, tmp_path, monkeypatch):
        _, x_path, _ = write_dataset(tmp_path, outliers=4)

        def no_solve(*args):
            raise AssertionError("solved before checking --delta")

        monkeypatch.setattr(solver, "solve_lrr_self", no_solve)
        out = tmp_path / "o"
        assert main(["detect-outliers", "--input", x_path, "--lambda", "0.6",
                     "--delta", "-1", "--output", str(out)]) == 2
        assert not out.exists()

    def test_no_truth_auc_null(self, tmp_path):
        _, x_path, _ = write_dataset(tmp_path, outliers=4)
        out = tmp_path / "o"
        assert main(["detect-outliers", "--input", x_path, "--lambda", "0.6",
                     "--delta", "0.5", "--output", str(out)]) == 0
        record = matio.read_json(out / "result.json")
        assert record["metrics"]["auc"] is None
        assert record["metric_reasons"]["auc"] == "no ground truth"


class TestReplicateCommand:
    def test_fig3_outputs(self, tmp_path):
        out = tmp_path / "o"
        code = main(["replicate", "--figure", "fig3", "--seed", "0",
                     "--output", str(out)])
        assert code == 0
        record = matio.read_json(out / "result.json")
        assert record["metrics"]["segmentation_accuracy"] >= 0.9
        assert (out / "affinity.csv").exists()
        assert (out / "X.csv").exists()
        assert (out / "true_labels.csv").exists()

    def test_unknown_figure_exit_2(self, tmp_path):
        assert main(["replicate", "--figure", "fig9",
                     "--output", str(tmp_path / "o")]) == 2

    def test_seed_defaults_to_zero(self, tmp_path):
        out = tmp_path / "o"
        assert main(["replicate", "--figure", "fig3", "--output", str(out)]) == 0
        assert matio.read_json(out / "result.json")["config"]["seed"] == 0


@pytest.mark.parametrize("command, args", [
    ("solve", ["--self", "--lambda", "1000"]),
    ("segment", ["--k", "3", "--lambda", "1000"]),
    ("detect-outliers", ["--lambda", "0.6", "--delta", "0.5"]),
    ("replicate", ["--figure", "fig3"]),
])
def test_result_record_keys(tmp_path, command, args):
    _, x_path, _ = write_dataset(tmp_path)
    inputs = [] if command == "replicate" else ["--input", x_path]
    out = tmp_path / "o"
    assert main([command, *inputs, *args, "--output", str(out)]) == 0
    record = matio.read_json(out / "result.json")
    assert set(record) == RESULT_KEYS
    assert record["command"] == command
    assert (record["solver"] is None) == (command == "replicate")


class TestUsage:
    def test_no_command_exit_2(self):
        assert main([]) == 2

    def test_unknown_flag_exit_2(self, tmp_path):
        assert main(["solve", "--frobnicate"]) == 2


@st.composite
def cli_matrices(draw):
    """A 1-7 x 1-8 matrix: Gaussian, rank one, with a duplicate or a zero
    column, or with column scales from 1e-5 to 1e5; then scaled by 10^-300
    to 10^300."""
    d, n = draw(st.integers(1, 7)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["gaussian", "rank1", "duplicate", "zero_column", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((d, n))
    if kind == "rank1":
        X = rng.standard_normal((d, 1)) @ rng.standard_normal((1, n))
    elif kind == "duplicate":
        X[:, -1] = X[:, 0]
    elif kind == "zero_column":
        X[:, -1] = 0.0
    elif kind == "mixed":
        X = X * 10.0 ** rng.uniform(-5.0, 5.0, n)
    scale = 10.0 ** draw(st.integers(-300, 300))
    return X * scale, rng.standard_normal((d, draw(st.integers(1, 8)))) * scale


@hypothesis.settings(max_examples=180, deadline=None, derandomize=True, database=None)
@hypothesis.given(cli_matrices(), st.sampled_from(["solve", "solve-dict", "segment",
                                                   "detect-outliers"]),
                  st.sampled_from(solver.ERROR_MODELS), st.booleans())
def test_cli_outcomes_over_generated_inputs(matrices, command, model, normalize):
    """Every finite input gets a named outcome: exit 2 only for a zero X,
    exit 3 with no output, exit 4 only with a residual at or above eps or
    at the iteration cap, and on exit 0 a ``result.json`` that agrees with
    the CSVs of ``solve``."""
    X, A = matrices
    with tempfile.TemporaryDirectory() as tmp:
        x_path, a_path = os.path.join(tmp, "X.csv"), os.path.join(tmp, "A.csv")
        out = os.path.join(tmp, "o")
        matio.write_matrix_csv(x_path, X)
        matio.write_matrix_csv(a_path, A)
        source = ["--dict", a_path] if command == "solve-dict" else []
        argv = [command.split("-dict")[0], "--input", x_path, *source,
                "--error-norm", model, "--lambda", "0.5", "--output", out]
        argv += ["--delta", "0.5"] if command == "detect-outliers" else []
        argv += ["--normalize"] if normalize else []
        code = main(argv)
        assert code in (0, 2, 3, 4)
        assert (code == 2) == (not X.any() and command != "solve-dict")
        assert os.path.isdir(out) == (code in (0, 4))
        if code in (0, 4):
            record = matio.read_json(os.path.join(out, "result.json"))["solver"]
            stalled = record["final_residuals"][0] >= 1e-8 or record["iterations"] == 1000
            assert code == 0 or stalled
        if code == 0 and command.startswith("solve"):
            if normalize:
                divisors, factors = synth._unit_scale(X)
                X = X / divisors * factors
            D = A if command == "solve-dict" else X
            Z = matio.read_matrix_csv(os.path.join(out, "Z.csv"))
            E = matio.read_matrix_csv(os.path.join(out, "E.csv"))
            assert record["final_residuals"][0] == np.abs(X - D @ Z - E).max()
