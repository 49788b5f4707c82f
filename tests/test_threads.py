"""The one-thread scope of small inputs (``linalg._blas_threads``): the
thread count that the BLAS calls of a solve see, the caller's count coming
back on every way out, and recipe results (fig6 included) that do not
depend on the count the process starts with."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from lrr import cluster, linalg, solver
from lrr.errors import NumericalError

BLAS = linalg._openblas()
needs_openblas = pytest.mark.skipif(
    BLAS is None, reason="no OpenBLAS thread-count setter found in this process")

OPTS = solver.SolverOptions(lam=0.5)
CALLER = 2


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


@pytest.fixture
def caller_threads():
    """The caller's count at ``CALLER`` for the test, and back afterwards."""
    get, set_ = BLAS
    before = get()
    set_(CALLER)
    yield
    set_(before)


@pytest.fixture
def svt_threads(monkeypatch):
    """The thread count and the scope depth at each SVT call of a solve."""
    seen = []
    inner = solver.svt_with_nuclear

    def spy(*args):
        seen.append((BLAS[0](), linalg._threads_depth))
        return inner(*args)

    monkeypatch.setattr(solver, "svt_with_nuclear", spy)
    return seen


def assert_restored():
    assert BLAS[0]() == CALLER
    assert linalg._threads_depth == 0


SMALL_SOLVES = {
    "self-l21": lambda X: solver.solve_lrr_self(X, "l21", OPTS),
    "self-l1": lambda X: solver.solve_lrr_self(X, "l1", OPTS),
    "dictionary": lambda X: solver.solve_lrr(X, rand((X.shape[0], 25), 1), "l21", OPTS),
}


@needs_openblas
@pytest.mark.usefixtures("caller_threads")
class TestScope:
    @pytest.mark.parametrize("solve", SMALL_SOLVES.values(), ids=SMALL_SOLVES)
    def test_small_solve_runs_on_one_thread(self, solve, svt_threads):
        assert solve(rand((20, 30), 0)).converged
        assert svt_threads and {t for t, _ in svt_threads} == {1}
        assert_restored()

    def test_large_solve_keeps_the_callers_count(self, svt_threads):
        X = rand((1200, 300), 2)
        assert X.size >= linalg._ONE_THREAD_BELOW
        # the fast-forward runs the first sweep, the plain loop the second
        sol = solver.solve_lrr_self(X, "l21", solver.SolverOptions(lam=0.5, max_iters=2))
        assert sol.iterations == 2
        assert svt_threads == [(CALLER, 0)]
        assert_restored()

    def test_limit_is_exclusive(self):
        get = BLAS[0]
        with linalg._blas_threads(linalg._ONE_THREAD_BELOW - 1):
            assert get() == 1
        with linalg._blas_threads(linalg._ONE_THREAD_BELOW):
            assert get() == CALLER
        assert_restored()

    def test_restored_after_a_raise(self):
        with pytest.raises(NumericalError):
            solver.solve_lrr_self(rand((10, 14), 3) * 1e160, "l21", OPTS)
        assert_restored()

    def test_nested_scopes_restore_once(self, svt_threads, monkeypatch):
        after = []
        inner = cluster.build_affinity

        def spy(Z):
            after.append((BLAS[0](), linalg._threads_depth))
            return inner(Z)

        monkeypatch.setattr(cluster, "build_affinity", spy)
        cluster.segment(rand((12, 18), 4), 2, opts=OPTS)
        # segment's scope, then solve_lrr_self's inside it; the inner exit
        # leaves segment's later stages on one thread
        assert svt_threads and set(svt_threads) == {(1, 2)}
        assert after == [(1, 1)]
        assert_restored()

    def test_concurrent_solves(self, svt_threads):
        # more threads than cores, switching often: a lost update of the
        # depth count would restore the caller's count too early or never
        workers = 4
        start = threading.Barrier(workers)
        errors = []

        def work(seed):
            try:
                start.wait(timeout=30)
                for _ in range(3):
                    assert solver.solve_lrr_self(rand((20, 30), seed), "l21", OPTS).converged
            except Exception as exc:  # noqa: BLE001 (reported below)
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert svt_threads and {t for t, _ in svt_threads} == {1}
        assert_restored()

    @pytest.mark.parametrize("model", solver.ERROR_MODELS)
    def test_without_openblas_the_solve_is_unchanged(self, model, monkeypatch, svt_threads):
        X = rand((20, 30), 7)
        scoped = solver.solve_lrr_self(X, model, OPTS)
        monkeypatch.setattr(linalg, "_openblas", lambda: None)
        svt_threads.clear()
        plain = solver.solve_lrr_self(X, model, OPTS)
        assert {t for t, _ in svt_threads} <= {CALLER}
        assert scoped.converged and plain.converged
        assert scoped.iterations == plain.iterations
        np.testing.assert_allclose(plain.Z, scoped.Z, rtol=0, atol=1e-9)
        np.testing.assert_allclose(plain.E, scoped.E, rtol=0, atol=1e-9)
        assert plain.objective == pytest.approx(scoped.objective, rel=1e-9)
        assert_restored()


RUN = """
import sys
import numpy as np
from lrr import recipes, solver
ds = recipes.make_fig4_dataset(0)
sol = solver.solve_lrr_self(ds.X, "l21", solver.SolverOptions(lam=0.25))
fig3 = recipes.replicate_fig3(0)
fig6 = recipes.replicate_fig6(0)
np.savez(sys.argv[1], X=ds.X, Z=sol.Z, E=sol.E, iterations=sol.iterations,
         fig3_X=fig3.dataset.X, affinity=fig3.tables["affinity"], labels=fig3.labels,
         fig6_labels=fig6.labels, fig6_affinity=fig6.tables["affinity"],
         fig6_error_norms=fig6.tables["error_column_norms"],
         fig6_recovery_error=fig6.metrics["recovery_error"])
"""


def test_results_do_not_depend_on_the_thread_count(tmp_path):
    src = os.path.dirname(os.path.dirname(solver.__file__))
    runs = []
    for threads in ("1", "2"):
        path = tmp_path / f"threads_{threads}.npz"
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", RUN, str(path)], env=env, timeout=120,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        with np.load(path) as saved:
            runs.append(dict(saved))
    one, two = runs
    for key in one:
        assert np.array_equal(one[key], two[key]), key
