"""Symmetries of the LRR problem checked over generated subspace data.

``min ||Z||_* + lam err(E)  s.t.  X = A Z + E`` is equivariant under a
permutation P of the columns of X (``Z -> P^T Z P``, ``E -> E P``) and
under column sign flips D (``Z -> D Z D``, ``E -> E D``). For the
rotation-invariant error norms (``l21``, ``frobenius_sq``) a left
orthogonal Q leaves Z unchanged and maps ``E -> Q E``. With a dictionary,
permuting the columns of A permutes the rows of Z. The exact paths make
choices of their own (the sign convention of ``skinny_svd``, the SVT's
fixed-seed extra vectors, the fast-forward's handoff), so these properties
pin that none of those choices moves a solve: the transformed solve must
stop at the same sweep with the same iterate up to roundoff.
"""

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from lrr import cluster, solver, synth

ROTATION_INVARIANT = ("l21", "frobenius_sq")
LAMBDAS = (0.1, 0.3, 0.5, 1.0)


@st.composite
def subspace_data(draw, max_outliers=3):
    """Normalized samples of 2-3 independent subspaces of dimension 1-3 in
    at most R^30, 3-7 per subspace, plus up to ``max_outliers`` outliers;
    their ensemble; and a generator for the transforms."""
    k = draw(st.integers(2, 3))
    dim = draw(st.integers(1, 3))
    ambient = draw(st.integers(k * dim, 30))
    per = draw(st.integers(3, 7))
    n_out = draw(st.integers(0, max_outliers))
    seed = draw(st.integers(0, 2**32 - 1))
    ens = synth.gen_ensemble(k, dim, ambient, mode="independent", seed=seed)
    ds = synth.add_outliers(synth.sample(ens, per, seed=seed + 1), n_out, 3.0, seed=seed + 2)
    return synth.normalize_columns(ds), ens, np.random.default_rng(seed + 3)


def assert_close(got, want):
    assert np.linalg.norm(got - want) <= 1e-10 * max(np.linalg.norm(want), 1.0)


def assert_same_solve(got, base, Z, E):
    """``got`` stops where ``base`` does, at ``(Z, E)`` up to roundoff."""
    assert (got.iterations, got.converged) == (base.iterations, base.converged)
    assert_close(got.Z, Z)
    assert_close(got.E, E)


@pytest.mark.parametrize("model", solver.ERROR_MODELS)
@hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
@hypothesis.given(subspace_data(), st.sampled_from(LAMBDAS))
def test_self_solve_equivariance(model, data, lam):
    ds, _, rng = data
    X = ds.X
    opts = solver.SolverOptions(lam=lam)
    base = solver.solve_lrr_self(X, model, opts)
    P = rng.permutation(X.shape[1])
    assert_same_solve(solver.solve_lrr_self(X[:, P], model, opts), base,
                      base.Z[P][:, P], base.E[:, P])
    D = rng.choice([-1.0, 1.0], X.shape[1])
    assert_same_solve(solver.solve_lrr_self(X * D, model, opts), base,
                      D[:, None] * base.Z * D, base.E * D)
    if model in ROTATION_INVARIANT:
        Q = np.linalg.qr(rng.standard_normal((X.shape[0], X.shape[0])))[0]
        assert_same_solve(solver.solve_lrr_self(Q @ X, model, opts), base, base.Z, Q @ base.E)


@pytest.mark.parametrize("model", solver.ERROR_MODELS)
@hypothesis.settings(max_examples=6, deadline=None, derandomize=True, database=None)
@hypothesis.given(subspace_data(), st.sampled_from(LAMBDAS))
def test_dictionary_solve_equivariance(model, data, lam):
    ds, ens, rng = data
    X = ds.X
    # a dictionary of fresh samples of the same subspaces
    A = synth.normalize_columns(synth.sample(ens, 3, seed=int(rng.integers(2**32)))).X
    opts = solver.SolverOptions(lam=lam)
    base = solver.solve_lrr(X, A, model, opts)
    R = rng.permutation(A.shape[1])
    assert_same_solve(solver.solve_lrr(X, A[:, R], model, opts), base, base.Z[R], base.E)
    P = rng.permutation(X.shape[1])
    assert_same_solve(solver.solve_lrr(X[:, P], A, model, opts), base,
                      base.Z[:, P], base.E[:, P])


@hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
@hypothesis.given(subspace_data(), st.sampled_from(LAMBDAS))
def test_affinity_and_outlier_flags_permute(data, lam):
    ds, _, rng = data
    sol = solver.solve_lrr_self(ds.X, "l21", solver.SolverOptions(lam=lam))
    P = rng.permutation(ds.n)
    W = cluster.build_affinity(sol.Z)
    assert_close(cluster.build_affinity(sol.Z[P][:, P]), W[P][:, P])
    permuted = solver.solve_lrr_self(ds.X[:, P], "l21", solver.SolverOptions(lam=lam))
    flags = np.zeros(ds.n, dtype=bool)
    flags[cluster.detect_outliers(sol.E, 0.5)] = True
    moved = np.zeros(ds.n, dtype=bool)
    moved[cluster.detect_outliers(permuted.E, 0.5)] = True
    assert np.array_equal(moved, flags[P])


@hypothesis.settings(max_examples=10, deadline=None, derandomize=True, database=None)
@hypothesis.given(subspace_data(max_outliers=0))
def test_segment_labels_permute_on_clean_subspaces(data):
    # at lam = 1000 the solve of clean independent subspaces is block
    # diagonal, so the partition is unambiguous; at small lam a partition
    # can hinge on which sample k-means seeds from, which P moves
    ds, _, rng = data
    opts = solver.SolverOptions(lam=1000.0)
    base = cluster.segment(ds.X, "auto", "l21", opts)
    P = rng.permutation(ds.n)
    moved = cluster.segment(ds.X[:, P], "auto", "l21", opts)
    assert moved.k == base.k
    pairs = set(zip(moved.labels.tolist(), base.labels[P].tolist()))
    assert len(pairs) == len(set(moved.labels.tolist())) == len(set(base.labels.tolist()))
