"""Seeded generators for multi-subspace benchmark data: random subspace
ensembles, clean samples, and the three planted error types (dense noise,
gross sample-specific corruptions, appended outliers).

Every generator is a pure function of its inputs and seed; datasets are
immutable and each mutation returns a new one with ``X == X0 + E0`` kept
exact (X is derived from the parts on first read)."""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import _EPS, as_matrix, skinny_svd

MODES = ("independent", "disjoint")
# The sketch of V0: a fixed-seed Gaussian test matrix of this many columns,
# trusted only when the rank it finds leaves at least this many spare.
_SKETCH_WIDTH = 64
_SKETCH_SPARE = 16
# The smallest norm whose square is a normal float.
_SQRT_TINY = math.sqrt(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class SubspaceEnsemble:
    """Orthonormal bases of k random subspaces, each an ``ambient x dim``
    array."""

    bases: tuple

    @property
    def k(self):
        return len(self.bases)


@dataclass(frozen=True)
class SyntheticDataset:
    """Clean part X0 and planted error E0, with the planted structure
    recorded.

    The observed matrix ``X = X0 + E0`` is derived from the two parts on
    first read and cached. ``true_labels`` holds the subspace index per
    column, -1 for outliers; ``outlier_indices`` is derived from it, and the
    columns of X0 there are exactly zero. ``corrupted_indices`` lists the
    authentic columns that carry a gross corruption. ``V0`` is an
    orthonormal basis of the row space of X0, also computed on first read:
    the ``V`` of ``skinny_svd(X0)``, up to roundoff and the choice of basis,
    with the same rank (see :func:`_row_space_basis`).
    """

    X0: np.ndarray
    E0: np.ndarray
    true_labels: np.ndarray
    corrupted_indices: np.ndarray

    @functools.cached_property
    def X(self):
        return self.X0 + self.E0

    @functools.cached_property
    def V0(self):
        return _row_space_basis(self.X0)

    @property
    def outlier_indices(self):
        return np.flatnonzero(self.true_labels < 0)

    @property
    def n(self):
        return self.X0.shape[1]

    @property
    def d(self):
        return self.X0.shape[0]

    @property
    def rank0(self):
        return self.V0.shape[1]

    @property
    def outlier_fraction(self):
        return self.outlier_indices.size / self.n

    @property
    def error_ratio(self):
        """||E0||_F / ||X0||_F, the total planted error level."""
        return float(np.linalg.norm(self.E0) / np.linalg.norm(self.X0))

    def authentic_indices(self):
        return np.flatnonzero(self.true_labels >= 0)


def _row_space_basis(X0):
    """The row basis ``V`` of ``skinny_svd(X0)``, from a sketch when one is
    certified to keep the same singular values.

    The range finder of Halko, Martinsson and Tropp (SIAM Review, 2011):
    ``Q = orth(X0 Omega)`` for a fixed-seed Gaussian ``Omega`` of
    ``_SKETCH_WIDTH`` columns, and ``B = Q^T X0``. With ``delta = ||X0 - Q
    B||_F`` plus the rounding of the SVD of ``B`` (``w eps sigma_1(B)`` for
    its ``w`` rows), Weyl's inequality puts every ``sigma_i(X0)`` within
    ``delta`` of ``sigma_i(B)``, zero past the ``w``-th. The sketch answers
    with the ``V`` of ``B`` only if the kept ``r`` values of ``B`` stay above
    ``skinny_svd``'s cut ``max(d, n) eps sigma_1`` and the rest stay below it
    across that interval, and if ``r`` leaves ``_SKETCH_SPARE`` columns of
    ``Omega`` spare. Otherwise, and for matrices too small to sketch, the
    dense ``skinny_svd(X0).V`` answers. Either way the projector ``V V^T``
    agrees with the dense one to roundoff.
    """
    d, n = X0.shape
    if min(d, n) <= _SKETCH_WIDTH:
        return skinny_svd(X0).V
    omega = np.random.default_rng(0).standard_normal((n, _SKETCH_WIDTH))
    Q = np.linalg.qr(X0 @ omega)[0]
    B = Q.T @ X0
    f = skinny_svd(B, 0.0)
    cut = max(d, n) * _EPS
    r = int(np.count_nonzero(f.sigma > cut * f.sigma[0])) if f.rank else 0
    if 0 < r <= _SKETCH_WIDTH - _SKETCH_SPARE:
        top = f.sigma[0]
        below = f.sigma[r] if r < f.rank else 0.0
        delta = np.linalg.norm(X0 - Q @ B) + _SKETCH_WIDTH * _EPS * top
        if (f.sigma[r - 1] - delta > cut * (top + delta)
                and below + delta < cut * (top - delta)):
            return f.V[:, :r].copy()
    return skinny_svd(X0).V


def gen_ensemble(k, dim, ambient, mode="disjoint", seed=0):
    """Draw k random ``dim``-dimensional subspaces of R^``ambient``.

    Bases come from orthonormalizing standard Gaussian matrices.
    ``independent`` mode requires ``k*dim <= ambient`` (the bases stack to
    full rank); ``disjoint`` mode only requires pairwise trivial
    intersections, so the dimensions may sum past the ambient one.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if k < 1 or dim < 1:
        raise ValueError("k and dim must be positive")
    if mode == "independent" and k * dim > ambient:
        raise ValueError(
            f"independent mode needs k*dim <= ambient ({k}*{dim} > {ambient})"
        )
    if dim > ambient or (mode == "disjoint" and k >= 2 and 2 * dim > ambient):
        raise ValueError(
            f"disjoint subspaces of dimension {dim} do not fit in R^{ambient}"
        )
    rng = np.random.default_rng(seed)
    bases = []
    for _ in range(k):
        q, _ = np.linalg.qr(rng.standard_normal((ambient, dim)))
        bases.append(q)
    if mode == "independent" and k > 1:
        stacked = np.hstack(bases)
        smin = np.linalg.svd(stacked, compute_uv=False)[-1]
        if smin <= 1e-10:  # pragma: no cover - measure zero for Gaussian draws
            raise ValueError("drawn bases are not independent; use another seed")
    if k > 1:
        for i in range(k):
            for j in range(i + 1, k):
                pair = np.hstack([bases[i], bases[j]])
                smin = np.linalg.svd(pair, compute_uv=False)[-1]
                if smin <= 1e-6:  # pragma: no cover - measure zero
                    raise ValueError(
                        f"subspaces {i} and {j} intersect; use another seed"
                    )
    return SubspaceEnsemble(bases=tuple(bases))


def sample(ens, per_subspace, seed=0):
    """Draw ``per_subspace`` clean samples from each subspace (basis times
    standard Gaussian coefficients). Labels run in k blocks of
    ``per_subspace``."""
    if per_subspace < 1:
        raise ValueError("per_subspace must be at least 1")
    rng = np.random.default_rng(seed)
    cols = [B @ rng.standard_normal((B.shape[1], per_subspace)) for B in ens.bases]
    X0 = np.hstack(cols)
    labels = np.repeat(np.arange(ens.k), per_subspace)
    return SyntheticDataset(X0, np.zeros_like(X0), labels, np.empty(0, dtype=int))


def add_outliers(ds, count, magnitude_scale=3.0, seed=0):
    """Append ``count`` outlier columns drawn i.i.d. Gaussian after the
    existing columns.

    The per-entry standard deviation is ``magnitude_scale`` times the mean
    sample column norm divided by sqrt(d), so an outlier column's norm is
    about ``magnitude_scale`` times a sample's. The appended clean columns
    are zero and the labels are -1.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return ds
    rng = np.random.default_rng(seed)
    d = ds.d
    mean_norm = float(np.linalg.norm(ds.X0[:, ds.authentic_indices()], axis=0).mean())
    O = rng.normal(0.0, magnitude_scale * mean_norm / math.sqrt(d), size=(d, count))
    X0 = np.hstack([ds.X0, np.zeros((d, count))])
    E0 = np.hstack([ds.E0, O])
    labels = np.concatenate([ds.true_labels, np.full(count, -1)])
    return SyntheticDataset(X0, E0, labels, ds.corrupted_indices)


def corrupt_samples(ds, fraction, magnitude_scale=0.7, seed=0):
    """Grossly corrupt a random fraction of the authentic samples.

    Picks ``ceil(fraction * n_authentic)`` authentic columns uniformly and
    adds a Gaussian error column scaled so its norm is about
    ``magnitude_scale`` times that sample's norm. Corrupted samples keep
    their labels (they are still subspace members underneath).
    """
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must lie in [0, 1]")
    if fraction == 0:
        return ds
    rng = np.random.default_rng(seed)
    auth = ds.authentic_indices()
    m = math.ceil(fraction * auth.size)
    chosen = np.sort(rng.choice(auth, size=m, replace=False))
    d = ds.d
    col_norms = np.linalg.norm(ds.X0[:, chosen], axis=0)
    noise = rng.standard_normal((d, m)) * (magnitude_scale * col_norms / math.sqrt(d))
    E0 = ds.E0.copy()
    E0[:, chosen] += noise
    corrupted = np.union1d(ds.corrupted_indices, chosen)
    return SyntheticDataset(ds.X0, E0, ds.true_labels, corrupted)


def add_noise(ds, level, seed=0):
    """Add dense Gaussian noise to every authentic, non-grossly-corrupted
    column, with entry standard deviation ``level`` times the RMS entry
    magnitude of the authentic part of X0."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    if level == 0:
        return ds
    rng = np.random.default_rng(seed)
    auth = ds.authentic_indices()
    targets = np.setdiff1d(auth, ds.corrupted_indices)
    if targets.size == 0:
        return ds
    rms = float(np.sqrt(np.mean(ds.X0[:, auth] ** 2)))
    E0 = ds.E0.copy()
    E0[:, targets] += rng.normal(0.0, level * rms, size=(ds.d, targets.size))
    return SyntheticDataset(ds.X0, E0, ds.true_labels, ds.corrupted_indices)


def _unit_scale(X):
    """Per-column divisors ``p`` and factors ``f`` with which ``X / p * f``
    has unit Euclidean column norms; zero columns get ``p = f = 1``.

    ``f = 1 / ||x_j||`` and ``p = 1``, an exact divisor, except on a column
    whose reciprocal norm is not a float (norm below about 5.6e-309, which
    only subnormal entries give): there ``p = max|x_j|`` and ``f = 1 /
    ||x_j / p||``. Where the plain sum of squares leaves the normal range
    (it overflows, or falls below the smallest normal float, as it does for
    a column of entries near 1e-200), the norm is taken as ``max|x_j| ||x_j
    / max|x_j|||``, so that no square over- or underflows."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(X, axis=0)
    divisors = np.ones_like(norms)
    off = np.flatnonzero(~((_SQRT_TINY <= norms) & (norms < np.inf)))
    if off.size:
        part = X[:, off]
        peak = np.abs(part).max(axis=0)
        peak[peak == 0] = 1.0
        rel = np.linalg.norm(part / peak, axis=0)
        norms[off] = peak * rel
        with np.errstate(divide="ignore", over="ignore"):
            lift = (rel > 0) & np.isinf(1.0 / norms[off])
        divisors[off[lift]] = peak[lift]
        norms[off[lift]] = rel[lift]
    with np.errstate(divide="ignore", over="ignore"):
        factors = 1.0 / norms
    return divisors, np.where(np.isfinite(factors), factors, 1.0)


def unit_column_scale(X):
    """Per-column factors ``1 / ||x_j||`` that give every nonzero column of
    ``X`` unit Euclidean norm as ``X * factors``. Zero columns get factor 1,
    and so do columns whose reciprocal norm is not a float (norm below about
    5.6e-309, which only subnormal entries give): no single factor scales
    those, and :func:`normalize_columns` and the CLI's ``--normalize``
    divide them by their largest |entry| first (see :func:`_unit_scale`)."""
    divisors, factors = _unit_scale(X)
    return np.where(divisors == 1.0, factors, 1.0)


def normalize_columns(ds):
    """Rescale every observed column of X to unit Euclidean norm.

    X0 and E0 columns are divided and scaled as :func:`_unit_scale` gives
    for X, so all dataset invariants are preserved; V0 follows the rescaled
    clean part. A column of normal magnitude is multiplied by ``1 /
    ||x_j||`` alone, and one of subnormal entries is divided by its largest
    |entry| first. This is the standard preprocessing for the benchmark
    recipes: the solver's behavior at a given lam is only meaningful
    relative to the sample magnitude. Columns with zero norm are left
    untouched.
    """
    divisors, factors = _unit_scale(ds.X)
    return SyntheticDataset(ds.X0 / divisors * factors, ds.E0 / divisors * factors,
                            ds.true_labels, ds.corrupted_indices)


def smallest_principal_angle(B1, B2):
    """Smallest principal angle (radians) between two subspaces given by
    column-orthonormal bases; 0 means the subspaces intersect."""
    c = np.linalg.svd(as_matrix(B1).T @ as_matrix(B2), compute_uv=False)
    return float(np.arccos(np.clip(c[0], -1.0, 1.0)))
