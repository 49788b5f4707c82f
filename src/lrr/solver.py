"""Nuclear-norm-regularized representation solvers.

The main entry point is :func:`solve_lrr`, an inexact augmented-Lagrange
(alternating-direction) solver for

    min_{Z,E} ||Z||_* + lam * err(E)   s.t.  X = A Z + E,

where ``err`` is the column-wise l2,1 norm (sample-specific corruptions and
outliers), the entrywise l1 norm (scattered corruptions), or the squared
Frobenius norm (dense noise). :func:`solve_lrr_clean` is the closed-form
pseudoinverse solution for error-free data, and :func:`solve_lrr_self` is the
self-expressive mode (dictionary = data), always solved in the coordinates of
the skinny SVD of X, where the minimizer lives.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import DegenerateInputError, FeasibilityError, NumericalError
from .linalg import as_matrix, norm, pseudoinverse, skinny_svd, svt_with_nuclear
from .linalg import column_shrink, entry_shrink

ERROR_MODELS = ("l21", "l1", "frobenius_sq")

# Rank cutoff applied to solver output before factoring it (affinity,
# recovery error): converged iterates carry junk singular values around the
# stopping tolerance, and each spurious direction would count in full.
SOLUTION_RANK_TOL = 1e-4


def error_norm(E, model):
    """The error penalty err(E) for the given model tag."""
    if model == "l21":
        return norm(E, "l21")
    if model == "l1":
        return norm(E, "l1")
    if model == "frobenius_sq":
        return norm(E, "frobenius") ** 2
    raise ValueError(f"unknown error model {model!r}; expected one of {ERROR_MODELS}")


@dataclass(frozen=True)
class SolverOptions:
    """Solver parameters.

    ``lam`` is the tradeoff weight on the error term and has no universal
    default; everything else defaults to the standard schedule
    (mu: 1e-6 -> 1e6 by factors of rho=1.1, stop when both infinity-norm
    residuals drop below eps=1e-8). eps presumes data scaled to about
    unit magnitude; callers own normalization.
    """

    lam: float
    mu_init: float = 1e-6
    mu_max: float = 1e6
    rho: float = 1.1
    eps: float = 1e-8
    max_iters: int = 1000

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if not (self.mu_init > 0 and self.mu_max > 0):
            raise ValueError("mu_init and mu_max must be positive")
        if self.mu_init > self.mu_max:
            raise ValueError("mu_init must not exceed mu_max")
        if not self.rho > 1:
            raise ValueError("rho must be greater than 1")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class LrrSolution:
    """Minimizer pair plus solver diagnostics.

    ``final_residuals`` is ``(||X - A Z - E||_inf, ||Z - J||_inf)`` at the
    last iteration. ``objective`` is ``||Z||_* + lam * err(E)`` computed from
    the returned iterates; ``objective_trace`` holds the per-iteration
    surrogate (nuclear norm of the thresholded variable, which coincides
    with the objective at convergence). ``mu_trace`` records the penalty
    value used at each iteration.
    """

    Z: np.ndarray
    E: np.ndarray
    iterations: int
    converged: bool
    final_residuals: tuple
    objective: float
    objective_trace: np.ndarray
    mu_trace: np.ndarray


@dataclass(frozen=True)
class ReducedDictionary:
    """Orthogonalized dictionary: ``P_star`` spans the rows of ``A`` and
    ``B = A @ P_star`` has full column rank ``r_A``."""

    B: np.ndarray
    P_star: np.ndarray
    r_A: int


def _z_step(A):
    """Operators ``(M -> A M, M -> A^T M, R -> (I + A^T A)^{-1} R)`` for the
    Z-step, set up once per solve.

    A square diagonal ``A = diag(s)`` (the self-expressive path) needs no
    factorization: all three are row scalings. Any other dictionary has
    ``I + A^T A`` factored by Cholesky and inverted once, so that each sweep
    costs one matrix product and stays on NumPy's BLAS. ``A^T A`` overflows
    for entries near 1e154 and beyond.
    """
    n_a = A.shape[1]
    s = np.diag(A)[:, None]
    diagonal = A.shape[0] == n_a and np.array_equal(A, np.diagflat(s))
    with np.errstate(over="ignore", invalid="ignore"):
        gram = 1.0 + s * s if diagonal else np.eye(n_a) + A.T @ A
    if not np.isfinite(gram).all():
        raise NumericalError(f"I + A^T A overflows ({n_a}x{n_a}); rescale the data")
    if diagonal:
        return (lambda M: s * M), (lambda M: s * M), (lambda R: R / gram)
    try:
        chol = scipy.linalg.cho_factor(gram)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"factorization of I + A^T A failed ({n_a}x{n_a})") from exc
    inverse = scipy.linalg.cho_solve(chol, np.eye(n_a))
    return (lambda M: A @ M), (lambda M: A.T @ M), (lambda R: inverse @ R)


def solve_lrr(X, A, model="l21", opts=None):
    """Alternating-direction solve of the representation problem on (X, A).

    Each sweep thresholds the nuclear-norm block (J), solves the
    regularized normal equations ``(I + A^T A) Z = rhs`` for Z, applies the
    proximal step matching ``model`` to E, then updates the multipliers and
    grows mu. Terminates when both infinity-norm residuals fall below
    ``opts.eps`` or after ``opts.max_iters`` sweeps (``converged=False``);
    raises ``NumericalError`` as soon as either residual is not finite.

    The Z-step takes one of two forms, chosen from ``A`` itself: a square
    diagonal dictionary ``diag(s)`` makes it a row scaling by
    ``1 / (1 + s^2)`` with no factorization, and any other dictionary
    applies ``(I + A^T A)^{-1}``, formed once from a Cholesky factor, with
    one matrix product per sweep. Both give the same iterates to roundoff.
    """
    X = as_matrix(X, "X")
    A = as_matrix(A, "A")
    if opts is None:
        raise ValueError("opts is required (lam has no universal default)")
    if model not in ERROR_MODELS:
        raise ValueError(f"unknown error model {model!r}; expected one of {ERROR_MODELS}")
    d, n = X.shape
    if A.shape[0] != d:
        raise ValueError(f"X has {d} rows but dictionary A has {A.shape[0]}")
    n_a = A.shape[1]

    # The Z-step operators are constant across sweeps: set them up once.
    apply_a, apply_at, z_solve = _z_step(A)

    lam = opts.lam
    mu = opts.mu_init
    Z = np.zeros((n_a, n))
    J = np.zeros((n_a, n))
    E = np.zeros((d, n))
    Y1 = np.zeros((d, n))
    Y2 = np.zeros((n_a, n))

    obj_trace = []
    mu_trace = []
    converged = False
    iterations = 0

    for _ in range(opts.max_iters):
        iterations += 1
        mu_trace.append(mu)

        J, j_nuclear = svt_with_nuclear(Z + Y2 / mu, 1.0 / mu)

        Z = z_solve(apply_at(X - E) + J + (apply_at(Y1) - Y2) / mu)

        AZ = apply_a(Z)
        G = X - AZ + Y1 / mu
        if model == "l21":
            E = column_shrink(G, lam / mu)
        elif model == "l1":
            E = entry_shrink(G, lam / mu)
        else:
            # argmin_E lam*||E||_F^2 + (mu/2)*||E - G||_F^2 = mu*G/(2*lam + mu)
            E = (mu / (2.0 * lam + mu)) * G

        R1 = X - AZ - E
        R2 = Z - J
        r1 = float(np.abs(R1).max())
        r2 = float(np.abs(R2).max())
        if not (math.isfinite(r1) and math.isfinite(r2)):
            # A NaN never passes the stopping test below, so the iterates
            # can only stay broken: stop here with the failure named.
            raise NumericalError(f"non-finite residual at iteration {iterations}")
        Y1 = Y1 + mu * R1
        Y2 = Y2 + mu * R2
        mu = min(opts.rho * mu, opts.mu_max)

        obj_trace.append(j_nuclear + lam * error_norm(E, model))
        if r1 < opts.eps and r2 < opts.eps:
            converged = True
            break

    objective = norm(Z, "nuclear") + lam * error_norm(E, model)
    return LrrSolution(
        Z=Z,
        E=E,
        iterations=iterations,
        converged=converged,
        final_residuals=(r1, r2),
        objective=float(objective),
        objective_trace=np.asarray(obj_trace),
        mu_trace=np.asarray(mu_trace),
    )


def solve_lrr_clean(X, A):
    """Closed-form solution ``Z* = pinv(A) @ X`` for error-free data.

    Valid only when X lies in the column span of A, checked to relative
    Frobenius tolerance 1e-6; otherwise raises ``FeasibilityError`` carrying
    the relative residual. The result has the same rank as X and minimum
    nuclear norm among all feasible representations.
    """
    X = as_matrix(X, "X")
    A = as_matrix(A, "A")
    if A.shape[0] != X.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but dictionary A has {A.shape[0]}")
    if not A.any():
        raise DegenerateInputError("dictionary A is the zero matrix")
    Z = pseudoinverse(A) @ X
    x_scale = np.linalg.norm(X)
    residual = np.linalg.norm(X - A @ Z)
    rel = residual / x_scale if x_scale > 0 else 0.0
    if rel > 1e-6:
        raise FeasibilityError(
            f"X is not in span(A): relative residual {rel:.3e} exceeds 1e-6", rel
        )
    return Z


def reduce_dictionary(A):
    """Orthogonalize the rows of ``A``: returns ``P_star`` (orthonormal basis
    of span(A^T)) and ``B = A @ P_star``.

    Any solution of the reduced problem on (X, B) maps back through
    ``P_star`` to the solution on (X, A), cutting the per-iteration cost from
    the number of dictionary columns down to its rank.
    """
    A = as_matrix(A, "A")
    if not A.any():
        raise DegenerateInputError("cannot reduce the zero dictionary")
    f = skinny_svd(A)
    P = f.V
    return ReducedDictionary(B=A @ P, P_star=P, r_A=f.rank)


def solve_lrr_reduced(X, A, model="l21", opts=None):
    """Solve on the reduced dictionary ``A P_star`` of :func:`reduce_dictionary`
    and map the representation back.

    Equivalent to ``solve_lrr(X, A, ...)`` up to solver tolerance; the
    nuclear norm is invariant under the orthonormal back-map, so the
    objective carries over. The feasibility residual is recomputed against
    the original dictionary.
    """
    X = as_matrix(X, "X")
    rd = reduce_dictionary(A)
    inner = solve_lrr(X, rd.B, model, opts)
    Z = rd.P_star @ inner.Z
    feas = float(np.abs(X - as_matrix(A, "A") @ Z - inner.E).max())
    return replace(inner, Z=Z, final_residuals=(feas, inner.final_residuals[1]))


def solve_lrr_self(X, model="l21", opts=None):
    """Self-expressive solve with the data itself as dictionary (A = X).

    The minimizer lies in the row space of X, so with ``X = U S V^T`` the
    problem is solved exactly for ``Z = V Z'`` by one :func:`solve_lrr`. For
    ``l1``, which is not rotation-invariant, that solve runs on ``X`` with
    dictionary ``U S``. For ``l21`` and ``frobenius_sq`` every iterate of E
    also stays in span(U) and the penalty is invariant under U, so the
    ambient rows drop out too: the solve runs on ``S V^T`` with dictionary
    ``diag(S)`` and ``E = U E'``. The feasibility residual
    ``final_residuals[0]`` is recomputed on X after the lift.
    """
    X = as_matrix(X, "X")
    if not X.any():
        raise DegenerateInputError("self-expressive solve needs a nonzero matrix")
    f = skinny_svd(X)
    if model == "l1":
        sol = solve_lrr(X, f.U * f.sigma, model, opts)
        E = sol.E
    else:
        sol = solve_lrr(f.sigma[:, None] * f.V.T, np.diag(f.sigma), model, opts)
        E = f.U @ sol.E
    Z = f.V @ sol.Z
    feas = float(np.abs(X - X @ Z - E).max())
    return replace(sol, Z=Z, E=E, final_residuals=(feas, sol.final_residuals[1]))


def lambda_outlier_default(X, gamma_star):
    """Tradeoff weight ``3 / (7 ||X|| sqrt(gamma_star * n))`` for the
    outlier-detection regime.

    ``gamma_star`` is the assumed admissible outlier fraction in (0, 1];
    it is data-dependent and must be supplied by the caller.
    """
    X = as_matrix(X, "X")
    if not 0 < gamma_star <= 1:
        raise ValueError("gamma_star must lie in (0, 1]")
    spectral = norm(X, "spectral")
    if spectral == 0.0:
        raise DegenerateInputError("X is the zero matrix")
    return 3.0 / (7.0 * spectral * math.sqrt(gamma_star * X.shape[1]))
