"""Nuclear-norm-regularized representation solvers.

The main entry point is :func:`solve_lrr`, an inexact augmented-Lagrange
(alternating-direction) solver for

    min_{Z,E} ||Z||_* + lam * err(E)   s.t.  X = A Z + E,

where ``err`` is the column-wise l2,1 norm (sample-specific corruptions and
outliers), the entrywise l1 norm (scattered corruptions), or the squared
Frobenius norm (dense noise). :func:`solve_lrr_clean` is the closed-form
pseudoinverse solution for error-free data, and :func:`solve_lrr_self` is the
self-expressive mode (dictionary = data). There the squared-Frobenius
model needs no iteration: its minimizer is a closed form in the skinny SVD
of X. :func:`solve_lrr` keeps all three models for general dictionaries.

Every solve works in one SVD frame, since the minimizer lies in span(A^T).
:func:`reduce_dictionary` returns the skinny SVD ``A = U S V^T``;
:func:`solve_lrr` (and with it the ``l1`` self solve) runs on the reduced
dictionary ``U S``, the ``l21`` self solve on ``diag(S)``. Both have
``A^T A = S^2``, so their Z-step is a row scaling, set up by
:func:`_z_step` from the ``S`` that the caller passes: nothing is factored,
and no solve calls ``scipy.linalg``.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy  # noqa: F401  (unused; bench/tracer.py proxies solver.scipy.linalg)

from .errors import DegenerateInputError, FeasibilityError, NumericalError
from .linalg import as_matrix, norm, pseudoinverse, skinny_svd, svt_with_nuclear
from .linalg import _EPS, _column_shrink, _entry_shrink

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
    value used at each iteration. ``warm_sweeps`` counts the leading sweeps
    that the self-expressive ``l21`` solve ran in closed form (see
    :func:`solve_lrr_self`); it is 0 on every other path.
    """

    Z: np.ndarray
    E: np.ndarray
    iterations: int
    converged: bool
    final_residuals: tuple
    objective: float
    objective_trace: np.ndarray
    mu_trace: np.ndarray
    warm_sweeps: int = 0


def _z_step(A, s):
    """Operators ``(M -> A M, M -> A^T M, R -> (I + A^T A)^{-1} R)`` for the
    Z-step of a dictionary with ``A^T A = diag(s^2)``, set up once per
    solve. Each is called as ``op(M, out)`` and writes its result into
    ``out``, an array of the result's shape that must not be ``M`` or share
    memory with it (or with ``A``).

    The caller states the Gram structure; nothing here guesses it. ``A`` is
    ``U diag(s)`` with orthonormal columns in ``U`` (the SVD frame of
    :func:`solve_lrr` and the ``l1`` self solve), or ``diag(s)`` itself,
    passed as ``A=None`` (the ``l21`` self solve). The inverse is the row
    scaling by ``1 / (1 + s^2)``, and for ``diag(s)`` both products are row
    scalings too: ``np.multiply`` and ``np.divide`` with ``out=``, nothing
    factored. Otherwise the products are ``np.matmul(..., out=)`` with
    ``A`` and ``A^T``. ``s^2`` overflows for ``s`` near 1e154 and beyond,
    which raises ``NumericalError``.
    """
    s = s[:, None]
    with np.errstate(over="ignore"):
        gram = 1.0 + s * s
    if not np.isfinite(gram).all():
        n_a = gram.shape[0]
        raise NumericalError(f"I + A^T A overflows ({n_a}x{n_a}); rescale the data")
    if A is None:
        products = ((lambda M, out: np.multiply(s, M, out=out)),) * 2
    else:
        products = ((lambda M, out: np.matmul(A, M, out=out)),
                    (lambda M, out: np.matmul(A.T, M, out=out)))
    return (*products, lambda R, out: np.divide(R, gram, out=out))


def _check_args(model, opts):
    if opts is None:
        raise ValueError("opts is required (lam has no universal default)")
    if model not in ERROR_MODELS:
        raise ValueError(f"unknown error model {model!r}; expected one of {ERROR_MODELS}")


@dataclass
class _AdmState:
    """The ADM loop between two sweeps: the iterates ``Z, E, Y1, Y2``, the
    penalty ``mu`` of the next sweep, the SVT basis the last threshold kept
    (None before the first sweep), the sweeps run so far and their traces.
    :func:`_run_adm` writes the four arrays in place."""

    Z: np.ndarray
    E: np.ndarray
    Y1: np.ndarray
    Y2: np.ndarray
    mu: float
    basis: object = None
    iterations: int = 0
    obj_trace: list = field(default_factory=list)
    mu_trace: list = field(default_factory=list)


def _zero_state(X, n_a, opts):
    """The state before the first sweep of a solve on ``X`` with a
    dictionary of ``n_a`` columns."""
    d, n = X.shape
    return _AdmState(Z=np.zeros((n_a, n)), E=np.zeros((d, n)), Y1=np.zeros((d, n)),
                     Y2=np.zeros((n_a, n)), mu=opts.mu_init)


def solve_lrr(X, A, model="l21", opts=None):
    """Alternating-direction solve of the representation problem on (X, A).

    Each sweep thresholds the nuclear-norm block (J), solves the
    regularized normal equations ``(I + A^T A) Z = rhs`` for Z, applies the
    proximal step matching ``model`` to E, then updates the multipliers and
    grows mu. Terminates when both infinity-norm residuals fall below
    ``opts.eps`` or after ``opts.max_iters`` sweeps (``converged=False``);
    raises ``NumericalError`` as soon as either residual is not finite.

    The minimizer lies in span(A^T), so the sweeps run in the frame of
    :func:`reduce_dictionary`: :func:`_run_adm` solves on (X, U S) from the
    zero state, where ``(U S)^T (U S) = S^2`` makes the Z-step a row
    scaling by ``1 / (1 + S^2)``, and :func:`_lift` maps the answer back as
    ``Z = V Z'``. The nuclear norm is invariant under that back-map, so the
    objective carries over; the feasibility residual is measured on
    (X, A), and ``converged`` holds only if it, too, is below ``opts.eps``.
    The zero dictionary has the exact answer ``Z = 0``, ``E = X``, returned
    with ``iterations=0`` and ``converged=True``. ``X`` and ``A`` are never
    written, and the returned ``Z`` and ``E`` share no memory with them or
    with each other.
    """
    X = as_matrix(X, "X")
    A = as_matrix(A, "A")
    _check_args(model, opts)
    if A.shape[0] != X.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but dictionary A has {A.shape[0]}")
    if not A.any():
        E = X.copy()
        return LrrSolution(Z=np.zeros((A.shape[1], X.shape[1])), E=E, iterations=0,
                           converged=True, final_residuals=(0.0, 0.0),
                           objective=opts.lam * error_norm(E, model),
                           objective_trace=np.empty(0), mu_trace=np.empty(0))
    f = reduce_dictionary(A)
    ops = _z_step(f.U * f.sigma, f.sigma)
    sol = _run_adm(X, ops, model, opts, _zero_state(X, f.rank, opts))
    return _lift(X, A, f.V, sol, opts.eps)


solve_lrr_reduced = solve_lrr  # former name, which bench/tracer.py resolves


def _run_adm(X, ops, model, opts, state):
    """Run ADM sweeps on ``X`` from ``state`` until both residuals fall
    below ``opts.eps`` or ``opts.max_iters`` sweeps have run in all, counting
    those already in ``state``, which must leave at least one. ``ops`` are
    the Z-step operators of :func:`_z_step` for the dictionary.

    The sweep carries one piece of state besides the iterates: the right
    singular basis that the last threshold kept, handed to the next
    :func:`~lrr.linalg.svt_with_nuclear` call. There it seeds a
    subspace-iteration candidate that a certificate and a residual
    check must prove exact, so the iterates are those of a full SVD to
    roundoff and the basis only saves the Gram ``eigh`` of sweeps whose
    kept rank is small next to the matrix (``4 (k + 8) <= n``). An empty
    basis (after a zero threshold) makes the candidate zero.

    Apart from the arrays that the SVT and the l21 or l1 shrink return, a
    sweep allocates nothing of an iterate's size: it works in four arrays
    allocated once per call, two of ``Z``'s shape and two of ``X``'s,
    through ``out=`` arguments, in-place operators and the ``op(M, out)``
    operators of :func:`_z_step`. ``X - A Z`` is formed once and serves both
    the E-step input and the feasibility residual. Each sum is taken in the
    order of the plain expression in the comment above it, so the iterates
    are bit-identical to evaluating those expressions one fresh array at a
    time.
    """
    apply_a, apply_at, z_solve = ops
    lam = opts.lam
    Z, E, Y1, Y2, mu, basis = state.Z, state.E, state.Y1, state.Y2, state.mu, state.basis
    iterations = state.iterations
    obj_trace = state.obj_trace
    mu_trace = state.mu_trace
    # Work arrays, reused by every sweep. M holds the SVT input, then
    # (A^T Y1 - Y2) / mu, then R2; D holds X - E, then X - A Z, then R1.
    M = np.empty(Z.shape)
    rhs = np.empty(Z.shape)
    D = np.empty(X.shape)
    G = np.empty(X.shape)
    converged = False

    for _ in range(opts.max_iters - iterations):
        iterations += 1
        mu_trace.append(mu)

        # M = Z + Y2 / mu
        np.divide(Y2, mu, out=M)
        M += Z
        J, j_nuclear, basis = svt_with_nuclear(M, 1.0 / mu, basis)

        # rhs = A^T (X - E) + J + (A^T Y1 - Y2) / mu
        np.subtract(X, E, out=D)
        apply_at(D, rhs)
        rhs += J
        apply_at(Y1, M)
        M -= Y2
        M /= mu
        rhs += M
        z_solve(rhs, Z)

        # D = X - A Z, then G = D + Y1 / mu
        apply_a(Z, D)
        np.subtract(X, D, out=D)
        np.divide(Y1, mu, out=G)
        G += D
        if model == "frobenius_sq":
            # argmin_E lam*||E||_F^2 + (mu/2)*||E - G||_F^2 = mu*G/(2*lam + mu)
            np.multiply(mu / (2.0 * lam + mu), G, out=E)
            err = float(np.linalg.norm(E)) ** 2
        else:
            shrink = _column_shrink if model == "l21" else _entry_shrink
            E, kept = shrink(G, lam / mu)
            err = float(kept.sum())

        # R1 = D - E and R2 = Z - J; max(R.max(), -R.min()) is the
        # infinity norm without an abs temporary
        D -= E
        np.subtract(Z, J, out=M)
        r1 = float(max(D.max(), -D.min()))
        r2 = float(max(M.max(), -M.min()))
        if not (math.isfinite(r1) and math.isfinite(r2)):
            # A NaN never passes the stopping test below, so the iterates
            # can only stay broken: stop here with the failure named.
            raise NumericalError(f"non-finite residual at iteration {iterations}")
        # Y1 += mu R1, Y2 += mu R2
        D *= mu
        Y1 += D
        M *= mu
        Y2 += M
        mu = min(opts.rho * mu, opts.mu_max)

        obj_trace.append(j_nuclear + lam * err)
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


# Relative room that the fast-forward leaves on each of its handoff tests,
# so that the rounding of the plain sweep cannot decide a test otherwise.
_WARM_MARGIN = 1e-6


def _fast_forward(s, Vt, opts):
    """The leading sweeps of the ADM on ``(diag(s) V^T, diag(s))`` from the
    zero state, run on vectors of length r while they stay exact; returns
    the :class:`_AdmState` at the handoff. ``V^T`` (r x n, r <= n) has
    orthonormal rows.

    While the E-step returns zero, every iterate is ``diag(.) V^T``. The
    SVT of ``diag(m) V^T`` is then the soft threshold of ``m`` (its
    singular values are ``|m_i|``), the Z-step and both multiplier updates
    are row scalings, and the squared column norms of ``G = diag(g) V^T``,
    which decide the E-step, are ``(g o g)^T (V o V)``. Each vector step
    repeats the plain sweep's operations in the same order.

    The fast-forward stops before the first sweep that might not fit that
    form or might converge: one whose largest predicted column norm of G
    exceeds ``(1 - 1e-6) lam / mu``, or whose ``||d|| / sqrt(r n)``, a
    lower bound on the feasibility residual ``||diag(d) V^T||_inf``, is
    below ``(1 + 1e-6) eps``. It also leaves the last of ``max_iters``
    sweeps to the plain loop, which so reports that sweep's residuals.
    Column norms are taken from ``g / max|g|``, so no square over- or
    underflows, and a non-finite value hands off at once, for the plain
    loop to report.

    It runs no sweep when ``2^-52 max|diag(s) V^T|`` exceeds ``1e-6 eps``.
    The plain loop forms each residual entry as a difference of terms of
    that size, so its rounding is then not small next to that room: it
    decides the sweep at which the plain loop stops, and would move it for
    any other order of operations.
    """
    r, n = Vt.shape
    lam = opts.lam
    gram = 1.0 + s * s
    W = Vt * Vt
    z, y1, y2 = np.zeros(r), np.zeros(r), np.zeros(r)
    mu = opts.mu_init
    r1_floor = (1.0 + _WARM_MARGIN) * opts.eps * math.sqrt(r * n)
    mu_trace, obj_trace = [], []
    basis = None
    rounding = _EPS * (s * np.abs(Vt).max(axis=1)).max()
    limit = opts.max_iters - 1 if rounding <= _WARM_MARGIN * opts.eps else 0
    while len(mu_trace) < limit:
        # M = Z + Y2 / mu, and its threshold J
        m = y2 / mu
        m += z
        t = np.maximum(np.abs(m) - 1.0 / mu, 0.0)
        j = np.copysign(t, m)
        # rhs = A^T (X - E) + J + (A^T Y1 - Y2) / mu, Z = rhs / (1 + s^2)
        rhs = s * s
        rhs += j
        q = s * y1
        q -= y2
        q /= mu
        rhs += q
        z_next = rhs / gram
        # D = X - A Z, then G = D + Y1 / mu
        d = s * z_next
        np.subtract(s, d, out=d)
        g = y1 / mu
        g += d
        g_peak = np.abs(g).max()
        d_peak = np.abs(d).max()
        widest = g_peak * math.sqrt(((g / g_peak) ** 2 @ W).max()) if g_peak else 0.0
        d_norm = d_peak * np.linalg.norm(d / d_peak) if d_peak else 0.0
        if not (widest <= (1.0 - _WARM_MARGIN) * lam / mu and d_norm >= r1_floor):
            break
        # E = 0, so R1 = D: Y1 += mu R1, Y2 += mu (Z - J)
        z = z_next
        d *= mu
        y1 += d
        q = z - j
        q *= mu
        y2 += q
        mu_trace.append(mu)
        obj_trace.append(float(t.sum()))
        mu = min(opts.rho * mu, opts.mu_max)
        # the basis the plain SVT would return: of M^T when M is wide
        kept = t > 0.0
        basis = np.eye(r)[:, kept] if r < n else Vt[kept].T
    return _AdmState(Z=z[:, None] * Vt, E=np.zeros((r, n)), Y1=y1[:, None] * Vt,
                     Y2=y2[:, None] * Vt, mu=mu, basis=basis, iterations=len(mu_trace),
                     obj_trace=obj_trace, mu_trace=mu_trace)


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
    """The skinny SVD ``A = U S V^T`` of a nonzero dictionary, the frame of
    :func:`solve_lrr`: ``V`` (``f.V``) is an orthonormal basis of
    span(A^T), and the reduced dictionary ``A V = U S`` (``f.U * f.sigma``)
    has ``f.rank`` orthogonal columns, so ``(A V)^T (A V) = S^2``.

    Any solution ``Z'`` of the reduced problem on (X, U S) maps back to
    ``Z = V Z'`` on (X, A), cutting the per-iteration cost from the number
    of dictionary columns down to its rank. Raises
    ``DegenerateInputError`` on the zero dictionary.
    """
    A = as_matrix(A, "A")
    if not A.any():
        raise DegenerateInputError("cannot reduce the zero dictionary")
    return skinny_svd(A)


def _lift(X, A, V, sol, eps, U=None):
    """Map a solve in reduced coordinates back to the problem on (X, A):
    ``Z = V Z'``, ``E = U E'`` (``E'`` itself when ``U`` is None), and the
    feasibility residual ``final_residuals[0]`` measured on (X, A). The
    solve stays ``converged`` only if that residual is below ``eps``: the
    back-map adds its own rounding, of the order of ``2^-52 max|X|``."""
    Z = V @ sol.Z
    E = sol.E if U is None else U @ sol.E
    feas = float(np.abs(X - A @ Z - E).max())
    return replace(sol, Z=Z, E=E, converged=sol.converged and feas < eps,
                   final_residuals=(feas, sol.final_residuals[1]))


def _frobenius_self(X, f, opts):
    """Exact minimizer of ``||Z||_* + lam ||E||_F^2  s.t.  X = X Z + E`` from
    the skinny SVD ``f`` of X (Favaro, Vidal and Ravichandran, CVPR 2011).

    With ``c = s sqrt(2 lam)``: ``Z = V diag(z) V^T`` with ``z = 1 - 1/c^2``
    where ``c > 1`` and 0 elsewhere, and ``E = U diag(s min(1, 1/c^2)) V^T``,
    which is ``X - X Z``. Then ``2 lam X^T E = V diag(min(c^2, 1)) V^T`` is
    the identity on the range of Z and has spectral norm at most 1, so it
    lies in the subdifferential of ``||Z||_*``: the KKT conditions hold.
    """
    # w = 1 / max(c, 1) <= 1, so no square overflows; s w w is s / c^2 as
    # (s / c) / c, which does not underflow before 1 / (2 lam s) does.
    w = 1.0 / np.maximum(f.sigma * math.sqrt(2.0 * opts.lam), 1.0)
    Z = (f.V * (1.0 - w * w)) @ f.V.T
    E = (f.U * (f.sigma * w * w)) @ f.V.T
    objective = norm(Z, "nuclear") + opts.lam * error_norm(E, "frobenius_sq")
    if not math.isfinite(objective):
        raise NumericalError(f"non-finite objective {objective} in the closed form")
    return LrrSolution(
        Z=Z,
        E=E,
        iterations=0,
        converged=True,
        final_residuals=(float(np.abs(X - X @ Z - E).max()), 0.0),
        objective=float(objective),
        objective_trace=np.empty(0),
        mu_trace=np.empty(0),
    )


def solve_lrr_self(X, model="l21", opts=None):
    """Self-expressive solve with the data itself as dictionary (A = X).

    The minimizer lies in the row space of X, so with ``X = U S V^T`` the
    problem is solved exactly for ``Z = V Z'``. ``l1``, which is not
    rotation-invariant, is :func:`solve_lrr` on ``(X, X)``: one ADM on ``X``
    with the dictionary ``X V = U S`` and a row-scaling Z-step.
    The other two models have self-only shortcuts. ``frobenius_sq`` has a
    closed form in that SVD and runs no ADM: the result has
    ``iterations=0``, ``converged=True``, empty traces and
    ``final_residuals[1] = 0``. For
    ``l21`` every iterate of E also stays in span(U) and the penalty is
    invariant under U, so the ambient rows drop out too: the ADM runs on
    ``S V^T`` with dictionary ``diag(S)`` from the zero state and
    ``E = U E'``. Its leading sweeps, while the E-step returns zero, are
    run in closed form on vectors of length r (:func:`_fast_forward`;
    ``warm_sweeps`` counts them), and :func:`_run_adm` runs the rest from
    there. The result is that of the plain loop from the zero state to
    roundoff, with the same ``iterations``, ``converged`` and ``mu_trace``.
    On every path the feasibility residual ``final_residuals[0]`` is
    measured on X itself, and an ADM solve stays ``converged`` only if it
    is below ``opts.eps``.
    """
    X = as_matrix(X, "X")
    if not X.any():
        raise DegenerateInputError("self-expressive solve needs a nonzero matrix")
    _check_args(model, opts)
    if model == "l1":
        return solve_lrr(X, X, model, opts)
    f = skinny_svd(X)
    if model == "frobenius_sq":
        return _frobenius_self(X, f, opts)
    Vt = f.V.T
    # set up first: an overflowing I + S^2 raises before the fast-forward
    ops = _z_step(None, f.sigma)
    state = _fast_forward(f.sigma, Vt, opts)
    warm_sweeps = state.iterations
    sol = _run_adm(f.sigma[:, None] * Vt, ops, model, opts, state)
    return _lift(X, X, f.V, replace(sol, warm_sweeps=warm_sweeps), opts.eps, f.U)


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
