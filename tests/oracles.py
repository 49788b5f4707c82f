"""Independent oracles the test suite checks the library against.

Everything here is deliberately written from scratch against the
mathematical definitions (no calls into the package's own code paths for
the quantity under test), so a bug in the library cannot hide behind the
same bug in its test.
"""

import itertools
import types

import numpy as np
import scipy.linalg


def full_svd_nuclear(M):
    """Nuclear norm straight from a full SVD."""
    return float(np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False).sum())


def svt_by_full_svd(M, theta):
    """Singular-value threshold of ``M`` and the nuclear norm of the result,
    from a full SVD: every singular value shrunk by ``theta``, clamped at
    zero."""
    U, s, Vt = np.linalg.svd(np.asarray(M, dtype=float), full_matrices=False)
    t = np.maximum(s - theta, 0.0)
    return (U * t) @ Vt, float(t.sum())


def moore_penrose_violations(M, P):
    """Max violation across the four Moore-Penrose identities."""
    M = np.asarray(M, dtype=float)
    P = np.asarray(P, dtype=float)
    return max(
        np.abs(M @ P @ M - M).max(),
        np.abs(P @ M @ P - P).max(),
        np.abs((M @ P).T - M @ P).max(),
        np.abs((P @ M).T - P @ M).max(),
    )


def svt_objective(J, M, theta):
    """theta*||J||_* + 0.5*||J - M||_F^2."""
    return theta * full_svd_nuclear(J) + 0.5 * float(((J - M) ** 2).sum())


def l21_objective(W, Q, alpha):
    """alpha*||W||_{2,1} + 0.5*||W - Q||_F^2."""
    l21 = float(np.linalg.norm(W, axis=0).sum())
    return alpha * l21 + 0.5 * float(((W - Q) ** 2).sum())


def l1_objective(W, Q, alpha):
    return alpha * float(np.abs(W).sum()) + 0.5 * float(((W - Q) ** 2).sum())


def beats_random_perturbations(objective, candidate, n_perturbations, scale, seed):
    """True iff ``objective(candidate)`` is no worse than the objective at
    ``n_perturbations`` random perturbations of the candidate."""
    rng = np.random.default_rng(seed)
    base = objective(candidate)
    for _ in range(n_perturbations):
        delta = rng.standard_normal(candidate.shape) * scale
        if objective(candidate + delta) < base - 1e-12:
            return False
    return True


def golden_section_minimize(fun, lo, hi, tol=1e-12):
    """Golden-section search for a scalar unimodal function."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def scalar_shrink_oracle(q, alpha):
    """Per-entry soft-threshold value found by direct 1-D minimization of
    alpha*|w| + 0.5*(w - q)^2.

    Evaluated in extended precision: comparison-based search can only
    localize a smooth minimum to about sqrt(machine epsilon), and float64
    would leave the result short of the 1e-8 tolerance the tests use.
    """
    q = np.longdouble(q)
    alpha = np.longdouble(alpha)
    span = abs(q) + alpha + 1.0
    w = golden_section_minimize(
        lambda w: alpha * abs(w) + 0.5 * (w - q) ** 2, -span, span
    )
    return float(w)


def accuracy_by_exhaustive_maps(predicted, truth):
    """Best matched fraction over every injection between the cluster-id and
    class-id sets (brute force, no confusion-matrix shortcut)."""
    p = np.asarray(predicted, dtype=int)
    t = np.asarray(truth, dtype=int)
    kp = int(p.max()) + 1
    kt = int(t.max()) + 1
    m = p.size
    best = 0
    if kp <= kt:
        for phi in itertools.permutations(range(kt), kp):
            hits = sum(1 for i in range(m) if phi[p[i]] == t[i])
            best = max(best, hits)
    else:
        for psi in itertools.permutations(range(kp), kt):
            hits = sum(1 for i in range(m) if p[i] == psi[t[i]])
            best = max(best, hits)
    return best / m


def auc_by_threshold_sweep(scores, truth):
    """AUC as the trapezoidal area under the ROC traced by sweeping every
    finite threshold (plus the endpoints)."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(truth, dtype=bool)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    thresholds = np.concatenate(([np.inf], np.unique(s)[::-1], [-np.inf]))
    pts = []
    for thr in thresholds:
        flag = s >= thr
        pts.append(((flag & ~y).sum() / n_neg, (flag & y).sum() / n_pos))
    pts = np.asarray(pts)
    return float(np.trapezoid(pts[:, 1], pts[:, 0]))


def roc_by_threshold_sweep(scores, truth):
    """ROC points (false-positive rate, true-positive rate): (0, 0), then
    one point per distinct score from the highest down, each counted by a
    full pass over the samples."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(truth, dtype=bool)
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    pts = [(0.0, 0.0)]
    for thr in sorted(set(s.tolist()), reverse=True):
        flag = s >= thr
        pts.append(((flag & ~y).sum() / n_neg, (flag & y).sum() / n_pos))
    return np.asarray(pts)


def laplacian_spectrum_oracle(W):
    """Normalized-Laplacian spectrum computed independently (dense eigh on
    an explicitly assembled matrix)."""
    W = np.asarray(W, dtype=float)
    deg = W.sum(axis=1)
    with np.errstate(divide="ignore"):
        inv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    L = np.eye(W.shape[0]) - np.diag(inv) @ W @ np.diag(inv)
    return np.sort(np.abs(np.linalg.eigvalsh((L + L.T) / 2)))


def subgradient_objective(Z, E, lam):
    return float(np.linalg.svd(Z, compute_uv=False).sum()
                 + lam * np.linalg.norm(E, axis=0).sum())


def projected_subgradient_oracle(X, A, lam, iters=100_000, step_scale=0.5):
    """Projected subgradient descent on

        min ||Z||_* + lam*||E||_{2,1}   s.t.  X = A Z + E

    over the joint variable (Z, E): take a normalized subgradient step,
    project back onto the affine feasible set, and keep the best feasible
    objective seen. Steps decay as 1/sqrt(k). Entirely independent of the
    alternating-direction solver.
    """
    X = np.asarray(X, dtype=float)
    A = np.asarray(A, dtype=float)
    d, n = X.shape
    chol = scipy.linalg.cho_factor(np.eye(d) + A @ A.T)

    def project(Z, E):
        lam_mult = scipy.linalg.cho_solve(chol, X - A @ Z - E)
        return Z + A.T @ lam_mult, E + lam_mult

    Z, E = project(np.zeros((A.shape[1], n)), X.copy())
    best = subgradient_objective(Z, E, lam)
    for k in range(iters):
        U, s, Vt = np.linalg.svd(Z, full_matrices=False)
        keep = s > 1e-12
        GZ = U[:, keep] @ Vt[keep]
        norms = np.linalg.norm(E, axis=0)
        scale = np.where(norms > 1e-12, lam / np.where(norms > 0, norms, 1.0), 0.0)
        GE = scale * E
        gn = np.sqrt((GZ**2).sum() + (GE**2).sum())
        if gn == 0.0:
            break
        step = step_scale / np.sqrt(k + 1.0)
        Z, E = project(Z - step * GZ / gn, E - step * GE / gn)
        f = subgradient_objective(Z, E, lam)
        if f < best:
            best = f
    return best


def oracle_instance(seed, d=8, n=10):
    """The seeded random (X, A) instances used for the solver-vs-oracle
    equivalence suite."""
    rng = np.random.default_rng(np.random.SeedSequence([916, seed]))
    return rng.standard_normal((d, n)), rng.standard_normal((d, n))


def adm_reference(X, A, model, opts, s=None):
    """The ADM sweep of ``solver.solve_lrr`` on (X, A) as plain allocating
    expressions, one fresh array per operation, as it was written before
    the sweep moved into a fixed workspace.

    Given ``s``, the caller states ``A^T A = diag(s^2)`` (``A = U diag(s)``
    with orthonormal columns in ``U``, the frame that ``solve_lrr`` solves
    in), and the Z-step is the row scaling by ``1 / (1 + s^2)``; the
    in-place sweep must then reproduce it bit for bit: same ``Z``, ``E``,
    traces, residuals and iteration count. Without ``s``, ``I + A^T A`` is
    factored by Cholesky and inverted once: the ADM on the full dictionary,
    with no reduction, that the reduced solve must agree with. The Z-step
    operators and the two shrinks are written out here; only the SVT, which
    this reference does not test, is the package's own. ``objective`` is
    ``||Z||_* + lam err(E)`` at the last sweep.
    """
    from lrr.linalg import svt_with_nuclear

    X = np.asarray(X, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    d, n = X.shape
    n_a = A.shape[1]
    if s is not None:
        gram = 1.0 + s[:, None] * s[:, None]
        z_solve = (lambda R: R / gram)
    else:
        inverse = scipy.linalg.cho_solve(scipy.linalg.cho_factor(np.eye(n_a) + A.T @ A),
                                         np.eye(n_a))
        z_solve = (lambda R: inverse @ R)
    apply_a, apply_at = (lambda M: A @ M), (lambda M: A.T @ M)

    lam = opts.lam
    mu = opts.mu_init
    Z = np.zeros((n_a, n))
    E = np.zeros((d, n))
    Y1 = np.zeros((d, n))
    Y2 = np.zeros((n_a, n))
    basis = None
    obj_trace = []
    mu_trace = []
    converged = False
    iterations = 0
    for _ in range(opts.max_iters):
        iterations += 1
        mu_trace.append(mu)
        J, j_nuclear, basis = svt_with_nuclear(Z + Y2 / mu, 1.0 / mu, basis)
        Z = z_solve(apply_at(X - E) + J + (apply_at(Y1) - Y2) / mu)
        AZ = apply_a(Z)
        G = X - AZ + Y1 / mu
        if model == "l21":
            norms = np.linalg.norm(G, axis=0)
            kept = np.maximum(norms - lam / mu, 0.0)
            scale = np.zeros_like(norms)
            over = kept > 0.0
            scale[over] = kept[over] / norms[over]
            E = G * scale
            err = float(kept.sum())
        elif model == "l1":
            E = np.sign(G) * np.maximum(np.abs(G) - lam / mu, 0.0)
            err = float(np.abs(E).sum())
        else:
            E = (mu / (2.0 * lam + mu)) * G
            err = float(np.linalg.norm(E)) ** 2
        R1 = X - AZ - E
        R2 = Z - J
        r1 = float(np.abs(R1).max())
        r2 = float(np.abs(R2).max())
        Y1 = Y1 + mu * R1
        Y2 = Y2 + mu * R2
        mu = min(opts.rho * mu, opts.mu_max)
        obj_trace.append(j_nuclear + lam * err)
        if r1 < opts.eps and r2 < opts.eps:
            converged = True
            break
    return types.SimpleNamespace(
        Z=Z, E=E, iterations=iterations, converged=converged,
        final_residuals=(r1, r2), objective=full_svd_nuclear(Z) + lam * err,
        objective_trace=np.asarray(obj_trace), mu_trace=np.asarray(mu_trace))


def frobenius_kkt_violation(X, Z, lam, E=None, rank_tol=1e-8):
    """Distance of ``Z`` from the KKT conditions of

        min ||Z||_* + lam * ||E||_F^2   s.t.  X = X Z + E.

    Stationarity in E makes the multiplier ``2 lam E``, so
    ``W = 2 lam X^T E`` must be a subgradient of the nuclear norm at Z: with
    ``Z = P S Q^T`` cut at singular values above ``rank_tol``, ``W Q = P``,
    ``W^T P = Q`` and ``||W||_2 <= 1``. For a symmetric PSD Z this says that W
    is the identity on the range of Z. Returns the largest violation of the
    three, 0 at an exact minimizer.

    ``E`` defaults to ``X - X Z``. Where ``X Z`` matches ``X`` to more digits
    than a float holds (singular values far above ``1 / sqrt(2 lam)``), that
    difference is roundoff, and the solver's own E must be passed instead,
    with ``E = X - X Z`` checked separately.
    """
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    E = X - X @ Z if E is None else np.asarray(E, dtype=float)
    W = 2.0 * lam * (X.T @ E)
    P, s, Qt = np.linalg.svd(Z)
    k = int(np.count_nonzero(s > rank_tol))
    P, Q = P[:, :k], Qt[:k].T
    return max(np.linalg.norm(W, 2) - 1.0,
               np.linalg.norm(W @ Q - P, 2) if k else 0.0,
               np.linalg.norm(W.T @ P - Q, 2) if k else 0.0,
               0.0)


def csv_text_reference(M, header=False):
    """The text of ``matio.write_matrix_csv`` as a per-value f-string
    formatter builds it: one line per row, each value ``f"{v:.17g}"``, and
    the whole text joined before it is written."""
    M = np.asarray(M, dtype=np.float64)
    lines = []
    if header:
        lines.append(",".join(f"c{j}" for j in range(M.shape[1])))
    for row in M:
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"
