"""Sparse symmetric linear solvers for the Newton systems.

The package has one factorization: a banded Cholesky factor (LAPACK
``dpbtrf``/``dpbtrs``) of the upper band under the reverse Cuthill-McKee
ordering of a sparsity pattern, derived once per pattern with each of
its slots' band place.  Small systems are solved directly with it.  Large
ones use conjugate gradients preconditioned by one V(1,1) cycle of a
smoothed-aggregation multigrid hierarchy.  Each level smooths with a
degree-``CHEB_DEGREE`` Chebyshev polynomial in D^-1 A (Adams, Brezina, Hu
and Tuminaro, J. Comput. Phys. 188, 2003), which needs matrix-vector
products only; the coarsest level alone is factored, by the same banded
Cholesky under its own pattern's ordering.  The switch happens at
``DIRECT_DOF_LIMIT`` unknowns; the Newton step in ``minfem.minimize``
makes it.

Both paths have one rule for a matrix that is not positive definite:
they raise ``IndefiniteSystemError`` (a Cholesky factor that breaks
down, or CG meeting non-positive curvature), and the Newton step retries
with a Tikhonov shift (Nocedal and Wright, Numerical Optimization, 2nd
ed., 2006, Sec. 3.4, Alg. 3.3).

With strength threshold theta = 0, a level's aggregates, tentative
prolongator and coarse near-nullspace depend only on its sparsity
structure and near-nullspace, and so does the band ordering of the
coarsest level.  ``build_amg`` returns them as the hierarchy's
``structure`` and takes a previous one back, so that only the numeric
part is redone; the Newton solves keep it with their
``fem.SparsityPattern`` (``amg_structure``).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .fem import BandOrdering, SparsityPattern

__all__ = [
    "DIRECT_DOF_LIMIT",
    "SolverError",
    "IndefiniteSystemError",
    "AmgHierarchy",
    "LevelStructure",
    "solve_direct",
    "build_amg",
    "pcg_solve",
]

DIRECT_DOF_LIMIT = 15_000  # systems up to this size are solved directly
# Chebyshev smoother: a degree-CHEB_DEGREE polynomial in D^-1 A, tuned to the
# interval [CHEB_LOWER * rho, CHEB_UPPER * rho] around the power estimate rho
# of the spectral radius of D^-1 A
CHEB_DEGREE = 2
CHEB_LOWER = 1.0 / 30.0
CHEB_UPPER = 1.1


class SolverError(RuntimeError):
    pass


class IndefiniteSystemError(SolverError):
    """The matrix is not positive definite.

    Raised when a banded Cholesky factor breaks down (a pivot that is not
    positive, or not finite) and when CG meets a direction of
    non-positive curvature.
    """


def _check_rhs(b: np.ndarray, n: int) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ValueError(f"right-hand side of shape {b.shape} against a matrix of order {n}")
    return b


def _band_cholesky(data: np.ndarray, order: BandOrdering) -> Callable[[np.ndarray], np.ndarray]:
    """Solve of the symmetric matrix with ``data`` in the slots of ``order``'s pattern.

    Factored by ``dpbtrf`` from the upper triangle; a breakdown raises ``IndefiniteSystemError``.
    """
    w, n = order.bandwidth, order.perm.shape[0]
    size = n * (w + 1)
    ab = np.bincount(order.band_slots, weights=data, minlength=size + 1)[:size]
    factor, info = lapack.dpbtrf(ab.reshape(n, w + 1).T, overwrite_ab=True)
    if info != 0:
        raise IndefiniteSystemError(
            f"banded Cholesky factor breaks down at pivot {info} of {n}: "
            "the matrix is not positive definite"
        )

    def solve(rhs: np.ndarray) -> np.ndarray:
        x, _ = lapack.dpbtrs(factor, rhs[order.perm])
        return x[order.position]

    return solve


def solve_direct(
    a: sp.spmatrix, b: np.ndarray, pattern: SparsityPattern | None = None
) -> np.ndarray:
    """Banded Cholesky solve under the band ordering of ``pattern``.

    ``a`` holds its data in the slots of ``pattern`` (else ``ValueError``),
    whose ``band_ordering`` is shared by every matrix with that pattern;
    without one, a canonical copy of ``a`` is ordered by its own structure.
    Only the upper triangle is read.  A right-hand side whose shape is not
    (n,) raises ``ValueError``.

    Raises ``IndefiniteSystemError`` when the factor breaks down (``a`` is
    not positive definite), and ``SolverError`` on non-finite values or
    when the solution fails the 1e-10 relative-residual contract after
    one refinement step (near-singular systems).
    """
    a = sp.csr_matrix(a)
    if pattern is None:
        a = a.copy()  # made canonical in place: leave the caller's arrays be
        a.sum_duplicates()
        pattern = SparsityPattern.from_csr(a)
    elif not pattern.holds(a):
        raise ValueError("the matrix does not hold its data in the slots of its pattern")
    b = _check_rhs(b, pattern.n)
    solve = _band_cholesky(a.data, pattern.band_ordering)
    x = solve(b)
    if not np.all(np.isfinite(x)):
        raise SolverError("banded Cholesky produced non-finite values")
    bnorm = np.linalg.norm(b)
    resid = np.linalg.norm(a @ x - b)
    if resid > 1e-10 * max(bnorm, 1e-300):
        # one refinement step, then accept down to the backward-stable floor
        x = x + solve(b - a @ x)
        resid = np.linalg.norm(a @ x - b)
        floor = float(np.abs(a).sum(axis=1).max()) * np.linalg.norm(x)
        if resid > 1e-10 * max(bnorm + floor, 1e-300):
            raise SolverError(
                f"direct solve residual {resid:.3e} exceeds 1e-10 relative tolerance"
            )
    return x


# ---------------------------------------------------------------------------
# smoothed-aggregation hierarchy


@dataclass(eq=False)
class _AmgLevel:
    """One level: its operator, transfers and Chebyshev smoother data.

    ``bounds`` is the interval [lo, hi] the smoother assumes for the
    eigenvalues of ``d_inv * a``.  The coarsest level keeps ``a`` only.
    """

    a: sp.csr_matrix
    p: sp.csr_matrix | None = None
    r: sp.csr_matrix | None = None
    d_inv: np.ndarray | None = None
    bounds: tuple[float, float] | None = None

    def smooth(self, b: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
        """``CHEB_DEGREE`` Chebyshev steps for a x = b from x (None: zero).

        The three-term recurrence (Saad, Iterative Methods, Alg. 12.1)
        with preconditioner D: the error goes to p(D^-1 A) times itself,
        for one fixed polynomial p with p(0) = 1 and |p| < 1 on
        (0, lo + hi), whatever x is.
        """
        lo, hi = self.bounds
        theta, delta = 0.5 * (hi + lo), 0.5 * (hi - lo)
        sigma = theta / delta
        rho = 1.0 / sigma
        r = b if x is None else b - self.a @ x
        d = (self.d_inv * r) / theta
        x = d if x is None else x + d
        for _ in range(1, CHEB_DEGREE):
            r = r - self.a @ d
            rho_next = 1.0 / (2.0 * sigma - rho)
            d = (rho_next * rho) * d + (2.0 * rho_next / delta) * (self.d_inv * r)
            rho = rho_next
            x = x + d
        return x


@dataclass(frozen=True, eq=False)
class LevelStructure:
    """The sparsity-only part of one level.

    ``indptr``, ``indices`` and ``near_nullspace`` are copies of the
    level's key; ``t`` (the tentative prolongator, which encodes the
    aggregates) and ``b_coarse`` (the coarse near-nullspace) follow from
    it alone.  Both are None on the coarsest level: at most 64 dofs, or
    where aggregation stalled.  ``pattern`` is the key's structure as a
    ``SparsityPattern``, derived on first use; the coarsest level's
    ``pattern.band_ordering`` orders the coarse factor.
    """

    indptr: np.ndarray
    indices: np.ndarray
    near_nullspace: np.ndarray
    t: sp.csr_matrix | None
    b_coarse: np.ndarray | None

    def matches(self, a: sp.csr_matrix, b: np.ndarray) -> bool:
        return (
            np.array_equal(self.indptr, a.indptr)
            and np.array_equal(self.indices, a.indices)
            and np.array_equal(self.near_nullspace, b)
        )

    @functools.cached_property
    def pattern(self) -> SparsityPattern:
        n = self.indptr.shape[0] - 1
        ones = np.ones(self.indices.shape[0])
        return SparsityPattern.from_csr(
            sp.csr_matrix((ones, self.indices, self.indptr), shape=(n, n))
        )


@dataclass(eq=False)
class AmgHierarchy:
    """Multigrid levels plus the banded Cholesky solve of the coarsest operator.

    ``apply`` runs one V(1,1) cycle that smooths with the same Chebyshev
    polynomial before and after the coarse correction, which makes it a
    symmetric positive definite preconditioner.  ``structure`` holds one
    ``LevelStructure`` per level, the coarsest included, for the next
    ``build_amg`` to reuse.
    """

    levels: list[_AmgLevel]
    coarse_solve: Callable[[np.ndarray], np.ndarray]
    structure: tuple[LevelStructure, ...] = ()

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def level_sizes(self) -> list[int]:
        return [lvl.a.shape[0] for lvl in self.levels]

    def apply(self, residual: np.ndarray) -> np.ndarray:
        return self._cycle(0, np.asarray(residual, dtype=float))

    def _cycle(self, k: int, b: np.ndarray) -> np.ndarray:
        lvl = self.levels[k]
        if k == len(self.levels) - 1:
            return self.coarse_solve(b)
        x = lvl.smooth(b)
        x = x + lvl.p @ self._cycle(k + 1, lvl.r @ (b - lvl.a @ x))
        return lvl.smooth(b, x)


def _aggregate(a: sp.csr_matrix) -> tuple[np.ndarray, int]:
    """Greedy standard aggregation over all symmetric nonzero connections.

    The passes read the CSR arrays through memoryviews and keep the
    aggregates in a Python list: several times faster than indexing NumPy
    arrays one row at a time, and, unlike ``tolist()``, without a Python
    int per stored entry.
    """
    n = a.shape[0]
    indptr = memoryview(a.indptr)
    indices = memoryview(a.indices)
    agg = [-1] * n  # agg[i] is still -1 at each visit, so i may stay in its row
    next_agg = 0
    # pass 1: roots whose whole neighborhood is untouched
    for i in range(n):
        if agg[i] != -1:
            continue
        nbr = indices[indptr[i] : indptr[i + 1]]
        if all(agg[j] == -1 for j in nbr):
            for j in nbr:
                agg[j] = next_agg
            agg[i] = next_agg
            next_agg += 1
    # pass 2: attach leftovers to the first adjacent aggregate.  Pass 1 left a node
    # out only for a neighbor it had assigned (an empty row is a root), so none remain
    attach: list[tuple[int, int]] = []
    for i in range(n):
        if agg[i] != -1:
            continue
        for j in indices[indptr[i] : indptr[i + 1]]:
            if agg[j] >= 0:
                attach.append((i, agg[j]))
                break
    for i, k in attach:
        agg[i] = k
    return np.array(agg, dtype=np.int64), next_agg


def _tentative_prolongator(
    agg: np.ndarray, n_agg: int, b: np.ndarray
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Near-nullspace restricted to aggregates, locally orthonormalized.

    Aggregates of equal size q share one batched QR of their stacked
    (K, q, m) blocks.  Aggregate k keeps the columns whose |R_ii| exceed
    1e-12 of its largest (at least the first) and owns the next block of
    coarse dofs, in aggregate order.
    """
    n, m = b.shape
    order = np.argsort(agg, kind="stable")
    bounds = np.searchsorted(agg[order], np.arange(n_agg + 1))
    sizes = np.diff(bounds)

    n_kept = np.zeros(n_agg, dtype=np.int64)
    groups = []
    for q in np.unique(sizes):
        ids = np.flatnonzero(sizes == q)
        members = order[bounds[ids][:, None] + np.arange(q)]  # (K, q)
        q_mat, r_mat = np.linalg.qr(b[members])  # (K, q, p), (K, p, m)
        diag = np.abs(np.diagonal(r_mat, axis1=1, axis2=2))
        keep = diag > 1e-12 * np.maximum(diag.max(axis=1), 1e-300)[:, None]
        keep[~keep.any(axis=1), 0] = True
        n_kept[ids] = keep.sum(axis=1)
        groups.append((ids, members, q_mat, r_mat, keep))

    offsets = np.concatenate(([0], np.cumsum(n_kept)))
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    b_coarse = np.empty((int(offsets[-1]), m))
    for ids, members, q_mat, r_mat, keep in groups:
        coarse = offsets[ids][:, None] + np.cumsum(keep, axis=1) - 1  # (K, p)
        mask = np.broadcast_to(keep[:, None, :], q_mat.shape)
        rows.append(np.broadcast_to(members[:, :, None], q_mat.shape)[mask])
        cols.append(np.broadcast_to(coarse[:, None, :], q_mat.shape)[mask])
        vals.append(q_mat[mask])
        b_coarse[coarse[keep]] = r_mat[keep]

    t = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, b_coarse.shape[0]),
    )
    return t, b_coarse


def _spectral_radius_estimate(a: sp.csr_matrix, d_inv: np.ndarray, iters: int = 10) -> float:
    """Power-iteration estimate of rho(D^-1 A), deterministic start."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(a.shape[0])
    rho = 1.0
    for _ in range(iters):
        w = d_inv * (a @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 1.0
        rho = norm / np.linalg.norm(v)
        v = w / norm
    return rho


def build_amg(
    a: sp.spmatrix,
    near_nullspace: np.ndarray,
    structure: Sequence[LevelStructure] = (),
) -> AmgHierarchy:
    """Smoothed-aggregation hierarchy for a symmetric positive-diagonal matrix.

    Strength of connection keeps every symmetric nonzero (theta = 0); the
    tentative prolongator carries the near-nullspace; one damped-Jacobi
    step (omega = 4/3 over rho, a 10-step power-iteration estimate of the
    spectral radius of D^-1 A) smooths it.  The same D^-1 and rho set each
    level's Chebyshev smoother, on [CHEB_LOWER * rho, CHEB_UPPER * rho].
    Coarse operators are Galerkin products; coarsening stops at 64 dofs or
    when aggregation stalls.  The coarsest operator is factored by banded
    Cholesky under its own pattern's band ordering; when it is not
    positive definite (an indefinite ``a`` can pass the diagonal check),
    the build raises ``IndefiniteSystemError``.
    ``near_nullspace`` is an (n,) or (n, m) array with one row per matrix
    row; any other row count raises ``ValueError``.

    ``structure`` is the ``structure`` of an earlier hierarchy.  Level k
    reuses its entry when the level's CSR ``indptr``, CSR ``indices`` and
    near-nullspace block equal the stored copies exactly; from the first
    level that differs on, aggregates and tentative prolongators are
    computed afresh.  A stalled aggregation is stored and reused the same
    way, and so is the coarsest level's band ordering.  The result is
    bit-identical either way.
    """
    a = sp.csr_matrix(a)
    b = np.asarray(near_nullspace, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"near-nullspace has {b.shape[0]} rows, the matrix {a.shape[0]}")
    if np.any(a.diagonal() <= 0.0):
        raise SolverError("matrix has a non-positive diagonal entry")

    levels: list[_AmgLevel] = []
    built: list[LevelStructure] = []
    rng = np.random.default_rng(7)
    while True:
        k = len(built)
        if k < len(structure) and structure[k].matches(a, b):
            level = structure[k]
        else:
            structure = ()  # this level and every coarser one start afresh
            t = b_coarse = None  # the coarsest level unless it coarsens
            if a.shape[0] > 64:
                agg, n_agg = _aggregate(a)
                if n_agg < a.shape[0]:  # else aggregation stalled
                    t, b_coarse = _tentative_prolongator(agg, n_agg, b)
            level = LevelStructure(a.indptr.copy(), a.indices.copy(), b.copy(), t, b_coarse)
        built.append(level)
        if level.t is None:
            break
        d_inv = 1.0 / a.diagonal()
        rho = _spectral_radius_estimate(a, d_inv)
        omega = (4.0 / 3.0) / rho
        p = (level.t - sp.diags(omega * d_inv) @ (a @ level.t)).tocsr()
        r = p.T.tocsr()
        a_coarse = (r @ (a @ p)).tocsr()
        # Galerkin identity spot check on random probes
        for _ in range(2):
            probe = rng.standard_normal(p.shape[1])
            lhs = a_coarse @ probe
            rhs = r @ (a @ (p @ probe))
            if np.linalg.norm(lhs - rhs) > 1e-10 * max(np.linalg.norm(rhs), 1e-300):
                raise SolverError("Galerkin coarse-operator identity violated")
        levels.append(
            _AmgLevel(a=a, p=p, r=r, d_inv=d_inv, bounds=(CHEB_LOWER * rho, CHEB_UPPER * rho))
        )
        a, b = a_coarse, level.b_coarse
    levels.append(_AmgLevel(a=a))
    # at most 64 dofs, or stalled aggregation, which only a diagonal matrix
    # (half-bandwidth 0) has: either way a narrow band
    coarse = a.copy()
    coarse.sum_duplicates()  # canonical: the data in the slots of the level's pattern
    coarse_solve = _band_cholesky(coarse.data, level.pattern.band_ordering)
    return AmgHierarchy(levels=levels, coarse_solve=coarse_solve, structure=tuple(built))


# ---------------------------------------------------------------------------
# preconditioned conjugate gradients


def pcg_solve(
    a: sp.spmatrix,
    b: np.ndarray,
    precond: AmgHierarchy | np.ndarray | None,
    rtol: float,
    maxiter: int,
) -> tuple[np.ndarray, int]:
    """Preconditioned CG; returns (solution, iterations).

    ``precond`` is an AMG hierarchy (one V-cycle per application), the
    diagonal of ``a`` (Jacobi preconditioning), or None.  Raises
    ``IndefiniteSystemError`` on non-positive curvature and
    ``SolverError`` when ``maxiter`` is exceeded.  ``rtol`` must be finite
    and in (0, 1), ``maxiter`` a positive integer, and ``b`` of shape
    (n,); anything else raises ``ValueError`` naming the argument.
    """
    if not (isinstance(rtol, numbers.Real) and math.isfinite(rtol) and 0.0 < rtol < 1.0):
        raise ValueError(f"rtol must be finite and in (0, 1), got {rtol!r}")
    if isinstance(maxiter, bool) or not isinstance(maxiter, numbers.Integral) or maxiter < 1:
        raise ValueError(f"maxiter must be a positive integer, got {maxiter!r}")
    n = a.shape[0]
    b = _check_rhs(b, n)
    if isinstance(precond, AmgHierarchy):
        apply_m = precond.apply
    elif precond is None:
        apply_m = lambda r: r
    else:
        d_inv = 1.0 / np.asarray(precond, dtype=float)
        apply_m = lambda r: d_inv * r

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), 0
    x = np.zeros(n)
    r = b.copy()
    z = apply_m(r)
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, maxiter + 1):
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            raise IndefiniteSystemError(
                f"non-positive curvature p^T A p = {pap:.3e} at iteration {k}"
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= rtol * bnorm:
            # recursive residual can drift; accept only the true one
            true_r = b - a @ x
            if np.linalg.norm(true_r) <= rtol * bnorm:
                return x, k
            r = true_r
        z = apply_m(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"CG did not reach rtol {rtol:g} in {maxiter} iterations "
        f"(relative residual {np.linalg.norm(r) / bnorm:.3e})"
    )
