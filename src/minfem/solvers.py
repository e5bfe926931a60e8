"""Sparse symmetric linear solvers for the Newton systems.

Small systems are solved directly: one banded LU with partial pivoting
(LAPACK ``dgbtrf``/``dgbtrs``) under the reverse Cuthill-McKee ordering
of their sparsity pattern, which ``fem.SparsityPattern`` derives once per
pattern.  Pivoting keeps indefinite systems solvable, as the Newton
step's Tikhonov shifts expect.  Large ones use
conjugate gradients preconditioned by one V(1,1) cycle of a
smoothed-aggregation multigrid hierarchy.  Each level smooths with a
degree-``CHEB_DEGREE`` Chebyshev polynomial in D^-1 A (Adams, Brezina, Hu
and Tuminaro, J. Comput. Phys. 188, 2003), which needs matrix-vector
products only; the coarsest level alone is factored.  The switch happens
at ``DIRECT_DOF_LIMIT`` unknowns; the Newton step in ``minfem.minimize``
makes it.

With strength threshold theta = 0, a level's aggregates, tentative
prolongator and coarse near-nullspace depend only on its sparsity
structure and near-nullspace.  ``build_amg`` returns them as the
hierarchy's ``structure`` and takes a previous one back: a level whose
CSR ``indptr``, CSR ``indices`` and near-nullspace block all equal the
stored ones exactly reuses its structure, and only the numeric part
(Jacobi smoothing of the prolongator, the Galerkin products, the
smoother bounds and the coarse factorization) is redone.  The first level
that differs is rebuilt afresh, and so is every coarser one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .fem import SparsityPattern

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
    """CG met a direction of non-positive curvature."""


def solve_direct(
    a: sp.spmatrix, b: np.ndarray, pattern: SparsityPattern | None = None
) -> np.ndarray:
    """Banded LU solve under the band ordering of ``pattern``.

    ``pattern`` holds every stored entry of ``a`` (its entries may be
    fewer); its ``band_ordering`` is computed once and shared by every
    matrix with that pattern.  Without one, ``a``'s own structure is used.
    The band storage is filled from ``a``'s stored entries, and one that
    lies outside the ordering's band raises ``ValueError``.

    Raises ``SolverError`` on an exactly singular factor, on non-finite
    values, or when the solution fails the 1e-10 relative-residual
    contract after one refinement step (near-singular systems).
    """
    a = sp.csr_matrix(a)
    b = np.asarray(b, dtype=float)
    if pattern is None:
        pattern = SparsityPattern.from_csr(a)
    if a.shape != (pattern.n, pattern.n):
        raise ValueError(f"matrix of shape {a.shape} against a pattern of order {pattern.n}")
    order = pattern.band_ordering
    w, n = order.bandwidth, pattern.n
    rows = np.repeat(order.position, np.diff(a.indptr))
    cols = order.position[a.indices]
    offset = rows - cols
    outside = np.abs(offset) > w
    if outside.any():
        k = int(np.flatnonzero(outside)[0])
        raise ValueError(
            f"matrix entry ({order.perm[rows[k]]}, {a.indices[k]}) lies outside the band "
            f"of half-bandwidth {w} of its pattern's ordering"
        )
    # LAPACK band storage with room for the pivoting fill: A[i, j] sits at
    # ab[2w + i - j, j], column-major; duplicates add up
    ldab = 3 * w + 1
    flat = cols * ldab + 2 * w + offset
    ab = np.bincount(flat, weights=a.data, minlength=n * ldab).reshape(n, ldab).T
    lu, piv, info = lapack.dgbtrf(ab, w, w, overwrite_ab=True)
    if info != 0:
        raise SolverError(f"banded LU factor is singular (dgbtrf info {info})")

    def lu_solve(rhs: np.ndarray) -> np.ndarray:
        x, _ = lapack.dgbtrs(lu, w, w, rhs[order.perm], piv)
        return x[order.position]

    x = lu_solve(b)
    if not np.all(np.isfinite(x)):
        raise SolverError("banded LU produced non-finite values")
    bnorm = np.linalg.norm(b)
    resid = np.linalg.norm(a @ x - b)
    if resid > 1e-10 * max(bnorm, 1e-300):
        # one refinement step, then accept down to the backward-stable floor
        x = x + lu_solve(b - a @ x)
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
    """The sparsity-only part of one coarsening step.

    ``indptr``, ``indices`` and ``near_nullspace`` are copies of the
    level's key; ``t`` (the tentative prolongator, which encodes the
    aggregates) and ``b_coarse`` (the coarse near-nullspace) follow from
    it alone.  Both are None where aggregation stalled, which makes the
    level the coarsest.
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


@dataclass(eq=False)
class AmgHierarchy:
    """Multigrid levels plus a factorization of the coarsest operator.

    ``apply`` runs one V(1,1) cycle that smooths with the same Chebyshev
    polynomial before and after the coarse correction, which makes it a
    symmetric positive definite preconditioner.  ``structure`` holds one
    ``LevelStructure`` per coarsened level, and one more for a coarsest
    level where aggregation stalled, for the next ``build_amg`` to reuse.
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
    when aggregation stalls.
    ``near_nullspace`` is an (n,) or (n, m) array with one row per matrix
    row; any other row count raises ``ValueError``.

    ``structure`` is the ``structure`` of an earlier hierarchy.  Level k
    reuses its entry when the level's CSR ``indptr``, CSR ``indices`` and
    near-nullspace block equal the stored copies exactly; from the first
    level that differs on, aggregates and tentative prolongators are
    computed afresh.  A stalled aggregation is stored and reused the same
    way.  The result is bit-identical either way.
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
    while a.shape[0] > 64:
        k = len(built)
        if k < len(structure) and structure[k].matches(a, b):
            level = structure[k]
        else:
            structure = ()  # this level and every coarser one start afresh
            agg, n_agg = _aggregate(a)
            if n_agg >= a.shape[0]:  # stalled: this level is the coarsest
                t = b_coarse = None
            else:
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
    if a.shape[0] <= 2000:
        coarse_factor = scipy.linalg.lu_factor(a.toarray())
        coarse_solve = lambda rhs: scipy.linalg.lu_solve(coarse_factor, rhs)
    else:  # aggregation stalled on an unusually weak graph; stay sparse
        coarse_solve = spla.splu(sp.csc_matrix(a)).solve
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
    and in (0, 1), ``maxiter`` a positive integer; anything else raises
    ``ValueError`` naming the argument.
    """
    if not (isinstance(rtol, numbers.Real) and math.isfinite(rtol) and 0.0 < rtol < 1.0):
        raise ValueError(f"rtol must be finite and in (0, 1), got {rtol!r}")
    if isinstance(maxiter, bool) or not isinstance(maxiter, numbers.Integral) or maxiter < 1:
        raise ValueError(f"maxiter must be a positive integer, got {maxiter!r}")
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
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
