"""Legendre transform, quantizability diagnosis, normal modes and Gaussian
ground states for quadratic circuit Lagrangians.

A representation is quantizable exactly when its kinetic matrix M is
nonsingular: every coordinate then owns a conjugate momentum p = M xdot.
M is a positively weighted Gram matrix of the kinetic rows of the signed
assignment matrix A (plus any geometric self-inductance forms), so its null
space is the null space of those small-integer rows, found by row
reduction without the SI weights; the numeric rank of the equilibrated M
(scaled to unit diagonal) only confirms it: its exactly-zero rows are null
directions, one Cholesky of the others shifted down by the rank threshold
plus a rounding margin confirms their full rank, and where it fails the
eigenvalues above the threshold are counted.  normal_modes counts the
zero modes of K in the same way.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .lagrangian import QuadraticLagrangian, Representation
from .topology import RankCrossCheckFailure, _equilibrated_rank

HBAR = 1.054571817e-34  # J s

# relative singular-value thresholds of the equilibrated M and K
_M_RANK_TOL = 1e-12
_K_RANK_TOL = 1e-10
# zero threshold of the row reduction, relative to the largest entry
_RREF_TOL = 1e-9
# below this many coordinates one dense eigh of M forms M^{1/2} faster than
# its blocks do (on the benchmark ladders, one BLAS thread: dense wins at 48
# coordinates, the blocks from 60 on)
_BLOCK_ROOT_MIN_DIM = 56
# ground_state's warning, which the CLI prints as its own line
_ZERO_MODE_WARNING = "{} zero mode(s); ground state restricted to the oscillating subspace"


class ReducedMatrixOverflow(RuntimeError):
    """The reduced matrix F^{-1} K F^{-T} of normal_modes (M = F F^T) has
    entries that overflow float64: M and K span a larger range of scales
    than double precision holds, as with a 1e-300 capacitance or loop
    inductance."""

    def __init__(self):
        super().__init__(
            "reduced stiffness matrix F^-1 K F^-T overflows float64 "
            "(M and K span too wide a range of scales)"
        )


class KineticMatrixOverflow(RuntimeError):
    """The kinetic matrix M has entries that overflow float64, as when
    capacitances (node flux) or inductances (loop charge) near the top of
    the double range add up."""

    def __init__(self):
        super().__init__(
            "kinetic matrix M overflows float64 (its capacitances or "
            "inductances sum past the largest double)"
        )


class SingularKineticMatrix(ValueError):
    """Legendre transform attempted on a representation with passive
    coordinates; carries the diagnosis."""

    def __init__(self, diagnosis: "QuantizabilityDiagnosis"):
        super().__init__(
            "kinetic matrix is singular: " + "; ".join(diagnosis.attributions)
        )
        self.diagnosis = diagnosis


@dataclass(frozen=True)
class QuantizabilityDiagnosis:
    quantizable: bool
    null_space: tuple[np.ndarray, ...]
    attributions: tuple[str, ...]


@dataclass(frozen=True)
class HamiltonianSystem:
    """H(x, p) = 1/2 p^T M^{-1} p + 1/2 x^T K x, with M held as its lower
    Cholesky factor: M = mass_factor mass_factor^T."""

    labels: tuple[str, ...]
    mass_factor: np.ndarray
    k: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def minv(self) -> np.ndarray:
        """M^{-1}, formed from the factor on first read."""
        inv = _solve_lower(self.mass_factor, np.eye(self.dim))
        # a capacitance or inductance near the bottom of the double range
        # overflows M^-1; normal_modes reports that as ReducedMatrixOverflow
        with np.errstate(over="ignore", invalid="ignore"):
            minv = inv.T @ inv
            return 0.5 * (minv + minv.T)

    def mass_matrix(self) -> np.ndarray:
        return self.mass_factor @ self.mass_factor.T


@dataclass(frozen=True)
class ModeDecomposition:
    """K V = M V diag(omega^2) with V^T M V = I; omegas ascending.
    momentum_modes holds the columns M v_k, i.e. V^{-T}, which map mode
    momenta to coordinates; it is formed once as F U (V = F^{-T} U, so
    M V = F U) and is read-only."""

    omegas: np.ndarray
    modes: np.ndarray
    zero_mode_count: int
    momentum_modes: np.ndarray = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.omegas)


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state over stacked (x..., p...) with mean and covariance."""

    mean: np.ndarray
    cov: np.ndarray


def _solve_lower(f: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """f^-1 b (f^-T b, trans=1), f lower triangular, by dtrtrs over an F-ordered b."""
    if not b.size:  # dtrtrs rejects an empty b
        return np.zeros(b.shape)
    x, info = scipy.linalg.lapack.dtrtrs(f.T, b, lower=0, trans=1 - trans, overwrite_b=1)
    if info:
        raise np.linalg.LinAlgError(f"singular matrix: zero pivot {info - 1}")
    return x


def _rref_nullspace(rows: np.ndarray) -> np.ndarray:
    """Null-space basis (one row per free column) of a small-integer matrix.

    Full column rank, the quantizable case, is certified by one LAPACK LU
    with partial pivoting: with at least as many rows as columns and every
    pivot above the zero threshold, the basis is empty.  On totally
    unimodular rows (incidence and fundamental-loop rows) every pivot is
    +-1 and every multiplier and update is an exact small integer, so the
    certificate is exact.  Otherwise Gauss-Jordan with partial pivoting, one
    numpy elimination per column, builds the basis.  The reduced row
    echelon form does not depend on the pivot chosen, so this is the exact
    rational basis up to rounding, and exact on totally unimodular rows.
    Float rows are reduced in place."""
    m = np.asarray(rows, dtype=float)
    dim = m.shape[1]
    tol = _RREF_TOL * max(1.0, np.abs(m).max(initial=0.0))
    if m.shape[0] >= dim > 0:
        lu, _, _ = scipy.linalg.lapack.dgetrf(m)
        if np.all(np.abs(np.diag(lu)) > tol):
            return np.zeros((0, dim))
    pivots: list[int] = []
    for col in range(dim):
        rank = len(pivots)
        if rank == m.shape[0]:
            break
        pivot_row = rank + int(np.argmax(np.abs(m[rank:, col])))
        if abs(m[pivot_row, col]) <= tol:
            continue
        m[[rank, pivot_row]] = m[[pivot_row, rank]]
        m[rank] /= m[rank, col]
        # incidence-like rows are sparse: touch only rows with an entry here
        hit = np.flatnonzero(m[:, col])
        hit = hit[hit != rank]
        m[hit] -= np.outer(m[hit, col], m[rank])
        pivots.append(col)
    m[np.abs(m) <= tol] = 0.0
    free = np.setdiff1d(np.arange(dim), pivots)
    basis = np.zeros((free.size, dim))
    basis[np.arange(free.size), free] = 1.0
    basis[:, pivots] = 0.0 - m[: len(pivots), free].T
    return basis


def _describe_null_vector(
    vec: np.ndarray, labels: tuple[str, ...], rep: Representation
) -> str:
    support = [labels[i] for i in np.flatnonzero(vec)]
    if rep is Representation.NODE_FLUX and all(s.startswith("phi_") for s in support):
        nodes = ", ".join(s[len("phi_") :] for s in support)
        if len(support) == 1:
            return f"node {nodes}: no attached capacitance"
        return f"nodes {nodes}: no capacitive path to ground"
    if rep is Representation.LOOP_CHARGE and all(s.startswith("Q_") for s in support):
        loops = ", ".join(s[len("Q_") :] for s in support)
        if len(support) == 1:
            return f"loop {loops}: no inductance around the loop"
        return f"loops {loops}: no net inductance around the combination"
    return "coordinates " + ", ".join(support) + ": no kinetic support"


def diagnose_quantizability(lagrangian: QuadraticLagrangian) -> QuantizabilityDiagnosis:
    """Null space of M, computed from the kinetic components' small-integer
    assignment rows and confirmed against the numeric rank of M; raises
    RankCrossCheckFailure where the two disagree, and KineticMatrixOverflow
    where M is not finite."""
    if not np.isfinite(lagrangian.M).all():
        raise KineticMatrixOverflow()
    rows = np.vstack([lagrangian.A[lagrangian.kinetic], lagrangian.kinetic_forms])

    null_vectors = []
    for vec in _rref_nullspace(rows):
        arr = vec / np.linalg.norm(vec)
        if arr[np.flatnonzero(arr)[0]] < 0:
            arr = -arr
        null_vectors.append(arr)

    numeric_null = lagrangian.dim - _equilibrated_rank(lagrangian.M, _M_RANK_TOL)
    if numeric_null != len(null_vectors):
        raise RankCrossCheckFailure("kinetic matrix", len(null_vectors), numeric_null)

    attributions = tuple(
        _describe_null_vector(v, lagrangian.labels, lagrangian.representation)
        for v in null_vectors
    )
    return QuantizabilityDiagnosis(
        quantizable=not null_vectors,
        null_space=tuple(null_vectors),
        attributions=attributions,
    )


def legendre_transform(lagrangian: QuadraticLagrangian) -> HamiltonianSystem:
    """H = 1/2 p^T M^{-1} p + 1/2 x^T K x with p = M xdot, holding M as its
    Cholesky factor.  The system shares K with the Lagrangian, read-only."""
    diagnosis = diagnose_quantizability(lagrangian)
    if not diagnosis.quantizable:
        raise SingularKineticMatrix(diagnosis)
    lagrangian.K.flags.writeable = False
    return HamiltonianSystem(
        lagrangian.labels, np.linalg.cholesky(lagrangian.M), lagrangian.K
    )


def normal_modes(h: HamiltonianSystem) -> ModeDecomposition:
    """Solve K v = omega^2 M v by symmetric reduction: factor M = F F^T,
    eigendecompose F^{-1} K F^{-T}, back-transform.  Zero eigenvalues of K
    are legal zero modes, not errors; their count is the corank of K
    (M is positive definite here, so nonzero modes = rank K).  Raises
    ReducedMatrixOverflow when the reduced matrix is not finite."""
    f = h.mass_factor
    # unchecked solves: an overflow to inf or nan anywhere is caught below
    kt = _solve_lower(f, _solve_lower(f, np.array(h.k, order="F")).T).T
    with np.errstate(over="ignore", invalid="ignore"):
        kt = np.add(kt, kt.T)
        kt *= 0.5
    if not np.isfinite(kt).all():
        raise ReducedMatrixOverflow()
    # kt.T is the exactly symmetric kt in Fortran order: U is written over it
    evals, u, info = scipy.linalg.lapack.dsyevd(kt.T, compute_v=1, lower=1, overwrite_a=1)
    if info:  # the np.linalg.eigh call, bit for bit, without its wrapper
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    momenta = f @ np.ascontiguousarray(u)  # eigh's order: F U keeps its bits
    momenta.flags.writeable = False
    v = _solve_lower(f, u, trans=1)  # in U's storage
    zero_count = h.dim - _equilibrated_rank(h.k, _K_RANK_TOL)
    clipped = np.clip(evals, 0.0, None)
    clipped[:zero_count] = 0.0
    return ModeDecomposition(np.sqrt(clipped), v, zero_count, momenta)


def _vacuum_factors(modes: ModeDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """V and U = momentum_modes over the oscillating modes, scaled by
    sqrt(hbar / 2 omega) and sqrt(hbar omega / 2): the vacuum's x and p
    covariance factors, their row norms its spreads."""
    z = modes.dim - np.count_nonzero(modes.omegas)  # omegas ascend from z zeros
    w = modes.omegas[z:]
    vs = np.multiply(modes.modes[:, z:], np.sqrt(HBAR / (2.0 * w)), order="F")
    return vs, np.multiply(modes.momentum_modes[:, z:], np.sqrt(HBAR * w / 2.0), order="F")


def ground_state(modes: ModeDecomposition, h: HamiltonianSystem) -> GaussianState:
    """Vacuum of the oscillating modes; zero modes have no normalizable one,
    and a warning gives their count."""
    if modes.zero_mode_count:
        warnings.warn(_ZERO_MODE_WARNING.format(modes.zero_mode_count), stacklevel=2)
    vs, us = _vacuum_factors(modes)
    cov = scipy.linalg.block_diag(vs @ vs.T, us @ us.T)
    return GaussianState(mean=np.zeros(2 * modes.dim), cov=cov)


def mode_uncertainty_products(state: GaussianState) -> np.ndarray:
    """Per-coordinate uncertainty products delta_x_i * delta_p_i."""
    dim = state.cov.shape[0] // 2
    dx = np.sqrt(np.diag(state.cov)[:dim])
    dp = np.sqrt(np.diag(state.cov)[dim:])
    return dx * dp


def mode_attribution(
    modes: ModeDecomposition, h: HamiltonianSystem
) -> dict[str, float]:
    """Assign each coordinate the angular frequency (rad/s) of one mode: the
    one-to-one assignment of modes to coordinates with the largest total
    mass-weighted magnitude |M^{1/2} V|.  Where every mode's largest
    magnitude sits on a different coordinate (lowest index on ties), those
    picks are the assignment.  Among assignments of equal total it returns
    the one reached by augmenting from the greedy picks in mode order (see
    _max_weight_assignment).  Raises KineticMatrixOverflow when
    |M^{1/2} V| is not finite, as for capacitances near the top of the
    double range."""
    if not modes.dim:
        return {}
    with np.errstate(over="ignore", invalid="ignore"):
        w = _mass_root_weights(h.mass_factor, modes.modes)
    if not np.isfinite(w).all():
        raise KineticMatrixOverflow()
    picks = _max_weight_assignment(w)
    return {h.labels[coord]: float(modes.omegas[k]) for k, coord in enumerate(picks)}


def _mass_root_weights(f: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|M^{1/2} V| for M = f f^T with lower factor f.

    The principal square root of a block-diagonal matrix is the block
    diagonal of its blocks' roots (Higham, Functions of Matrices, SIAM
    2008, Thm 1.13).  From _BLOCK_ROOT_MIN_DIM coordinates on, M is split
    into the connected blocks of _mass_blocks, and the blocks of each size
    take their roots from one batched eigh of f_b f_b^T (a 1 x 1 block's
    root is |f_jj|).  Smaller M, or M in one block, takes its root from one
    dense eigh of f f^T."""
    n = len(f)
    if n >= _BLOCK_ROOT_MIN_DIM:
        label = _mass_blocks(f)
        order = np.argsort(label, kind="stable")
        ordered = label[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        if starts.size > 1:
            sizes = np.diff(np.r_[starts, n])
            w = np.empty_like(v)
            for size in np.unique(sizes).tolist():
                # one row of coordinates per block, ascending within it
                idx = order[starts[sizes == size, None] + np.arange(size)]
                if size == 1:
                    j = idx[:, 0]
                    w[j] = np.abs(f[j, j, None] * v[j])
                    continue
                fb = f[idx[:, :, None], idx[:, None, :]]
                evals, q = np.linalg.eigh(fb @ fb.transpose(0, 2, 1))
                qt = q.transpose(0, 2, 1)
                root = (q * np.sqrt(np.maximum(evals, 0.0))[:, None]) @ qt
                w[idx] = np.abs(root @ v[idx])
            return w
    m = f @ f.T  # one syrk, exactly symmetric: dsyevd overwrites its transpose
    evals, q, info = scipy.linalg.lapack.dsyevd(m.T, compute_v=1, lower=1, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    q = np.ascontiguousarray(q)  # eigh's order, so the products keep their bits
    msqrt = (q * np.sqrt(np.maximum(evals, 0.0))) @ q.T
    return np.abs(msqrt @ v)


def _mass_blocks(f: np.ndarray) -> np.ndarray:
    """A label per coordinate of M = f f^T, shared by exactly the
    coordinates of one connected component of the nonzero pattern of the
    lower factor f, which are the components of M's pattern.

    Column j's parent is its first nonzero below the diagonal.  The trees
    of this elimination forest are M's components (Liu, SIAM J. Matrix
    Anal. Appl. 11, 134 (1990)), and pointer doubling labels every
    coordinate with its tree's root.  A fill entry that cancels to an exact
    zero can cut a tree in two; then a nonzero of f joins two labels, and
    the larger root is hooked under the smaller until no nonzero does."""
    n = len(f)
    low = np.tril(f, -1) != 0
    label = np.where(low.any(0), low.argmax(0), np.arange(n))
    rows, cols = np.nonzero(low)
    while True:
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
        a, b = label[rows], label[cols]
        cross = a != b
        if not cross.any():
            return label
        label[np.maximum(a[cross], b[cross])] = np.minimum(a[cross], b[cross])


def _max_weight_assignment(w: np.ndarray) -> list[int]:
    """The coordinate of each mode (column) in a one-to-one assignment with
    the largest total of the finite square weights w[coordinate, mode].

    Shortest augmenting paths on dual prices (Jonker & Volgenant, Computing
    38, 325 (1987); Crouse, IEEE Trans. Aerosp. Electron. Syst. 52, 1679
    (2016)), warm-started from the greedy picks: each mode takes its largest
    weight (lowest coordinate on ties) at price u[k] = that weight, and a
    coordinate picked by several modes stays with the lowest of them.  Each
    unpicked coordinate j gets the lowest price v[j] that keeps
    u[k] + v[j] >= w[j, k] for every mode and goes, in coordinate order, to
    the lowest mode meeting it with equality if that mode is still
    unmatched.  The modes left over then augment in mode order, each along a
    shortest path of reduced weights u + v - w, lower coordinates first on
    equal lengths.  The prices stay feasible and tight on every matched
    pair, so the assignment is optimal; among optima it is the one this
    order reaches."""
    n = w.shape[0]
    picks = w.argmax(0)
    col4row = picks.tolist()  # the coordinate of each mode
    row4col = [-1] * n  # the mode of each coordinate
    unmatched = []
    for k, j in enumerate(col4row):
        if row4col[j] < 0:
            row4col[j] = k
        else:
            unmatched.append(k)
    if not unmatched:
        return col4row
    best = w[picks, np.arange(n)]
    u = best.tolist()
    v = np.zeros(n)
    free = [j for j in range(n) if row4col[j] < 0]
    gain = w[free] - best
    v[free] = gain.max(1)
    waiting = set(unmatched)
    for j, k in zip(free, gain.argmax(1).tolist()):
        if k in waiting:
            waiting.remove(k)
            row4col[j], col4row[k] = k, j

    wt = w.T
    for k in unmatched:
        if k not in waiting:
            continue
        # Dijkstra from mode k, its distances kept less u[k]; a scanned
        # coordinate's price in vv is inf, so no later row reaches it again
        vv = v.copy()
        dist = np.subtract(vv, wt[k])
        rows, cols, reached, cand = [k], [], [], [dist]
        dist = dist.copy()
        while True:
            j = int(dist.argmin())
            d = float(dist[j])
            if row4col[j] < 0:
                break
            i = row4col[j]
            rows.append(i)
            cols.append(j)
            reached.append(d)
            dist[j] = vv[j] = np.inf
            r = np.subtract(vv, wt[i])
            np.add(r, d + u[i], out=r)
            cand.append(r)
            np.minimum(dist, r, out=dist)
        u[k] = -d
        for i, jj, dj in zip(rows[1:], cols, reached):
            u[i] -= d - dj
            v[jj] += d - dj
        # back along the path: each coordinate came from the first scanned
        # mode that reached it at its distance
        cand = np.array(cand)
        while True:
            t = int(cand[:, j].argmin())
            i = rows[t]
            row4col[j], col4row[i] = i, j
            if t == 0:
                break
            j = cols[t - 1]
    return col4row
