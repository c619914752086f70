"""Legendre transform, quantizability diagnosis, normal modes and Gaussian
ground states for quadratic circuit Lagrangians.

A representation is quantizable exactly when its kinetic matrix M is
nonsingular: every coordinate then owns a conjugate momentum p = M xdot.
M is a positively weighted Gram matrix of the kinetic rows of the signed
assignment matrix A (plus any geometric self-inductance forms), so its null
space is the null space of those small-integer rows, found by row
reduction without the SI weights; the numeric rank of the equilibrated M
only confirms it.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .lagrangian import QuadraticLagrangian, Representation

HBAR = 1.054571817e-34  # J s

# relative singular-value thresholds of the equilibrated M and K
_M_RANK_TOL = 1e-12
_K_RANK_TOL = 1e-10
# zero threshold of the row reduction, relative to the largest entry
_RREF_TOL = 1e-9


class RankCrossCheckFailure(RuntimeError):
    """The structural null space of M and the numeric rank of the
    equilibrated M disagree: M is too ill-conditioned in floating point to
    confirm the structural answer."""

    def __init__(self, structural: int, numeric: int):
        super().__init__(
            f"kinetic matrix rank unconfirmed: structural null space dimension "
            f"{structural} disagrees with numeric estimate {numeric}"
        )
        self.structural = structural
        self.numeric = numeric


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
    representation: Representation


@dataclass
class HamiltonianSystem:
    """H(x, p) = 1/2 p^T Minv p + 1/2 x^T K x."""

    labels: tuple[str, ...]
    minv: np.ndarray
    k: np.ndarray
    hbar: float = HBAR
    _chol_m: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def mass_factor(self) -> np.ndarray:
        """The lower Cholesky factor F of M, so M = F F^T."""
        if self._chol_m is not None:
            return self._chol_m
        r = np.linalg.cholesky(self.minv)
        # minv = r r^T  =>  M = r^{-T} r^{-1}
        r_inv = scipy.linalg.solve_triangular(r, np.eye(self.dim), lower=True)
        return np.linalg.cholesky(r_inv.T @ r_inv)

    def mass_matrix(self) -> np.ndarray:
        f = self.mass_factor()
        return f @ f.T

    def energy(self, x: np.ndarray, p: np.ndarray) -> float:
        return 0.5 * float(p @ self.minv @ p) + 0.5 * float(x @ self.k @ x)


@dataclass(frozen=True)
class ModeDecomposition:
    """K V = M V diag(omega^2) with V^T M V = I; omegas ascending."""

    omegas: np.ndarray
    modes: np.ndarray
    zero_mode_count: int
    _momenta: np.ndarray = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.omegas)

    def momentum_modes(self) -> np.ndarray:
        """Columns M v_k, i.e. V^{-T}; maps mode momenta to coordinates.
        Formed once per decomposition as F U (V = F^{-T} U, so M V = F U)
        and returned read-only."""
        return self._momenta


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state over stacked (x..., p...) with mean and covariance."""

    mean: np.ndarray
    cov: np.ndarray


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
    rational basis up to rounding, and exact on totally unimodular rows."""
    m = np.array(rows, dtype=float)
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


def _equilibrated_rank(mat: np.ndarray, rel_tol: float) -> int:
    """Numeric rank of a PSD matrix, independent of the SI scale of its rows.

    Symmetric equilibration to unit diagonal keeps structurally zero
    directions at machine-zero singular values, while physically tiny but
    nonzero entries (a geometric Cg or Lg far below the design values) stay
    O(1); a plain threshold against the largest singular value would
    swallow them in stiff augmented circuits."""
    if mat.shape[0] == 0:
        return 0
    diag = np.diag(mat)
    # PSD: a zero diagonal entry forces a zero row, so scaling it by 1 is safe
    scale = np.where(diag > 0.0, 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0)), 1.0)
    # scaled by rows, then by columns (the outer product of the scales
    # overflows for a subnormal diagonal entry); the singular values of a
    # symmetric matrix are its absolute eigenvalues
    svals = np.abs(np.linalg.eigvalsh(mat * scale[:, None] * scale))
    smax = svals.max()
    if smax == 0.0:
        return 0
    return int(np.sum(svals > rel_tol * smax))


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
        raise RankCrossCheckFailure(len(null_vectors), numeric_null)

    attributions = tuple(
        _describe_null_vector(v, lagrangian.labels, lagrangian.representation)
        for v in null_vectors
    )
    return QuantizabilityDiagnosis(
        quantizable=not null_vectors,
        null_space=tuple(null_vectors),
        attributions=attributions,
        representation=lagrangian.representation,
    )


def legendre_transform(lagrangian: QuadraticLagrangian) -> HamiltonianSystem:
    """H = 1/2 p^T M^{-1} p + 1/2 x^T K x with p = M xdot.  The inverse is
    taken through a symmetric (Cholesky) factorization."""
    diagnosis = diagnose_quantizability(lagrangian)
    if not diagnosis.quantizable:
        raise SingularKineticMatrix(diagnosis)
    chol = np.linalg.cholesky(lagrangian.M)
    inv_factor = scipy.linalg.solve_triangular(
        chol, np.eye(lagrangian.dim), lower=True
    )
    # a capacitance or inductance near the bottom of the double range
    # overflows M^-1; normal_modes reports that as ReducedMatrixOverflow
    with np.errstate(over="ignore", invalid="ignore"):
        minv = inv_factor.T @ inv_factor
        minv = 0.5 * (minv + minv.T)
    return HamiltonianSystem(
        labels=lagrangian.labels,
        minv=minv,
        k=lagrangian.K.copy(),
        _chol_m=chol,
    )


def normal_modes(h: HamiltonianSystem) -> ModeDecomposition:
    """Solve K v = omega^2 M v by symmetric reduction: factor M = F F^T,
    eigendecompose F^{-1} K F^{-T}, back-transform.  Zero eigenvalues of K
    are legal zero modes, not errors; their count is the corank of K
    (M is positive definite here, so nonzero modes = rank K).  Raises
    ReducedMatrixOverflow when the reduced matrix is not finite."""
    f = h.mass_factor()
    # unchecked solves: an overflow to inf or nan anywhere is caught below
    kt = scipy.linalg.solve_triangular(f, h.k, lower=True, check_finite=False)
    kt = scipy.linalg.solve_triangular(f, kt.T, lower=True, check_finite=False).T
    with np.errstate(over="ignore", invalid="ignore"):
        kt = 0.5 * (kt + kt.T)
    if not np.isfinite(kt).all():
        raise ReducedMatrixOverflow()
    evals, u = np.linalg.eigh(kt)
    v = scipy.linalg.solve_triangular(f, u, lower=True, trans="T")
    momenta = f @ u
    momenta.flags.writeable = False
    zero_count = h.dim - _equilibrated_rank(h.k, _K_RANK_TOL)
    clipped = np.clip(evals, 0.0, None)
    clipped[:zero_count] = 0.0
    omegas = np.sqrt(clipped)
    return ModeDecomposition(
        omegas=omegas, modes=v, zero_mode_count=zero_count, _momenta=momenta
    )


def ground_state(modes: ModeDecomposition, h: HamiltonianSystem) -> GaussianState:
    """Vacuum of the oscillating modes: in mass-normalized coordinates each
    mode k has <x^2> = hbar / (2 omega_k) and <p^2> = hbar omega_k / 2.
    Zero modes have no normalizable ground state and are skipped with a
    warning; the state is then restricted to the oscillating subspace."""
    if modes.zero_mode_count:
        warnings.warn(
            f"{modes.zero_mode_count} zero mode(s); ground state restricted to the "
            "oscillating subspace",
            stacklevel=2,
        )
    dim = modes.dim
    osc = modes.omegas > 0.0
    w = modes.omegas[osc]
    vs = modes.modes[:, osc] * np.sqrt(h.hbar / (2.0 * w))
    us = modes.momentum_modes()[:, osc] * np.sqrt(h.hbar * w / 2.0)
    cov = np.zeros((2 * dim, 2 * dim))
    cov[:dim, :dim] = vs @ vs.T
    cov[dim:, dim:] = us @ us.T
    return GaussianState(mean=np.zeros(2 * dim), cov=cov)


def mode_uncertainty_products(state: GaussianState) -> np.ndarray:
    """Per-coordinate uncertainty products delta_x_i * delta_p_i."""
    dim = state.cov.shape[0] // 2
    dx = np.sqrt(np.diag(state.cov)[:dim])
    dp = np.sqrt(np.diag(state.cov)[dim:])
    return dx * dp


def mode_attribution(
    modes: ModeDecomposition, h: HamiltonianSystem
) -> dict[str, float]:
    """Assign each coordinate the angular frequency (rad/s) of the mode it
    dominates in mass-weighted magnitude.  Greedy argmax over |M^{1/2} V|,
    ties to the lower index; conflicts resolved by optimal assignment.
    Raises KineticMatrixOverflow when |M^{1/2} V| is not finite, as for
    capacitances near the top of the double range."""
    if not modes.dim:
        return {}
    with np.errstate(over="ignore", invalid="ignore"):
        evals, q = np.linalg.eigh(h.mass_matrix())
        msqrt = (q * np.sqrt(np.clip(evals, 0.0, None))) @ q.T
        w = np.abs(msqrt @ modes.modes)
    if not np.isfinite(w).all():
        raise KineticMatrixOverflow()

    picks = np.argmax(w, axis=0).tolist()
    if len(set(picks)) != modes.dim:
        # imported here: scipy.optimize costs ~0.25 s of start-up, and only
        # conflicting picks need it
        import scipy.optimize

        rows, cols = scipy.optimize.linear_sum_assignment(-w.T)
        picks = [int(c) for _, c in sorted(zip(rows, cols))]
    return {h.labels[coord]: float(modes.omegas[k]) for k, coord in enumerate(picks)}
