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
        inv = scipy.linalg.solve_triangular(
            self.mass_factor, np.eye(self.dim), lower=True
        )
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
    Cholesky factor."""
    diagnosis = diagnose_quantizability(lagrangian)
    if not diagnosis.quantizable:
        raise SingularKineticMatrix(diagnosis)
    return HamiltonianSystem(
        lagrangian.labels, np.linalg.cholesky(lagrangian.M), lagrangian.K.copy()
    )


def normal_modes(h: HamiltonianSystem) -> ModeDecomposition:
    """Solve K v = omega^2 M v by symmetric reduction: factor M = F F^T,
    eigendecompose F^{-1} K F^{-T}, back-transform.  Zero eigenvalues of K
    are legal zero modes, not errors; their count is the corank of K
    (M is positive definite here, so nonzero modes = rank K).  Raises
    ReducedMatrixOverflow when the reduced matrix is not finite."""
    f = h.mass_factor
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
        omegas=omegas, modes=v, zero_mode_count=zero_count, momentum_modes=momenta
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
    vs = modes.modes[:, osc] * np.sqrt(HBAR / (2.0 * w))
    us = modes.momentum_modes[:, osc] * np.sqrt(HBAR * w / 2.0)
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
