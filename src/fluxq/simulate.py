"""Classical and Gaussian-quantum time evolution of quadratic circuits.

The analytic normal-mode solution is the primary engine: augmented circuits
are stiff (mode ratios around 1e4), which fixed-step integrators either
alias or crawl through.  A kick-drift-kick leapfrog is provided purely as
an independent cross-validation oracle.  Expectation values of a Gaussian
state follow the classical trajectories exactly, and the covariance rotates
mode by mode, so nothing beyond the mode solution is ever needed; its time
blocks run on one thread per CPU, with bits independent of the CPU count.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lagrangian import QuadraticLagrangian, Representation
from .netlist import Circuit
from .quantize import GaussianState, HamiltonianSystem, ModeDecomposition, normal_modes

_IC_RESIDUAL_TOL = 1e-9


class InconsistentInitialConditions(ValueError):
    """The declared initial conditions violate the flux/charge laws."""


class StepTooLarge(ValueError):
    """Leapfrog step exceeds the stability/accuracy budget."""


@dataclass(frozen=True)
class ComponentSeries:
    voltage: np.ndarray
    current: np.ndarray


@dataclass
class Trajectory:
    times: np.ndarray
    labels: tuple[str, ...]
    coords: np.ndarray  # (dim, nt)
    velocities: np.ndarray
    accelerations: np.ndarray
    momenta: np.ndarray
    energy: np.ndarray
    lagrangian: QuadraticLagrangian | None = None


def _lstsq_with_check(rows: np.ndarray, rhs: np.ndarray, what: str):
    # no rows (nothing pinned): lstsq returns zeros and a zero residual; no
    # columns (no coordinate): the residual is the whole right-hand side
    solution, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    residual = rows @ solution - rhs
    scale = np.linalg.norm(rhs)
    rel = np.linalg.norm(residual) / scale if scale > 0 else np.linalg.norm(residual)
    if rel > _IC_RESIDUAL_TOL:
        raise InconsistentInitialConditions(
            f"{what} initial conditions are inconsistent (relative residual {rel:.3e})"
        )
    return solution


def initial_state(
    circuit: Circuit,
    lagrangian: QuadraticLagrangian,
    ics: dict[str, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Map component initial conditions to canonical coordinates (x0, p0).

    Each component's term in the Lagrangian decides its role: a potential
    term's value times its initial condition pins its branch coordinate
    (phi = L i for an inductor in the flux types, q = C v for a capacitor
    in loop charge), so x0; a kinetic term's initial condition pins its
    branch rate (a capacitor voltage, an inductor current), giving xdot0
    and p0 = M xdot0.  Design components missing from `ics` default to
    zero; geometric components are constrained only when explicitly given,
    and any remaining freedom is resolved minimum-norm.
    """
    declared = dict(circuit.ics)
    if ics:
        declared.update(ics)
    for cid in declared:
        circuit.component(cid)  # KeyError on unknown ids

    pinned = [c.id for c in circuit.components if not c.geometric or c.id in declared]
    rows = lagrangian._term_rows(pinned)
    a, kinetic, values = lagrangian.A[rows], lagrangian.kinetic[rows], lagrangian.values[rows]
    ic = np.array([declared.get(cid, 0.0) for cid in pinned], dtype=float)
    x0 = _lstsq_with_check(a[~kinetic], values[~kinetic] * ic[~kinetic], "coordinate")
    xdot0 = _lstsq_with_check(a[kinetic], ic[kinetic], "velocity")
    p0 = lagrangian.M @ xdot0
    return x0, p0


def _mode_rotation(omegas: np.ndarray, t):
    """Per-mode entries (c, a, b) of the symplectic map [[c, a], [b, c]]
    that carries mode coordinates (x~, p~) over time t: cos wt, sin(wt)/w,
    -w sin wt for oscillators and 1, t, 0 for zero modes.  For an array of
    times each entry has shape (n_modes, n_times)."""
    t = np.asarray(t, dtype=float)
    w = omegas.reshape(omegas.shape + (1,) * t.ndim)
    osc = w > 0.0
    phase = w * t
    sin = np.sin(phase)
    a = np.where(osc, sin / np.where(osc, w, 1.0), t)
    return np.cos(phase, out=phase), a, np.multiply(-w, sin, out=sin)


def evolve_modes(
    h: HamiltonianSystem,
    modes: ModeDecomposition,
    x0: np.ndarray,
    p0: np.ndarray,
    times: np.ndarray,
    lagrangian: QuadraticLagrangian | None = None,
) -> Trajectory:
    """Exact per-mode evolution on the given time grid.

    Means of a Gaussian state follow these trajectories identically; the
    covariance rotates with the same per-mode angles (see
    propagate_covariance).  Velocities and accelerations come from the
    analytic derivatives of the mode cosines, never finite differences.
    """
    xt0 = np.linalg.solve(modes.modes, x0)
    pt0 = modes.modes.T @ p0
    t = np.asarray(times, dtype=float)
    w = modes.omegas
    c, a, b = _mode_rotation(w, t)
    # x~ = c x~0 + a p~0 and p~ = b x~0 + c p~0, built in the rotation's
    # own arrays; c is free for reuse once both are done
    xt = np.multiply(a, pt0[:, None], out=a)
    xt += c * xt0[:, None]
    pt = np.multiply(b, xt0[:, None], out=b)
    pt += np.multiply(c, pt0[:, None], out=c)

    v = modes.modes
    u = modes.momentum_modes
    coords = v @ xt
    velocities = v @ pt
    momenta = u @ pt
    wx = w[:, None] * xt
    per_mode = np.square(pt, out=c)
    per_mode += np.square(wx, out=wx)
    energy = 0.5 * np.sum(per_mode, axis=0)
    accelerations = v @ np.multiply(-(w[:, None] ** 2), xt, out=wx)
    return Trajectory(
        times=t,
        labels=h.labels,
        coords=coords,
        velocities=velocities,
        accelerations=accelerations,
        momenta=momenta,
        energy=energy,
        lagrangian=lagrangian,
    )


def evolve_leapfrog(
    h: HamiltonianSystem,
    x0: np.ndarray,
    p0: np.ndarray,
    dt: float,
    steps: int,
    lagrangian: QuadraticLagrangian | None = None,
    stride: int = 1,
) -> Trajectory:
    """Kick-drift-kick stepping of H, recorded every `stride` steps.  Used
    as a cross-validation oracle against evolve_modes."""
    omegas = normal_modes(h).omegas
    wmax = float(omegas.max()) if omegas.size else 0.0
    if wmax > 0.0 and dt > 2.0 * np.pi / (20.0 * wmax):
        raise StepTooLarge(
            f"dt={dt:.3e} exceeds 2*pi/(20*omega_max)={2.0 * np.pi / (20.0 * wmax):.3e}"
        )
    dim = h.dim
    half_kick = np.eye(2 * dim)
    half_kick[dim:, :dim] = -0.5 * dt * h.k
    drift = np.eye(2 * dim)
    drift[:dim, dim:] = dt * h.minv
    # a kick-drift-kick step is linear in (x, p), so `stride` steps are one
    # matrix power and the loop runs once per record, not once per step
    record_map = np.linalg.matrix_power(half_kick @ drift @ half_kick, stride)
    n_rec = steps // stride + 1
    states = np.empty((2 * dim, n_rec))
    states[:, 0] = np.concatenate([x0, p0])
    for rec in range(1, n_rec):
        states[:, rec] = record_map @ states[:, rec - 1]
    coords, momenta = states[:dim], states[dim:]
    times = np.arange(n_rec) * stride * dt

    velocities = h.minv @ momenta
    accelerations = -(h.minv @ (h.k @ coords))
    energy = 0.5 * (
        np.sum(momenta * (h.minv @ momenta), axis=0)
        + np.sum(coords * (h.k @ coords), axis=0)
    )
    return Trajectory(
        times=times,
        labels=h.labels,
        coords=coords,
        velocities=velocities,
        accelerations=accelerations,
        momenta=momenta,
        energy=energy,
        lagrangian=lagrangian,
    )


def _series(
    circuit: Circuit, lagrangian: QuadraticLagrangian, trajectory: Trajectory
) -> tuple[np.ndarray, np.ndarray]:
    """(voltage, current), each (components, times) in circuit order.

    The branch rate A @ velocities is the voltage (flux types) or the
    current (loop charge).  The other quantity is the branch value
    A @ coords over the value where the component's term is potential
    (inductor flux, capacitor charge), else, where it is kinetic, the value
    times A @ accelerations."""
    if trajectory.lagrangian is not None and trajectory.lagrangian is not lagrangian:
        if trajectory.lagrangian.labels != lagrangian.labels:
            raise ValueError("trajectory does not match this coordinate system")
    rows = lagrangian._term_rows(c.id for c in circuit.components)
    a, kinetic, values = lagrangian.A[rows], lagrangian.kinetic[rows], lagrangian.values[rows]
    rate = a @ trajectory.velocities
    other = np.empty_like(rate)
    other[~kinetic] = (a[~kinetic] @ trajectory.coords) / values[~kinetic, None]
    other[kinetic] = values[kinetic, None] * (a[kinetic] @ trajectory.accelerations)
    if lagrangian.representation is Representation.LOOP_CHARGE:
        return other, rate
    return rate, other


def observables(
    circuit: Circuit, lagrangian: QuadraticLagrangian, trajectory: Trajectory
) -> dict[str, ComponentSeries]:
    """Per-component voltage (V) and current (A) series from the branch
    assignments and the analytic trajectory derivatives."""
    voltage, current = _series(circuit, lagrangian, trajectory)
    return {
        c.id: ComponentSeries(voltage=voltage[i], current=current[i])
        for i, c in enumerate(circuit.components)
    }


def evolution_matrix(modes: ModeDecomposition, t: float) -> np.ndarray:
    """Analytic phase-space map Phi(t) over stacked (x..., p...); it is
    symplectic: Phi^T J Phi = J."""
    v = modes.modes
    u = modes.momentum_modes
    c, a, b = _mode_rotation(modes.omegas, t)
    return np.block(
        [[(v * c) @ u.T, (v * a) @ v.T], [(u * b) @ u.T, (u * c) @ v.T]]
    )


def propagate_covariance(
    modes: ModeDecomposition,
    h: HamiltonianSystem,
    state: GaussianState,
    times: np.ndarray,
) -> np.ndarray:
    """Covariance matrices cov(t) = Phi(t) cov Phi(t)^T, shape (nt, 2n, 2n).

    The covariance is moved into mode coordinates once, mode-major as
    S[k, r, s, l] with r, s the x/p halves and k, l modes.  Per block of time
    points the 2x2 mode maps R rotate its rows by one batched GEMM, then its
    columns, and V and U = V^{-T} map it back by stacked GEMMs.  Contiguous
    spans of blocks run on threads, one per CPU, the last in the caller; no
    bit depends on the span count."""
    t = np.asarray(times, dtype=float)
    n = modes.dim
    v = modes.modes
    u = modes.momentum_modes
    cov = state.cov
    sk = np.empty((n, 2, 2 * n))  # sk[k, r, s * n + l] = S[k, r, s, l]
    sk[:, 0, :n] = u.T @ cov[:n, :n] @ u
    sk[:, 0, n:] = u.T @ cov[:n, n:] @ v
    sk[:, 1, :n] = sk[:, 0, n:].T
    sk[:, 1, n:] = v.T @ cov[n:, n:] @ v
    # r[i, :, :, k] = rk[i, k] is mode k's map [[c, a], [b, c]] at time i
    r = np.empty((t.size, 2, 2, n))
    r[:, 0, 0], r[:, 0, 1], r[:, 1, 0] = (e.T for e in _mode_rotation(modes.omegas, t))
    r[:, 1, 1] = r[:, 0, 0]
    rk = np.ascontiguousarray(r.transpose(0, 3, 1, 2))
    vt, ut = np.ascontiguousarray(v.T), np.ascontiguousarray(u.T)
    out = np.empty((t.size, *cov.shape))
    tau = max(1, 2**19 // sk.nbytes)  # time points per block: 4 at n = 64

    def run(starts: np.ndarray) -> None:
        rs, y = np.empty((2, tau, 2, n, 2, n))  # rs[:, r, k] = (R_k S[k])[r]
        # z[:, :n] = V [Yxx | Yxp] and z[:, n:, n:] = U Ypp, so z[:, :, n:] = [Zxp; Zpp]
        z = np.empty((tau, 2 * n, 2 * n))
        for i in starts:
            ri, o, m = r[i : i + tau], out[i : i + tau], min(tau, t.size - i)
            rsk = rs[:m].reshape(m, 2, n, 2 * n).transpose(0, 2, 1, 3)
            np.matmul(rk[i : i + tau], sk, out=rsk)
            # Y = (RS) R^T; the px block is never read
            np.einsum("tksl,tqsl->tkql", rs[:m, 0], ri, out=y[:m, 0])
            np.einsum("tksl,tsl->tkl", rs[:m, 1], ri[:, 1], out=y[:m, 1, :, 1])
            np.matmul(v, y[:m, 0].reshape(m, n, 2 * n), out=z[:m, :n])
            np.matmul(u, y[:m, 1, :, 1], out=z[:m, n:, n:])
            np.matmul(z[:m, :n, :n], vt, out=o[:, :n, :n])
            np.matmul(z[:m, :, n:], ut, out=o[:, :, n:])
            o[:, n:, :n] = o[:, :n, n:].transpose(0, 2, 1)

    blocks = range(0, t.size, tau)
    cpus = getattr(os, "sched_getaffinity", lambda _: range(os.cpu_count() or 1))(0)
    spans = np.array_split(blocks, min(len(cpus), len(blocks)) or 1)
    with ThreadPoolExecutor(max(1, len(spans) - 1)) as pool:
        workers = pool.map(run, spans[:-1])
        run(spans[-1])
        list(workers)  # raises a worker's exception here
    return out
