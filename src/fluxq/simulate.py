"""Classical and Gaussian-quantum time evolution of quadratic circuits.

The analytic normal-mode solution is the primary engine: augmented circuits
are stiff (mode ratios around 1e4), which fixed-step integrators either
alias or crawl through.  A kick-drift-kick leapfrog is provided purely as
an independent cross-validation oracle.  Expectation values of a Gaussian
state follow the classical trajectories exactly, and the covariance rotates
mode by mode, so nothing beyond the mode solution is ever needed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lagrangian import QuadraticLagrangian, Representation
from .netlist import Circuit, ComponentKind
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


def _is_flux_type(rep: Representation) -> bool:
    return rep in (Representation.NODE_FLUX, Representation.EXTENDED_NODE_FLUX)


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

    Node-flux type: inductor currents pin branch fluxes (phi = L i) and so
    x0; capacitor voltages pin branch flux rates, giving xdot0 and
    p0 = M xdot0.  Loop-charge: the dual (capacitor charges pin x0,
    inductor currents pin xdot0).  Design components missing from `ics`
    default to zero; geometric components are constrained only when
    explicitly given, and any remaining freedom is resolved minimum-norm.
    """
    declared = dict(circuit.ics)
    if ics:
        declared.update(ics)
    for cid in declared:
        circuit.component(cid)  # KeyError on unknown ids

    def constraint(kind: ComponentKind, target):
        pinned = [
            c
            for c in circuit.components
            if c.kind is kind and (not c.geometric or c.id in declared)
        ]
        rows = lagrangian.assignment_matrix([c.id for c in pinned])
        rhs = np.array([target(c, declared.get(c.id, 0.0)) for c in pinned])
        return rows, rhs

    # the component kind whose value stores the coordinate, and the other
    stored, other = ComponentKind.INDUCTOR, ComponentKind.CAPACITOR
    if not _is_flux_type(lagrangian.representation):
        stored, other = other, stored
    rows_x, rhs_x = constraint(stored, lambda c, ic: c.value * ic)
    rows_v, rhs_v = constraint(other, lambda c, ic: ic)

    x0 = _lstsq_with_check(rows_x, rhs_x, "coordinate")
    xdot0 = _lstsq_with_check(rows_v, rhs_v, "velocity")
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
    A @ coords over the value where the component stores the coordinate
    (inductor flux, capacitor charge), else the value times
    A @ accelerations."""
    if trajectory.lagrangian is not None and trajectory.lagrangian is not lagrangian:
        if trajectory.lagrangian.labels != lagrangian.labels:
            raise ValueError("trajectory does not match this coordinate system")
    a = lagrangian.assignment_matrix([c.id for c in circuit.components])
    values = np.array([c.value for c in circuit.components], dtype=float)
    flux_type = _is_flux_type(lagrangian.representation)
    stored = ComponentKind.INDUCTOR if flux_type else ComponentKind.CAPACITOR
    by_value = np.array([c.kind is stored for c in circuit.components], dtype=bool)
    rate = a @ trajectory.velocities
    other = np.empty_like(rate)
    other[by_value] = (a[by_value] @ trajectory.coords) / values[by_value, None]
    other[~by_value] = values[~by_value, None] * (a[~by_value] @ trajectory.accelerations)
    return (rate, other) if flux_type else (other, rate)


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

    The covariance is moved into mode coordinates once, as S[r, k, s, l]
    with r, s the x/p halves and k, l modes.  At each time point the
    per-mode 2x2 maps R rotate its rows, then its columns (two fused passes
    into fixed buffers), and V and U = V^{-T} map it back with GEMMs that
    write straight into the result; the time loop allocates nothing."""
    t = np.asarray(times, dtype=float)
    n = modes.dim
    v = modes.modes
    u = modes.momentum_modes
    cov = state.cov
    s = np.empty((2, n, 2, n))
    s[0, :, 0] = u.T @ cov[:n, :n] @ u
    s[0, :, 1] = u.T @ cov[:n, n:] @ v
    s[1, :, 0] = s[0, :, 1].T
    s[1, :, 1] = v.T @ cov[n:, n:] @ v
    # r[i, :, :, k] is mode k's map [[c, a], [b, c]] at time i
    r = np.empty((t.size, 2, 2, n))
    r[:, 0, 0], r[:, 0, 1], r[:, 1, 0] = (e.T for e in _mode_rotation(modes.omegas, t))
    r[:, 1, 1] = r[:, 0, 0]
    vt, ut = np.ascontiguousarray(v.T), np.ascontiguousarray(u.T)
    rs, y = np.empty_like(s), np.empty_like(s)
    # z[:n] = V [Yxx | Yxp] and z[n:, n:] = U Ypp, so z[:, n:] = [Zxp; Zpp]
    z = np.empty((2 * n, 2 * n))
    out = np.empty((t.size, *cov.shape))
    for i in range(t.size):
        np.einsum("rsk,skql->rkql", r[i], s, out=rs)
        # Y = (RS) R^T; the px block is never read
        np.einsum("ksl,qsl->kql", rs[0], r[i], out=y[0])
        np.einsum("ksl,sl->kl", rs[1], r[i, 1], out=y[1, :, 1])
        np.matmul(v, y[0].reshape(n, 2 * n), out=z[:n])
        np.matmul(u, y[1, :, 1], out=z[n:, n:])
        np.matmul(z[:n, :n], vt, out=out[i, :n, :n])
        np.matmul(z[:, n:], ut, out=out[i, :, n:])
        out[i, n:, :n] = out[i, :n, n:].T
    return out
