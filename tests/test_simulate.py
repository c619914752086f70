import math
import os
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg

from fluxq import (
    ComponentKind,
    GaussianState,
    GeometricMode,
    GeometricPolicy,
    InconsistentInitialConditions,
    StepTooLarge,
    augment_geometric,
    build_spanning_tree,
    charge_law_residual,
    evolution_matrix,
    evolve_leapfrog,
    evolve_modes,
    extended_node_lagrangian,
    flux_law_residual,
    fundamental_loops,
    ground_state,
    initial_state,
    legendre_transform,
    loop_lagrangian,
    node_lagrangian,
    normal_modes,
    observables,
    parse_netlist,
    propagate_covariance,
    topology_report,
)
from fluxq.lagrangian import QuadraticLagrangian, Representation
from fluxq.quantize import HBAR, SingularKineticMatrix
from fluxq.simulate import _mode_rotation, _series

from conftest import extended, ladder as _ladder, load

MINIMAL = GeometricPolicy(cap_mode=GeometricMode.MINIMAL)
ALL_PAIRS = GeometricPolicy(cap_mode=GeometricMode.ALL_PAIRS)


def node_setup(circuit):
    lag = node_lagrangian(circuit, build_spanning_tree(circuit))
    h = legendre_transform(lag)
    return lag, h, normal_modes(h)


def augmented_node_setup(circuit, policy=MINIMAL):
    report = topology_report(circuit)
    augmented, _ = augment_geometric(circuit, report, policy)
    lag = node_lagrangian(augmented, build_spanning_tree(augmented))
    h = legendre_transform(lag)
    return augmented, lag, h, normal_modes(h)


def loop_setup(circuit, policy=MINIMAL):
    report = topology_report(circuit)
    _, record = augment_geometric(circuit, report, policy)
    tree = build_spanning_tree(circuit)
    loops = fundamental_loops(circuit, tree)
    lag = loop_lagrangian(circuit, loops, record)
    h = legendre_transform(lag)
    return loops, lag, h, normal_modes(h)


def test_initial_state_passive_example(passive_lc):
    """2 mV on both capacitors and quiet inductors put all charge on node
    2: q2 = (C1 + C2) * 2 mV."""
    lag = node_lagrangian(passive_lc, build_spanning_tree(passive_lc))
    x0, p0 = initial_state(passive_lc, lag, {"C1": 2e-3, "C2": 2e-3})
    assert np.allclose(x0, [0.0, 0.0])
    assert p0[0] == pytest.approx(1.2e-14, rel=1e-12)
    assert p0[1] == 0.0


def test_initial_state_reduced(reduced_lc):
    lag, _, _ = node_setup(reduced_lc)
    x0, p0 = initial_state(reduced_lc, lag, {"C": 2e-3})
    assert np.allclose(x0, [0.0])
    assert p0[0] == pytest.approx(1.2e-14, rel=1e-12)


def test_initial_state_inconsistent_raises(passive_lc):
    lag = node_lagrangian(passive_lc, build_spanning_tree(passive_lc))
    with pytest.raises(InconsistentInitialConditions):
        initial_state(passive_lc, lag, {"C1": 2e-3, "C2": 5e-3})


def test_initial_state_unknown_component(passive_lc):
    lag = node_lagrangian(passive_lc, build_spanning_tree(passive_lc))
    with pytest.raises(KeyError):
        initial_state(passive_lc, lag, {"C9": 1e-3})


def test_evolve_reduced_waveform(reduced_lc):
    """V_C(t) = 2 mV * cos(omega t) with f = 1.0273 GHz."""
    lag, h, modes = node_setup(reduced_lc)
    x0, p0 = initial_state(reduced_lc, lag, {"C": 2e-3})
    times = np.linspace(0.0, 4e-9, 2000)
    traj = evolve_modes(h, modes, x0, p0, times, lagrangian=lag)
    series = observables(reduced_lc, lag, traj)
    omega = 1.0 / math.sqrt(6e-12 * 4e-9)
    expected = 2e-3 * np.cos(omega * times)
    assert np.abs(series["C"].voltage - expected).max() < 1e-9 * 2e-3
    assert modes.omegas[0] / (2 * np.pi) == pytest.approx(1.0273e9, rel=1e-3)


def test_evolve_zero_state_is_zero(reduced_lc):
    lag, h, modes = node_setup(reduced_lc)
    times = np.linspace(0.0, 4e-9, 64)
    traj = evolve_modes(h, modes, np.zeros(1), np.zeros(1), times, lagrangian=lag)
    assert np.all(traj.coords == 0.0)
    assert np.all(traj.momenta == 0.0)


def test_evolve_energy_conservation(passive_lc):
    _, lag, h, modes = augmented_node_setup(passive_lc)
    x0, p0 = initial_state(_, lag, {"C1": 2e-3, "C2": 2e-3})
    times = np.linspace(0.0, 4e-9, 500)
    traj = evolve_modes(h, modes, x0, p0, times, lagrangian=lag)
    drift = np.abs(traj.energy - traj.energy[0]).max() / traj.energy[0]
    assert drift <= 1e-10


def test_leapfrog_matches_modes_reduced(reduced_lc):
    lag, h, modes = node_setup(reduced_lc)
    x0, p0 = initial_state(reduced_lc, lag, {"C": 2e-3})
    period = 2 * np.pi / modes.omegas[0]
    dt = period / 1000
    lf = evolve_leapfrog(h, x0, p0, dt, 10_000, lagrangian=lag)
    an = evolve_modes(h, modes, x0, p0, lf.times, lagrangian=lag)
    dev = np.abs(lf.coords - an.coords).max() / np.abs(an.coords).max()
    # measured second-order phase drift (omega*dt)^2 * omega*t / 24
    assert dev <= 1.05e-4


def test_leapfrog_matches_per_step_loop(passive_lc):
    """The recorded states equal plain kick-drift-kick stepping, here on the
    stiff augmented system with a stride that skips most steps."""
    _, lag, h, modes = augmented_node_setup(passive_lc)
    x0, p0 = initial_state(_, lag, {"C1": 2e-3, "C2": 2e-3})
    dt = 2 * np.pi / modes.omegas[-1] / 500
    lf = evolve_leapfrog(h, x0, p0, dt, 3000, lagrangian=lag, stride=7)
    x, p = x0.copy(), p0.copy()
    coords, momenta = [x.copy()], [p.copy()]
    for step in range(1, 3001):
        p -= 0.5 * dt * (h.k @ x)
        x += dt * (h.minv @ p)
        p -= 0.5 * dt * (h.k @ x)
        if step % 7 == 0:
            coords.append(x.copy())
            momenta.append(p.copy())
    coords, momenta = np.array(coords).T, np.array(momenta).T
    assert lf.coords.shape == coords.shape
    assert np.abs(lf.coords - coords).max() <= 1e-10 * np.abs(coords).max()
    assert np.abs(lf.momenta - momenta).max() <= 1e-10 * np.abs(momenta).max()
    assert np.array_equal(lf.times, np.arange(coords.shape[1]) * 7 * dt)


def test_leapfrog_zero_state(reduced_lc):
    lag, h, _ = node_setup(reduced_lc)
    lf = evolve_leapfrog(h, np.zeros(1), np.zeros(1), 1e-12, 100, lagrangian=lag)
    assert np.all(lf.coords == 0.0)


def test_leapfrog_energy_bounded(reduced_lc):
    lag, h, modes = node_setup(reduced_lc)
    x0, p0 = initial_state(reduced_lc, lag, {"C": 2e-3})
    period = 2 * np.pi / modes.omegas[0]
    lf = evolve_leapfrog(
        h, x0, p0, period / 4000, 4000 * 1000, lagrangian=lag, stride=997
    )
    drift = np.abs(lf.energy - lf.energy[0]).max() / lf.energy[0]
    assert drift <= 1e-6


def test_leapfrog_step_too_large(reduced_lc):
    lag, h, modes = node_setup(reduced_lc)
    dt = 2 * np.pi / modes.omegas[0]  # one period per step
    with pytest.raises(StepTooLarge):
        evolve_leapfrog(h, np.zeros(1), np.zeros(1), dt, 10, lagrangian=lag)


def test_observables_current_amplitude(reduced_lc):
    """Energy conservation fixes the current amplitude V0 sqrt(C/L)."""
    lag, h, modes = node_setup(reduced_lc)
    x0, p0 = initial_state(reduced_lc, lag, {"C": 2e-3})
    times = np.linspace(0.0, 4e-9, 4000)
    traj = evolve_modes(h, modes, x0, p0, times, lagrangian=lag)
    series = observables(reduced_lc, lag, traj)
    expected = 2e-3 * math.sqrt(6e-12 / 4e-9)
    assert expected == pytest.approx(77.46e-6, rel=1e-4)
    assert np.abs(series["L"].current).max() == pytest.approx(expected, rel=1e-5)


def test_observables_ic_round_trip(passive_lc):
    augmented, lag, h, modes = augmented_node_setup(passive_lc)
    x0, p0 = initial_state(augmented, lag, {"C1": 2e-3, "C2": 2e-3})
    times = np.linspace(0.0, 4e-9, 10)
    traj = evolve_modes(h, modes, x0, p0, times, lagrangian=lag)
    series = observables(augmented, lag, traj)
    for cid in ("C1", "C2"):
        assert series[cid].voltage[0] == pytest.approx(2e-3, rel=1e-9)
    for cid in ("L3", "L4"):
        assert abs(series[cid].current[0]) <= 1e-9 * 2e-3


def test_inductor_voltage_sum_rule(passive_lc, reduced_lc):
    augmented, lag, h, modes = augmented_node_setup(passive_lc)
    x0, p0 = initial_state(augmented, lag, {"C1": 2e-3, "C2": 2e-3})
    times = np.linspace(0.0, 4e-9, 400)
    traj = evolve_modes(h, modes, x0, p0, times, lagrangian=lag)
    series = observables(augmented, lag, traj)
    total = series["L3"].voltage + series["L4"].voltage
    assert np.abs(total - series["C1"].voltage).max() <= 1e-9 * np.abs(total).max()


def test_covariance_rotation_preserves_products(reduced_lc):
    lag, h, modes = node_setup(reduced_lc)
    state = ground_state(modes, h)
    times = np.linspace(0.0, 3e-9, 7)
    covs = propagate_covariance(modes, h, state, times)
    dim = modes.dim
    v_inv = np.linalg.inv(modes.modes)
    for cov in covs:
        # mode-space variances via the exact coordinate / momentum maps
        cx = v_inv @ cov[:dim, :dim] @ v_inv.T
        cp = modes.modes.T @ cov[dim:, dim:] @ modes.modes
        for k in range(dim):
            product = math.sqrt(cx[k, k]) * math.sqrt(cp[k, k])
            assert product == pytest.approx(HBAR / 2.0, rel=1e-12)


def test_evolution_matrix_symplectic(passive_lc):
    _, lag, h, modes = augmented_node_setup(passive_lc)
    dim = len(lag.labels)
    J = np.block(
        [
            [np.zeros((dim, dim)), np.eye(dim)],
            [-np.eye(dim), np.zeros((dim, dim))],
        ]
    )
    for t in (0.0, 1.3e-10, 2.2e-9):
        phi = evolution_matrix(modes, t)
        assert np.abs(phi.T @ J @ phi - J).max() <= 1e-10


# node 2 reaches ground only through capacitors: its flux is a zero mode
ZERO_MODE_NETLIST = "C1 1 0 1pF\nL1 1 0 1nH\nC2 2 0 2pF\nC3 2 1 0.5pF\n"


@pytest.mark.parametrize("name", ["reduced_lc", "active_lc", "zero_mode"])
def test_covariance_of_moving_state_matches_expm(name, request):
    """A non-stationary covariance (vacuum plus a random PSD term) against
    Phi(t) = expm(t [[0, M^-1], [-K, 0]]); every block to 1e-10 of its
    own scale.  The symplectic form is checked on the same circuits."""
    if name == "zero_mode":
        circuit = parse_netlist(ZERO_MODE_NETLIST)
    else:
        circuit = request.getfixturevalue(name)
    lag, h, modes = node_setup(circuit)
    dim = lag.dim
    assert modes.zero_mode_count == (name == "zero_mode")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero modes have no vacuum
        vacuum = ground_state(modes, h).cov
    rng = np.random.default_rng(11)
    spread_x = np.sqrt(np.abs(vacuum[:dim, :dim]).max())
    spread_p = np.sqrt(np.abs(vacuum[dim:, dim:]).max())
    spread = np.repeat([spread_x, spread_p], dim)
    g = rng.standard_normal((2 * dim, 2 * dim)) * spread[:, None]
    cov0 = vacuum + g @ g.T
    state = GaussianState(mean=np.zeros(2 * dim), cov=cov0)
    generator = np.block(
        [[np.zeros((dim, dim)), h.minv], [-h.k, np.zeros((dim, dim))]]
    )
    J = np.block(
        [[np.zeros((dim, dim)), np.eye(dim)], [-np.eye(dim), np.zeros((dim, dim))]]
    )
    times = np.array([0.0, 3.7e-11, 1.3e-9, 4e-9])
    covs = propagate_covariance(modes, h, state, times)
    blocks = [np.s_[:dim, :dim], np.s_[:dim, dim:], np.s_[dim:, :dim], np.s_[dim:, dim:]]
    for cov, t in zip(covs, times):
        phi = scipy.linalg.expm(t * generator)
        expected = phi @ cov0 @ phi.T
        for blk in blocks:
            scale = np.abs(expected[blk]).max()
            assert np.abs(cov[blk] - expected[blk]).max() <= 1e-10 * scale
        phi_modes = evolution_matrix(modes, t)
        for blk in blocks:
            scale = np.abs(phi[blk]).max()
            assert np.abs(phi_modes[blk] - phi[blk]).max() <= 1e-10 * scale
        assert np.abs(phi_modes.T @ J @ phi_modes - J).max() <= 1e-10


def _random_psd_state(modes, h, rng):
    """Vacuum plus a random PSD term on the scale of the vacuum spreads."""
    dim = modes.dim
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero modes have no vacuum
        vacuum = ground_state(modes, h).cov
    spread_x = np.sqrt(np.abs(vacuum[:dim, :dim]).max())
    spread_p = np.sqrt(np.abs(vacuum[dim:, dim:]).max())
    g = rng.standard_normal((2 * dim, 2 * dim)) * np.repeat([spread_x, spread_p], dim)[:, None]
    return GaussianState(mean=np.zeros(2 * dim), cov=vacuum + g @ g.T)


def _covariance_case(name):
    """ladder<n>: the seed-7 ladder, augmented, in node flux."""
    if name == "zero_mode":
        _, h, modes = node_setup(parse_netlist(ZERO_MODE_NETLIST))
    else:
        circuit = _ladder(int(name.removeprefix("ladder")), np.random.default_rng(7))
        _, _, h, modes = augmented_node_setup(circuit)
    return h, modes


@pytest.mark.parametrize("name", ["ladder32", "ladder128", "zero_mode"])
def test_covariance_matches_evolution_matrix_sandwich(name):
    """Every block of propagate_covariance against Phi(t) cov Phi(t)^T with
    Phi from evolution_matrix, to 1e-12 of the block's own scale, at 53
    times; the px block is exactly the transpose of the xp block.  The
    128-node ladder's geometric modes reach subnormal magnitudes, which
    normal_modes sets to zero."""
    h, modes = _covariance_case(name)
    dim = modes.dim
    state = _random_psd_state(modes, h, np.random.default_rng(5))
    times = np.concatenate([np.linspace(0.0, 4e-9, 50), [1e-13, 2.7e-11, 9.1e-9]])
    covs = propagate_covariance(modes, h, state, times)
    assert covs.shape == (times.size, 2 * dim, 2 * dim)
    blocks = [np.s_[:dim, :dim], np.s_[:dim, dim:], np.s_[dim:, :dim], np.s_[dim:, dim:]]
    for cov, t in zip(covs, times):
        phi = evolution_matrix(modes, t)
        expected = phi @ state.cov @ phi.T
        for blk in blocks:
            scale = np.abs(expected[blk]).max()
            assert np.abs(cov[blk] - expected[blk]).max() <= 1e-12 * scale
    assert np.array_equal(covs[:, dim:, :dim], covs[:, :dim, dim:].transpose(0, 2, 1))


def test_mode_matrices_of_a_localized_ladder_hold_no_subnormals():
    """The 128-node ladder's eigenvectors fall below the smallest normal
    double: those entries are zero in V and U, V stays in Fortran order and
    U stays read-only."""
    _, modes = _covariance_case("ladder128")
    v, u = modes.modes, modes.momentum_modes
    for x in (v, u):
        assert not np.any((x != 0.0) & (np.abs(x) < np.finfo(float).tiny))
    assert v.flags.f_contiguous and not v.flags.c_contiguous
    assert not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 1.0


@pytest.mark.parametrize("name", ["ladder32", "zero_mode"])
def test_covariance_of_no_times_is_empty(name):
    h, modes = _covariance_case(name)
    state = _random_psd_state(modes, h, np.random.default_rng(5))
    covs = propagate_covariance(modes, h, state, np.array([]))
    assert covs.shape == (0, 2 * modes.dim, 2 * modes.dim)


def test_covariance_calls_return_fresh_writeable_arrays():
    h, modes = _covariance_case("zero_mode")
    state = _random_psd_state(modes, h, np.random.default_rng(5))
    times = np.linspace(0.0, 1e-9, 4)
    first = propagate_covariance(modes, h, state, times)
    second = propagate_covariance(modes, h, state, times)
    assert first.flags.writeable and second.flags.writeable
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, second)
    first[...] = 0.0
    assert np.array_equal(second, propagate_covariance(modes, h, state, times))


def _per_point_covariance(modes, state, times):
    """propagate_covariance one time point per iteration into fixed
    buffers: the reference whose per-element arithmetic the blocked kernel
    must reproduce bit for bit."""
    t = np.asarray(times, dtype=float)
    n = modes.dim
    v, u, cov = modes.modes, modes.momentum_modes, state.cov
    s = np.empty((2, n, 2, n))
    s[0, :, 0] = u.T @ cov[:n, :n] @ u
    s[0, :, 1] = u.T @ cov[:n, n:] @ v
    s[1, :, 0] = s[0, :, 1].T
    s[1, :, 1] = v.T @ cov[n:, n:] @ v
    r = np.empty((t.size, 2, 2, n))
    r[:, 0, 0], r[:, 0, 1], r[:, 1, 0] = (e.T for e in _mode_rotation(modes.omegas, t))
    r[:, 1, 1] = r[:, 0, 0]
    # the row rotation as the kernel forms it: per mode k, R_k times S's
    # k-th rows in mode-major order, by one matmul over the modes
    sk = np.ascontiguousarray(s.transpose(1, 0, 2, 3)).reshape(n, 2, 2 * n)
    rk = np.ascontiguousarray(r.transpose(0, 3, 1, 2))
    vt, ut = np.ascontiguousarray(v.T), np.ascontiguousarray(u.T)
    rs, y = np.empty_like(s), np.empty_like(s)
    z = np.empty((2 * n, 2 * n))
    out = np.empty((t.size, *cov.shape))
    for i in range(t.size):
        np.matmul(rk[i], sk, out=rs.reshape(2, n, 2 * n).transpose(1, 0, 2))
        np.einsum("ksl,qsl->kql", rs[0], r[i], out=y[0])
        np.einsum("ksl,sl->kl", rs[1], r[i, 1], out=y[1, :, 1])
        np.matmul(v, y[0].reshape(n, 2 * n), out=z[:n])
        np.matmul(u, y[1, :, 1], out=z[n:, n:])
        np.matmul(z[:n, :n], vt, out=out[i, :n, :n])
        np.matmul(z[:, n:], ut, out=out[i, :, n:])
        out[i, n:, :n] = out[i, :n, n:].T
    return out


def _block_size(modes):
    """Time points per block of propagate_covariance: each of a block's
    three buffers holds at most 512 KB, one time point taking 4 n^2
    doubles."""
    return max(1, 2**19 // (32 * modes.dim**2))


def _on_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _count_thread_starts(monkeypatch):
    starts = []
    start = threading.Thread.start

    def counted(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return starts


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("name", ["ladder32", "zero_mode"])
def test_blocked_covariance_is_bit_identical_to_the_per_point_kernel(
    name, cpus, monkeypatch
):
    """Around one block, at 53 and at 200 time points, on any number of
    CPUs: the blocks and spans change no bit."""
    h, modes = _covariance_case(name)
    state = _random_psd_state(modes, h, np.random.default_rng(5))
    tau = _block_size(modes)
    _on_cpus(monkeypatch, cpus)
    for nt in sorted({0, 1, tau - 1, tau, tau + 1, 53, 200}):
        times = np.linspace(0.0, 4e-9, nt)
        expected = _per_point_covariance(modes, state, times)
        assert np.array_equal(propagate_covariance(modes, h, state, times), expected), nt


def test_covariance_spans_under_frequent_thread_switches(monkeypatch):
    """More spans than cores, with the interpreter switching threads every
    microsecond: each span writes only its own time points."""
    h, modes = _covariance_case("ladder32")
    state = _random_psd_state(modes, h, np.random.default_rng(5))
    times = np.linspace(0.0, 4e-9, 20 * _block_size(modes) + 3)
    expected = _per_point_covariance(modes, state, times)
    _on_cpus(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        covs = propagate_covariance(modes, h, state, times)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(covs, expected)


@pytest.mark.parametrize("cpus", [2, 8])
def test_covariance_spans_start_one_thread_each_and_leave_none(cpus, monkeypatch):
    h, modes = _covariance_case("ladder32")
    state = _random_psd_state(modes, h, np.random.default_rng(5))
    tau = _block_size(modes)
    _on_cpus(monkeypatch, cpus)
    starts = _count_thread_starts(monkeypatch)
    before = threading.active_count()
    propagate_covariance(modes, h, state, np.linspace(0.0, 4e-9, 10 * tau))
    # the caller runs the last span; the pool may reuse a thread whose span
    # ended before the next was submitted
    assert 1 <= len(starts) <= cpus - 1
    assert threading.active_count() == before
    assert not any(thread.is_alive() for thread in starts)


@pytest.mark.parametrize("cpus, blocks", [(1, 10), (8, 1), (8, 0)])
def test_covariance_on_one_span_starts_no_thread(cpus, blocks, monkeypatch):
    """One CPU, or no more time points than one block: the caller runs the
    only span."""
    h, modes = _covariance_case("ladder32")
    state = _random_psd_state(modes, h, np.random.default_rng(5))
    times = np.linspace(0.0, 4e-9, blocks * _block_size(modes))
    _on_cpus(monkeypatch, cpus)
    starts = _count_thread_starts(monkeypatch)
    covs = propagate_covariance(modes, h, state, times)
    assert starts == []
    assert np.array_equal(covs, _per_point_covariance(modes, state, times))


def test_covariance_spans_without_affinity_use_the_cpu_count(monkeypatch):
    h, modes = _covariance_case("ladder32")
    state = _random_psd_state(modes, h, np.random.default_rng(5))
    times = np.linspace(0.0, 4e-9, 10 * _block_size(modes))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    starts = _count_thread_starts(monkeypatch)
    covs = propagate_covariance(modes, h, state, times)
    assert 1 <= len(starts) <= 2
    assert np.array_equal(covs, _per_point_covariance(modes, state, times))


def test_covariance_worker_exception_reaches_the_caller(monkeypatch):
    """A span that fails on a worker thread raises in the caller, after
    every thread has ended."""
    h, modes = _covariance_case("ladder32")
    state = _random_psd_state(modes, h, np.random.default_rng(5))
    times = np.linspace(0.0, 4e-9, 10 * _block_size(modes))
    caller = threading.current_thread()
    matmul = np.matmul

    def failing_off_the_caller(*args, **kwargs):
        if threading.current_thread() is not caller:
            raise MemoryError("worker span failed")
        return matmul(*args, **kwargs)

    _on_cpus(monkeypatch, 2)
    before = threading.active_count()
    monkeypatch.setattr(np, "matmul", failing_off_the_caller)
    with pytest.raises(MemoryError, match="worker span failed"):
        propagate_covariance(modes, h, state, times)
    assert threading.active_count() == before


def test_flux_law_node_rep(passive_lc):
    augmented, lag, h, modes = augmented_node_setup(passive_lc)
    x0, p0 = initial_state(augmented, lag, {"C1": 2e-3, "C2": 2e-3})
    times = np.linspace(0.0, 4e-9, 300)
    traj = evolve_modes(h, modes, x0, p0, times, lagrangian=lag)
    loops = fundamental_loops(augmented, build_spanning_tree(augmented))
    residual = flux_law_residual(augmented, loops, traj)
    scale = np.abs(traj.coords).max()
    assert np.abs(residual).max() <= 1e-12 * scale


def test_flux_law_extended_rep(passive_lc):
    lag = extended(passive_lc, ALL_PAIRS)
    h = legendre_transform(lag)
    modes = normal_modes(h)
    x0, p0 = initial_state(passive_lc, lag, {"C1": 2e-3, "C2": 2e-3})
    times = np.linspace(0.0, 4e-9, 300)
    traj = evolve_modes(h, modes, x0, p0, times, lagrangian=lag)
    loops = fundamental_loops(passive_lc, build_spanning_tree(passive_lc))
    residual = flux_law_residual(passive_lc, loops, traj)
    for i, label in enumerate(("Phi_1", "Phi_2")):
        phi = traj.coords[lag.labels.index(label)]
        assert np.abs(phi).max() > 0.0
        assert np.abs(residual[i] + phi).max() <= 1e-10 * np.abs(phi).max()


def test_flux_law_constant_trajectory(passive_lc):
    augmented, lag, h, modes = augmented_node_setup(passive_lc)
    times = np.linspace(0.0, 1e-9, 5)
    traj = evolve_modes(h, modes, np.ones(2) * 1e-15, np.zeros(2), times, lagrangian=lag)
    loops = fundamental_loops(augmented, build_spanning_tree(augmented))
    residual = flux_law_residual(augmented, loops, traj)
    assert np.allclose(residual, residual[:, :1])


def test_charge_law_loop_rep(passive_lc):
    loops, lag, h, modes = loop_setup(passive_lc)
    x0, p0 = initial_state(passive_lc, lag, {"C1": 2e-3, "C2": 2e-3})
    times = np.linspace(0.0, 4e-9, 300)
    traj = evolve_modes(h, modes, x0, p0, times, lagrangian=lag)
    residual = charge_law_residual(passive_lc, traj)
    assert np.abs(residual).max() <= 1e-12 * np.abs(traj.coords).max()


def test_law_residuals_reject_a_trajectory_of_the_other_kind(passive_lc):
    loops, loop_lag, h, modes = loop_setup(passive_lc)
    times = np.linspace(0.0, 1e-9, 3)
    x0 = np.zeros(loop_lag.dim)
    loop_traj = evolve_modes(h, modes, x0, x0, times, lagrangian=loop_lag)
    with pytest.raises(ValueError, match="flux law applies to flux-type"):
        flux_law_residual(passive_lc, loops, loop_traj)
    augmented, lag, h, modes = augmented_node_setup(passive_lc)
    x0 = np.zeros(lag.dim)
    node_traj = evolve_modes(h, modes, x0, x0, times, lagrangian=lag)
    with pytest.raises(ValueError, match="charge law applies to loop-charge"):
        charge_law_residual(augmented, node_traj)
    bare = evolve_modes(h, modes, x0, x0, times)  # no lagrangian attached
    for residual in (
        lambda: flux_law_residual(augmented, loops, bare),
        lambda: charge_law_residual(augmented, bare),
    ):
        with pytest.raises(ValueError, match="carries no coordinate assignment"):
            residual()


def test_series_rejects_a_trajectory_of_other_coordinates(passive_lc):
    augmented, lag, h, modes = augmented_node_setup(passive_lc)
    x0 = np.zeros(lag.dim)
    traj = evolve_modes(h, modes, x0, x0, np.linspace(0.0, 1e-9, 3), lagrangian=lag)
    # the same coordinates in another Lagrangian object are accepted
    same = node_lagrangian(augmented)
    assert np.array_equal(_series(augmented, same, traj), _series(augmented, lag, traj))
    other = extended(passive_lc, MINIMAL)
    with pytest.raises(ValueError, match="does not match this coordinate system"):
        _series(passive_lc, other, traj)


def test_initial_state_without_ics_reads_the_netlist():
    circuit = parse_netlist("C1 1 0 2pF\nL1 1 0 1nH\n.ic C1 2mV\n.ic L1 3uA\n")
    lag, _, _ = node_setup(circuit)
    x0, p0 = initial_state(circuit, lag)
    assert (x0, p0) == (pytest.approx([3e-15]), pytest.approx([4e-15]))
    assert np.array_equal(x0, initial_state(circuit, lag, {})[0])


def test_simulate_a_capacitor_only_tree():
    # no inductor row: the coordinate solve has nothing to pin, x0 is zero
    circuit = parse_netlist("C1 1 0 1pF\nC2 2 1 1pF\n")
    lag, h, modes = node_setup(circuit)
    x0, p0 = initial_state(circuit, lag, {"C1": 2e-3, "C2": 2e-3})
    assert np.array_equal(x0, [0.0, 0.0])
    times = np.linspace(0.0, 1e-9, 4)
    traj = evolve_modes(h, modes, x0, p0, times, lagrangian=lag)
    voltage, current = _series(circuit, lag, traj)
    # two zero modes: each capacitor holds its 2 mV and carries no current
    assert modes.zero_mode_count == 2
    assert np.allclose(voltage, 2e-3, rtol=1e-12) and not current.any()


def test_charge_law_flags_perturbation(reduced_lc):
    loops, lag, h, modes = loop_setup(reduced_lc)
    x0, p0 = initial_state(reduced_lc, lag, {"C": 2e-3})
    times = np.linspace(0.0, 4e-9, 50)
    traj = evolve_modes(h, modes, x0, p0, times, lagrangian=lag)
    # single loop through both components: doubling one participation row
    # breaks the entering-equals-leaving cancellation
    lag.A[lag.component_ids.index("C"), lag.labels.index("Q_1")] = -2.0
    residual = charge_law_residual(reduced_lc, traj)
    assert np.abs(residual).max() > 0.0


def test_stiff_oracle_agreement(passive_lc):
    """Leapfrog against the analytic engine on the stiff augmented system,
    over ten periods of the fast mode."""
    _, lag, h, modes = augmented_node_setup(passive_lc)
    x0, p0 = initial_state(_, lag, {"C1": 2e-3, "C2": 2e-3})
    t_fast = 2 * np.pi / modes.omegas[-1]
    dt = t_fast / 2000
    lf = evolve_leapfrog(h, x0, p0, dt, 20_000, lagrangian=lag)
    an = evolve_modes(h, modes, x0, p0, lf.times, lagrangian=lag)
    dev_x = np.abs(lf.coords - an.coords).max() / np.abs(an.coords).max()
    dev_p = np.abs(lf.momenta - an.momenta).max() / np.abs(an.momenta).max()
    assert dev_x <= 1e-4
    assert dev_p <= 1e-4


@pytest.mark.parametrize("name", ["reduced_lc", "active_lc"])
def test_oracle_agreement_plain_fixtures(name, request):
    circuit = request.getfixturevalue(name)
    lag, h, modes = node_setup(circuit)
    ics = {c.id: 2e-3 for c in circuit.components if c.id[0] == "C"}
    x0, p0 = initial_state(circuit, lag, ics)
    period = 2 * np.pi / modes.omegas[-1]
    lf = evolve_leapfrog(h, x0, p0, period / 2000, 20_000, lagrangian=lag)
    an = evolve_modes(h, modes, x0, p0, lf.times, lagrangian=lag)
    dev = np.abs(lf.coords - an.coords).max() / np.abs(an.coords).max()
    assert dev <= 1e-4


def test_wheel_uniform_capacitor_voltages_are_inconsistent(wheel):
    # the rim is a capacitor-only loop, so its branch voltages must sum to
    # zero; a uniform value on all three violates that
    augmented, lag, _, _ = augmented_node_setup(wheel)
    with pytest.raises(InconsistentInitialConditions):
        initial_state(augmented, lag, {"Ca": 2e-3, "Cb": 2e-3, "Cc": 2e-3})


def test_oracle_agreement_augmented_wheel(wheel):
    augmented, lag, h, modes = augmented_node_setup(wheel)
    ics = {"Ca": 2e-3, "Cb": 2e-3, "Cc": -4e-3}
    x0, p0 = initial_state(augmented, lag, ics)
    period = 2 * np.pi / modes.omegas[-1]
    lf = evolve_leapfrog(h, x0, p0, period / 2000, 20_000, lagrangian=lag)
    an = evolve_modes(h, modes, x0, p0, lf.times, lagrangian=lag)
    dev = np.abs(lf.coords - an.coords).max() / np.abs(an.coords).max()
    assert dev <= 1e-4


# --- matrix forms against the per-row loops they replaced -----------------

NETLIST_NAMES = ("passive_lc.cir", "reduced_lc.cir", "wheel.cir", "active_lc.cir")


def _rep_setup(circuit, rep, policy):
    """(observed circuit, Lagrangian) as `fluxq simulate` builds them."""
    report = topology_report(circuit)
    augmented, record = augment_geometric(circuit, report, policy)
    tree = build_spanning_tree(circuit)
    if rep == "node":
        return augmented, node_lagrangian(augmented, build_spanning_tree(augmented))
    if rep == "loop":
        loops = fundamental_loops(circuit, tree)
        lag = loop_lagrangian(circuit, loops, record)
        return circuit, lag
    return augmented, extended_node_lagrangian(circuit, report.loops, augmented, record)


def _default_ics(circuit):
    return {
        c.id: 2e-3 if c.kind is ComponentKind.CAPACITOR else 0.0
        for c in circuit.components
        if not c.geometric
    }


def _initial_state_by_row(circuit, lag, ics):
    flux_type = lag.representation is not Representation.LOOP_CHARGE
    stored, rated = (
        (ComponentKind.INDUCTOR, ComponentKind.CAPACITOR)
        if flux_type
        else (ComponentKind.CAPACITOR, ComponentKind.INDUCTOR)
    )

    def constraint(kind, scaled):
        rows, rhs = [], []
        for c in circuit.components:
            if c.kind is not kind or (c.geometric and c.id not in ics):
                continue
            rows.append(lag.assignment_row(c.id))
            ic = ics.get(c.id, 0.0)
            rhs.append(c.value * ic if scaled else ic)
        return np.array(rows).reshape(len(rows), lag.dim), np.array(rhs)

    solutions = []
    for rows, rhs in (constraint(stored, True), constraint(rated, False)):
        if rows.size == 0:
            solutions.append(np.zeros(lag.dim))
            continue
        solution, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        scale = np.linalg.norm(rhs)
        residual = np.linalg.norm(rows @ solution - rhs)
        if (residual / scale if scale > 0 else residual) > 1e-9:
            raise InconsistentInitialConditions("reference")
        solutions.append(solution)
    return solutions[0], lag.M @ solutions[1]


def _observables_by_row(circuit, lag, traj):
    flux_type = lag.representation is not Representation.LOOP_CHARGE
    out = {}
    for c in circuit.components:
        row = lag.assignment_row(c.id)
        value = row @ traj.coords
        rate = row @ traj.velocities
        accel = row @ traj.accelerations
        if flux_type:
            voltage = rate
            current = value / c.value if c.kind is ComponentKind.INDUCTOR else c.value * accel
        else:
            current = rate
            voltage = value / c.value if c.kind is ComponentKind.CAPACITOR else c.value * accel
        out[c.id] = (voltage, current)
    return out


@pytest.mark.parametrize("name", [*NETLIST_NAMES, "ladder32"])
@pytest.mark.parametrize("policy", [MINIMAL, ALL_PAIRS], ids=["minimal", "allpairs"])
@pytest.mark.parametrize("rep", ["node", "loop", "extended"])
def test_matrix_observables_match_per_row_loops(name, policy, rep):
    circuit = _ladder(32, np.random.default_rng(7)) if name == "ladder32" else load(name)
    obs_circuit, lag = _rep_setup(circuit, rep, policy)
    ics = _default_ics(circuit)
    try:
        expected = _initial_state_by_row(obs_circuit, lag, ics)
    except InconsistentInitialConditions:
        with pytest.raises(InconsistentInitialConditions):
            initial_state(obs_circuit, lag, ics)
        return
    x0, p0 = initial_state(obs_circuit, lag, ics)
    assert np.array_equal(x0, expected[0]) and np.array_equal(p0, expected[1])
    try:
        h = legendre_transform(lag)
    except SingularKineticMatrix:
        return  # no dynamics in this configuration; the initial state agreed
    traj = evolve_modes(h, normal_modes(h), x0, p0, np.linspace(0.0, 4e-9, 200), lag)
    series = observables(obs_circuit, lag, traj)
    assert list(series) == [c.id for c in obs_circuit.components]
    for cid, (voltage, current) in _observables_by_row(obs_circuit, lag, traj).items():
        # the matrix product may sum a row's terms in another order: a
        # ladder branch in the loop representation sums many loop charges,
        # and its last bits move (2e-15 of its scale), no more than that
        for got, want in ((series[cid].voltage, voltage), (series[cid].current, current)):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _evolve_by_old_expressions(modes, x0, p0, t):
    xt0 = np.linalg.solve(modes.modes, x0)
    pt0 = modes.modes.T @ p0
    w = modes.omegas[:, None]
    osc = w > 0.0
    phase = w * t
    sin = np.sin(phase)
    c, a, b = np.cos(phase), np.where(osc, sin / np.where(osc, w, 1.0), t), -w * sin
    xt = c * xt0[:, None] + a * pt0[:, None]
    pt = b * xt0[:, None] + c * pt0[:, None]
    v, u = modes.modes, modes.momentum_modes
    return {
        "coords": v @ xt,
        "velocities": v @ pt,
        "accelerations": v @ (-(w**2) * xt),
        "momenta": u @ pt,
        "energy": 0.5 * np.sum(pt**2 + (w * xt) ** 2, axis=0),
    }


@pytest.mark.parametrize("which", ["passive_lc", "ladder32"])
def test_evolve_modes_bit_identical_to_old_expressions(which, passive_lc):
    circuit = passive_lc if which == "passive_lc" else _ladder(32, np.random.default_rng(7))
    augmented, lag, h, modes = augmented_node_setup(circuit)
    x0, p0 = initial_state(augmented, lag, _default_ics(circuit))
    times = np.linspace(0.0, 4e-9, 2000)
    traj = evolve_modes(h, modes, x0, p0, times, lagrangian=lag)
    for field_name, expected in _evolve_by_old_expressions(modes, x0, p0, times).items():
        assert getattr(traj, field_name).tobytes() == expected.tobytes(), field_name


def _flux_law_by_loop(circuit, tree, traj):
    lag = traj.lagrangian
    loops = fundamental_loops(circuit, tree)
    residual = np.zeros((len(loops), len(traj.times)))
    for i, loop in enumerate(loops):
        combined = np.zeros(lag.dim)
        for cid, sign in loop.path:
            combined += sign * lag.assignment_row(cid)
        residual[i] = combined @ traj.coords
    return residual


def _charge_law_by_node(circuit, traj):
    lag = traj.lagrangian
    nodes = [n for n in circuit.nodes if n != "0"]
    residual = np.zeros((len(nodes), len(traj.times)))
    for i, node in enumerate(nodes):
        combined = np.zeros(lag.dim)
        for c in circuit.incident(node):
            combined += (+1 if c.a == node else -1) * lag.assignment_row(c.id)
        residual[i] = combined @ traj.coords
    return residual


@pytest.mark.parametrize("rep", ["node", "loop", "extended"])
def test_law_residuals_match_per_law_loops(rep, passive_lc):
    circuit = _ladder(16, np.random.default_rng(3)) if rep == "loop" else passive_lc
    obs_circuit, lag = _rep_setup(circuit, rep, ALL_PAIRS)
    h = legendre_transform(lag)
    x0, p0 = initial_state(obs_circuit, lag, _default_ics(circuit))
    traj = evolve_modes(h, normal_modes(h), x0, p0, np.linspace(0.0, 4e-9, 100), lag)
    if rep == "loop":
        got = charge_law_residual(circuit, traj)
        want = _charge_law_by_node(circuit, traj)
    else:
        tree = build_spanning_tree(obs_circuit)
        got = flux_law_residual(obs_circuit, fundamental_loops(obs_circuit, tree), traj)
        want = _flux_law_by_loop(obs_circuit, tree, traj)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * max(np.abs(traj.coords).max(), 1e-300)


@pytest.mark.parametrize("rep", ["node", "loop", "extended"])
def test_library_does_not_call_assignment_row(rep, passive_lc, monkeypatch):
    def refuse(self, cid):
        raise AssertionError("assignment_row called")

    monkeypatch.setattr(QuadraticLagrangian, "assignment_row", refuse)
    obs_circuit, lag = _rep_setup(passive_lc, rep, ALL_PAIRS)
    h = legendre_transform(lag)
    x0, p0 = initial_state(obs_circuit, lag, _default_ics(passive_lc))
    traj = evolve_modes(h, normal_modes(h), x0, p0, np.linspace(0.0, 1e-9, 10), lag)
    observables(obs_circuit, lag, traj)
    if rep == "loop":
        charge_law_residual(passive_lc, traj)
    else:
        loops = fundamental_loops(obs_circuit, build_spanning_tree(obs_circuit))
        flux_law_residual(obs_circuit, loops, traj)
