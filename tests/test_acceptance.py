"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers (run with -s to see them)."""
import itertools
import math
import time

import numpy as np
import pytest
import scipy.linalg

from fluxq import (
    HBAR,
    Circuit,
    Component,
    ComponentKind,
    GeometricMode,
    GeometricPolicy,
    augment_geometric,
    build_spanning_tree,
    charge_law_residual,
    diagnose_quantizability,
    evolution_matrix,
    evolve_leapfrog,
    evolve_modes,
    flux_law_residual,
    fundamental_loops,
    ground_state,
    initial_state,
    legendre_transform,
    loop_lagrangian,
    mode_uncertainty_products,
    node_lagrangian,
    normal_modes,
    observables,
    passive_loop_deficiency,
    passive_nodes,
    reduce_circuit,
    topology_report,
)

from conftest import extended, pencil_frequencies_2x2, random_active_circuit

GHZ = 1e9
MINIMAL = GeometricPolicy(cap_mode=GeometricMode.MINIMAL)
SECTION_ICS = {"C1": 2e-3, "C2": 2e-3, "L3": 0.0, "L4": 0.0}


def node_modes(circuit):
    lag = node_lagrangian(circuit, build_spanning_tree(circuit))
    h = legendre_transform(lag)
    return lag, h, normal_modes(h)


def augmented_node_modes(circuit, policy=MINIMAL):
    report = topology_report(circuit)
    augmented, _ = augment_geometric(circuit, report, policy)
    lag = node_lagrangian(augmented, build_spanning_tree(augmented))
    h = legendre_transform(lag)
    return augmented, lag, h, normal_modes(h)


def augmented_loop_modes(circuit, policy):
    report = topology_report(circuit)
    _, record = augment_geometric(circuit, report, policy)
    tree = build_spanning_tree(circuit)
    loops = fundamental_loops(circuit, tree)
    lag = loop_lagrangian(
        circuit, loops, record.loop_inductance, record.loop_kinetic_rows
    )
    h = legendre_transform(lag)
    return loops, lag, h, normal_modes(h)


def low_mode_only(h, modes, x0, p0, times, lag):
    """Trajectory restricted to the slowest oscillating mode."""
    xt0 = np.linalg.solve(modes.modes, x0)
    pt0 = modes.modes.T @ p0
    keep = np.zeros_like(xt0)
    keep[0] = 1.0
    x0_low = modes.modes @ (xt0 * keep)
    p0_low = modes.momentum_modes @ (pt0 * keep)
    return evolve_modes(h, modes, x0_low, p0_low, times, lagrangian=lag)


def test_criterion_1_reduced_frequency(reduced_lc):
    start = time.perf_counter()
    _, _, modes = node_modes(reduced_lc)
    f = modes.omegas[0] / (2 * math.pi)
    elapsed = time.perf_counter() - start
    assert abs(f - 1.03 * GHZ) / (1.03 * GHZ) <= 0.005
    assert abs(f - 1.027 * GHZ) / (1.027 * GHZ) <= 0.005
    assert elapsed < 0.1
    print(f"\n[criterion 1] PASS reduced tank mode {f / GHZ:.4f} GHz "
          f"(target 1.03 GHz, {elapsed * 1e3:.1f} ms)")


def test_criterion_2_passive_diagnosis(passive_lc, wheel):
    lag_n = node_lagrangian(passive_lc, build_spanning_tree(passive_lc))
    diag_n = diagnose_quantizability(lag_n)
    assert not diag_n.quantizable
    assert [v.tolist() for v in diag_n.null_space] == [[0.0, 1.0]]

    tree = build_spanning_tree(passive_lc)
    loops = fundamental_loops(passive_lc, tree)
    diag_l = diagnose_quantizability(loop_lagrangian(passive_lc, loops))
    assert not diag_l.quantizable
    assert [v.tolist() for v in diag_l.null_space] == [[1.0, 0.0]]

    assert passive_nodes(wheel) == {"4"}
    wheel_tree = build_spanning_tree(wheel)
    wheel_loops = fundamental_loops(wheel, wheel_tree)
    deficiency, _ = passive_loop_deficiency(wheel, wheel_loops)
    assert deficiency == 1
    assert reduce_circuit(wheel) == wheel
    print("\n[criterion 2] PASS null directions phi_3 (node) and Q_1 (loop); "
          "wheel: passive node {4}, deficiency 1, irreducible")


def test_criterion_3_augmentation_restores_quantizability(passive_lc, reduced_lc):
    _, _, modes_red = node_modes(reduced_lc)
    f_ref = modes_red.omegas[0] / (2 * math.pi)

    _, lag_n, _, modes_n = augmented_node_modes(passive_lc)
    assert diagnose_quantizability(lag_n).quantizable
    f_node = modes_n.omegas / (2 * math.pi)
    assert abs(f_node[0] - f_ref) / f_ref <= 0.01

    cg = 8.9e-20
    oracle_node = pencil_frequencies_2x2(
        [[6e-12 + cg, -cg], [-cg, cg]],
        [[1e9, -1e9], [-1e9, 1e9 + 1e9 / 3.0]],
    )
    assert abs(f_node[1] - oracle_node[1]) / oracle_node[1] <= 0.005
    assert 0.5 <= f_node[1] / (18221 * GHZ) <= 2.0

    loop_policy = GeometricPolicy(cap_mode=GeometricMode.MINIMAL, default_lg=1e-14)
    _, lag_l, _, modes_l = augmented_loop_modes(passive_lc, loop_policy)
    assert diagnose_quantizability(lag_l).quantizable
    f_loop = modes_l.omegas / (2 * math.pi)
    assert abs(f_loop[0] - f_ref) / f_ref <= 0.01
    k12 = lag_l.K[0, 1]
    oracle_loop = pencil_frequencies_2x2(
        [[1e-14, 0.0], [0.0, 4e-9]], [[7.5e11, k12], [k12, 5e11]]
    )
    assert abs(f_loop[1] - oracle_loop[1]) / oracle_loop[1] <= 0.005
    assert abs(f_loop[1] - 1378 * GHZ) / (1378 * GHZ) <= 0.005
    assert 0.5 <= f_loop[1] / (1378 * GHZ) <= 2.0
    print(f"\n[criterion 3] PASS node {f_node[0] / GHZ:.4f} / "
          f"{f_node[1] / GHZ:.0f} GHz (ref high 18221, ratio "
          f"{f_node[1] / (18221 * GHZ):.3f}); loop {f_loop[0] / GHZ:.4f} / "
          f"{f_loop[1] / GHZ:.1f} GHz at Lg=1e-14 H (ref 1378)")


def test_criterion_4_representation_duality():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        circuit = random_active_circuit(rng)
        tree = build_spanning_tree(circuit)
        loops = fundamental_loops(circuit, tree)
        mn = normal_modes(legendre_transform(node_lagrangian(circuit, tree)))
        ml = normal_modes(legendre_transform(loop_lagrangian(circuit, loops)))
        wn = mn.omegas[mn.omegas > 0.0]
        wl = ml.omegas[ml.omegas > 0.0]
        assert wn.size == wl.size
        if wn.size:
            worst = max(worst, float(np.abs(wn - wl).max() / wn.max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    print(f"\n[criterion 4] PASS 100 random fully-active circuits, worst "
          f"spectral mismatch {worst:.2e} ({elapsed:.2f} s)")


def _all_placements():
    """Every assignment of the four valued components onto the four edge
    slots of the shared topology."""
    slots = [("2", "0"), ("2", "0"), ("2", "3"), ("3", "0")]
    caps = [("C1", 2e-12), ("C2", 4e-12)]
    inds = [("L3", 1e-9), ("L4", 3e-9)]
    for cap_slots in itertools.combinations(range(4), 2):
        ind_slots = [i for i in range(4) if i not in cap_slots]
        for cap_perm in itertools.permutations(caps):
            for ind_perm in itertools.permutations(inds):
                comps = [None] * 4
                for slot, (cid, val) in zip(cap_slots, cap_perm):
                    comps[slot] = Component(
                        cid, ComponentKind.CAPACITOR, val, slots[slot]
                    )
                for slot, (cid, val) in zip(ind_slots, ind_perm):
                    comps[slot] = Component(
                        cid, ComponentKind.INDUCTOR, val, slots[slot]
                    )
                yield Circuit(("0", "2", "3"), tuple(comps))


def _finite_frequencies_ghz(circuit):
    lag = node_lagrangian(circuit, build_spanning_tree(circuit))
    evals = scipy.linalg.eig(lag.K, lag.M, right=False)
    finite = np.real(evals[np.isfinite(evals)])
    finite = np.sort(finite[finite > 0.0])
    return np.sqrt(finite) / (2 * math.pi) / GHZ


def test_criterion_5_no_placement_reaches_targets():
    """The 3.56 / 2.51 GHz targets are unreachable for any arrangement of
    these component values on this topology: the product of the squared
    angular frequencies is placement-invariant, 1/(C1 C2 L3 L4), which the
    targets exceed threefold.  Verified here by exhaustive enumeration."""
    targets = np.array([2.51, 3.56])
    for circuit in _all_placements():
        freqs = _finite_frequencies_ghz(circuit)
        if freqs.size != 2:
            continue
        if np.all(np.abs(freqs - targets) / targets <= 0.01):
            raise AssertionError(f"placement unexpectedly matches: {circuit}")
    invariant = 1.0 / (2e-12 * 4e-12 * 1e-9 * 3e-9)
    target_product = (2 * math.pi * targets[0] * GHZ) ** 2 * (
        2 * math.pi * targets[1] * GHZ
    ) ** 2
    assert target_product / invariant > 2.5
    print("\n[criterion 5] exhaustive check: no placement of these values on "
          "this topology yields 3.56/2.51 GHz (frequency product is "
          "placement-invariant)")


@pytest.mark.xfail(
    reason="reference frequencies 3.56/2.51 GHz are not attainable for any "
    "arrangement of the given component values on this topology (see the "
    "exhaustive companion check); the active variant used here gives "
    "4.18/1.24 GHz",
    strict=True,
)
def test_criterion_5_active_variant_targets(active_lc):
    _, _, modes = node_modes(active_lc)
    freqs = np.sort(modes.omegas / (2 * math.pi) / GHZ)
    assert abs(freqs[1] - 3.56) / 3.56 <= 0.01
    assert abs(freqs[0] - 2.51) / 2.51 <= 0.01


def test_criterion_5_active_variant_structure(active_lc):
    """The structural half of the conditional check holds regardless: two
    modes in both representations, identical spectra, ground-referenced
    difference about 1 GHz scale."""
    tree = build_spanning_tree(active_lc)
    loops = fundamental_loops(active_lc, tree)
    mn = normal_modes(legendre_transform(node_lagrangian(active_lc, tree)))
    ml = normal_modes(legendre_transform(loop_lagrangian(active_lc, loops)))
    assert mn.dim == ml.dim == 2
    assert mn.zero_mode_count == ml.zero_mode_count == 0
    assert np.abs(mn.omegas - ml.omegas).max() <= 1e-9 * mn.omegas.max()
    freqs = np.sort(mn.omegas / (2 * math.pi) / GHZ)
    print(f"\n[criterion 5] CONDITIONAL both representations give two modes "
          f"({freqs[0]:.3f}, {freqs[1]:.3f} GHz); the tabulated 3.56/2.51 GHz "
          f"targets are unreachable for these values (xfail documents it)")


def test_criterion_6_noise_phenomenology(passive_lc, reduced_lc):
    times = np.linspace(0.0, 4e-9, 2000)

    # reference tank waveforms
    lag_r, h_r, modes_r = node_modes(reduced_lc)
    x0r, p0r = initial_state(reduced_lc, lag_r, {"C": 2e-3, "L": 0.0})
    traj_r = evolve_modes(h_r, modes_r, x0r, p0r, times, lagrangian=lag_r)
    ref = observables(reduced_lc, lag_r, traj_r)

    # node representation: THz noise on individual inductor voltages
    augmented, lag_n, h_n, modes_n = augmented_node_modes(passive_lc)
    x0, p0 = initial_state(augmented, lag_n, SECTION_ICS)
    traj = evolve_modes(h_n, modes_n, x0, p0, times, lagrangian=lag_n)
    series = observables(augmented, lag_n, traj)
    low = low_mode_only(h_n, modes_n, x0, p0, times, lag_n)
    series_low = observables(augmented, lag_n, low)
    f_high = modes_n.omegas[-1] / (2 * math.pi)
    assert f_high > 1e12
    hf_l3 = np.abs(series["L3"].voltage - series_low["L3"].voltage).max()
    hf_l4 = np.abs(series["L4"].voltage - series_low["L4"].voltage).max()
    scale_v = np.abs(series["L3"].voltage).max()
    assert hf_l3 > 0.05 * scale_v
    assert hf_l4 > 0.05 * scale_v
    total = series["L3"].voltage + series["L4"].voltage
    rms = lambda x: math.sqrt(float(np.mean(np.square(x))))
    sum_dev = rms(total - ref["C"].voltage) / rms(ref["C"].voltage)
    assert sum_dev < 0.01

    # loop representation: THz noise on individual capacitor currents
    loop_policy = GeometricPolicy(cap_mode=GeometricMode.MINIMAL, default_lg=1e-14)
    _, lag_l, h_l, modes_l = augmented_loop_modes(passive_lc, loop_policy)
    x0l, p0l = initial_state(passive_lc, lag_l, SECTION_ICS)
    traj_l = evolve_modes(h_l, modes_l, x0l, p0l, times, lagrangian=lag_l)
    series_l = observables(passive_lc, lag_l, traj_l)
    low_l = low_mode_only(h_l, modes_l, x0l, p0l, times, lag_l)
    series_ll = observables(passive_lc, lag_l, low_l)
    assert modes_l.omegas[-1] / (2 * math.pi) > 1e12
    scale_i = np.abs(series_l["C1"].current).max()
    hf_c1 = np.abs(series_l["C1"].current - series_ll["C1"].current).max()
    hf_c2 = np.abs(series_l["C2"].current - series_ll["C2"].current).max()
    floor = 1e-6 * scale_i
    assert hf_c1 > floor
    assert hf_c2 > floor
    net = series_l["C1"].current + series_l["C2"].current
    net_dev = rms(net - ref["C"].current) / rms(ref["C"].current)
    assert net_dev < 0.01
    print(f"\n[criterion 6] PASS node rep: high-band V_L3/V_L4 content "
          f"{hf_l3 / scale_v:.2f}/{hf_l4 / scale_v:.2f} of scale, inductor sum "
          f"within {sum_dev * 100:.3f}% RMS of the tank; loop rep: high-band "
          f"capacitor-current content {hf_c1 / scale_i:.1e}/{hf_c2 / scale_i:.1e}, "
          f"net within {net_dev * 100:.3f}% RMS")


def test_criterion_7_quantum_invariants(passive_lc, reduced_lc):
    worst_product = 0.0
    for setup in (node_modes(reduced_lc)[1:], augmented_node_modes(passive_lc)[2:]):
        h, modes = setup
        state = ground_state(modes, h)
        v_inv = np.linalg.inv(modes.modes)
        dim = modes.dim
        cx = v_inv @ state.cov[:dim, :dim] @ v_inv.T
        cp = modes.modes.T @ state.cov[dim:, dim:] @ modes.modes
        for k in range(dim):
            product = math.sqrt(cx[k, k] * cp[k, k])
            worst_product = max(worst_product, abs(product - HBAR / 2) / (HBAR / 2))
    assert worst_product <= 1e-12

    _, lag, h, modes = augmented_node_modes(passive_lc)
    dim = len(lag.labels)
    J = np.block(
        [[np.zeros((dim, dim)), np.eye(dim)], [-np.eye(dim), np.zeros((dim, dim))]]
    )
    sympl = max(
        np.abs(evolution_matrix(modes, h, t).T @ J @ evolution_matrix(modes, h, t) - J).max()
        for t in (1e-12, 7.7e-10, 4e-9)
    )
    assert sympl <= 1e-10

    x0, p0 = initial_state(_, lag, SECTION_ICS)
    times = np.linspace(0.0, 4e-9, 1000)
    traj = evolve_modes(h, modes, x0, p0, times, lagrangian=lag)
    analytic_drift = float(
        np.abs(traj.energy - traj.energy[0]).max() / traj.energy[0]
    )
    assert analytic_drift <= 1e-10

    lag_r, h_r, modes_r = node_modes(reduced_lc)
    x0r, p0r = initial_state(reduced_lc, lag_r, {"C": 2e-3})
    period = 2 * math.pi / modes_r.omegas[0]
    lf = evolve_leapfrog(
        h_r, x0r, p0r, period / 4000, 4000 * 1000, lagrangian=lag_r, stride=997
    )
    lf_drift = float(np.abs(lf.energy - lf.energy[0]).max() / lf.energy[0])
    assert lf_drift <= 1e-6
    print(f"\n[criterion 7] PASS uncertainty products hbar/2 within "
          f"{worst_product:.1e}; symplectic defect {sympl:.1e}; energy drift "
          f"analytic {analytic_drift:.1e}, leapfrog {lf_drift:.2e} over 1e3 periods")


def test_criterion_8_oracle_equivalence(passive_lc, reduced_lc):
    def deviation(lag, h, modes, x0, p0, periods=10, steps_per_period=2000):
        period = 2 * math.pi / modes.omegas[-1]
        dt = period / steps_per_period
        lf = evolve_leapfrog(h, x0, p0, dt, steps_per_period * periods, lagrangian=lag)
        an = evolve_modes(h, modes, x0, p0, lf.times, lagrangian=lag)
        dev_x = np.abs(lf.coords - an.coords).max() / np.abs(an.coords).max()
        dev_p = np.abs(lf.momenta - an.momenta).max() / np.abs(an.momenta).max()
        return max(dev_x, dev_p)

    lag_r, h_r, modes_r = node_modes(reduced_lc)
    x0r, p0r = initial_state(reduced_lc, lag_r, {"C": 2e-3})
    dev_tank = deviation(lag_r, h_r, modes_r, x0r, p0r)
    assert dev_tank <= 1e-4

    augmented, lag, h, modes = augmented_node_modes(passive_lc)
    x0, p0 = initial_state(augmented, lag, SECTION_ICS)
    dev_stiff = deviation(lag, h, modes, x0, p0)
    assert dev_stiff <= 1e-4
    print(f"\n[criterion 8] PASS leapfrog vs analytic: tank {dev_tank:.2e}, "
          f"augmented {dev_stiff:.2e} (10 fast periods, dt = T/2000)")


def test_criterion_9_flux_and_charge_laws(passive_lc):
    times = np.linspace(0.0, 4e-9, 1000)

    augmented, lag_n, h_n, modes_n = augmented_node_modes(passive_lc)
    x0, p0 = initial_state(augmented, lag_n, SECTION_ICS)
    traj = evolve_modes(h_n, modes_n, x0, p0, times, lagrangian=lag_n)
    loops_aug = fundamental_loops(augmented, build_spanning_tree(augmented))
    residual = flux_law_residual(augmented, loops_aug, traj)
    node_res = float(np.abs(residual).max() / np.abs(traj.coords).max())
    assert node_res <= 1e-12

    lag_e = extended(passive_lc, GeometricPolicy(cap_mode=GeometricMode.ALL_PAIRS))
    h_e = legendre_transform(lag_e)
    modes_e = normal_modes(h_e)
    x0e, p0e = initial_state(passive_lc, lag_e, SECTION_ICS)
    traj_e = evolve_modes(h_e, modes_e, x0e, p0e, times, lagrangian=lag_e)
    loops = fundamental_loops(passive_lc, build_spanning_tree(passive_lc))
    res_e = flux_law_residual(passive_lc, loops, traj_e)
    phi2 = traj_e.coords[lag_e.labels.index("Phi_2")]
    assert np.abs(phi2).max() > 0.0
    ext_res = float(np.abs(res_e[1] + phi2).max() / np.abs(phi2).max())
    assert ext_res <= 1e-10

    loop_policy = GeometricPolicy(cap_mode=GeometricMode.MINIMAL, default_lg=1e-14)
    _, lag_l, h_l, modes_l = augmented_loop_modes(passive_lc, loop_policy)
    x0l, p0l = initial_state(passive_lc, lag_l, SECTION_ICS)
    traj_l = evolve_modes(h_l, modes_l, x0l, p0l, times, lagrangian=lag_l)
    charge_res = charge_law_residual(passive_lc, traj_l)
    loop_res = float(np.abs(charge_res).max() / np.abs(traj_l.coords).max())
    assert loop_res <= 1e-12
    print(f"\n[criterion 9] PASS node loop-residuals {node_res:.1e}; extended "
          f"loop-2 residual equals -Phi_2 within {ext_res:.1e}; charge law "
          f"{loop_res:.1e}")


def test_criterion_10_geometric_scaling_law(passive_lc):
    def node_freqs(cg):
        policy = GeometricPolicy(cap_mode=GeometricMode.MINIMAL, default_cg=cg)
        _, _, _, modes = augmented_node_modes(passive_lc, policy)
        return modes.omegas / (2 * math.pi)

    base = node_freqs(8.9e-20)
    shrunk = node_freqs(8.9e-21)
    high_ratio = shrunk[1] / base[1]
    assert abs(high_ratio - math.sqrt(10.0)) / math.sqrt(10.0) <= 0.01
    low_shift = abs(shrunk[0] - base[0]) / base[0]
    assert low_shift < 1e-4
    print(f"\n[criterion 10] PASS Cg/10: high mode x{high_ratio:.4f} "
          f"(sqrt(10) = {math.sqrt(10.0):.4f}), low mode shift {low_shift:.2e}")
