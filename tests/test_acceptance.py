"""End-to-end acceptance gate.

Each numbered test checks one headline capability against its reference
numbers and pinned tolerance, prints exactly one summary line

    [acceptance N] PASS|FAIL <title>: clause (detail); ...

and then asserts, so a red criterion is self-describing in the log.
Reference values that are measured rather than derived carry their
tolerance next to them.  Scans reuse a module-level contrast cache so
repeated scenarios are only integrated once.
"""

import time

import numpy as np
from scipy.integrate import solve_ivp
from scipy.stats import unitary_group

from dbdsim import grid as grid_mod
from dbdsim import interferometer as itf
from dbdsim import multilevel, strategies, tls
from dbdsim.units import (
    ConstantDetuning,
    GaussianWavePacket,
    PulseEnvelope,
)

import checks
import pulse_efficiency

G1 = 0.000357
G2 = 0.000714
SIGMA = 0.05

FLAT = ConstantDetuning(0.0)

# beam-splitter / mirror packet-averaged transfer at sigma_p = 0.05,
# tolerance 0.5 percentage points
EFFICIENCY_TABLE = {
    "c_dbd": (0.9735, 0.9643),
    "cd_dbd": (0.9976, 0.9643),
    "ds_dbd": (0.9994, 0.9747),
}
EFFICIENCY_TOL = 0.005

# transfer-maximizing constant detuning vs polarization imbalance at
# the (tau, Omega) = (0.47, 2) splitter drive, tolerance 0.05
DETUNING_OPTIMA = {0.0: 0.25, 0.1: 0.55, 0.2: 0.80, 0.3: 1.10}
DETUNING_TOL = 0.05


def _clause(name, ok, detail):
    return (f"{name} {'PASS' if ok else 'FAIL'} ({detail})", bool(ok))


def _finish(num, title, clauses, t0, budget=None):
    elapsed = time.perf_counter() - t0
    ok = all(c[1] for c in clauses)
    parts = [c[0] for c in clauses]
    if budget is not None:
        in_time = elapsed < budget
        parts.append(f"runtime {'PASS' if in_time else 'FAIL'} "
                     f"({elapsed:.0f}s, budget {budget:.0f}s)")
        ok = ok and in_time
    else:
        parts.append(f"runtime {elapsed:.0f}s")
    line = (f"[acceptance {num}] {'PASS' if ok else 'FAIL'} {title}: "
            + "; ".join(parts))
    print(line, flush=True)
    assert ok, line


_CONTRASTS = {}


def packet_contrast(name, sigma_p, g=G1, p0=0.0, detection="unresolved",
                    n_nodes=64):
    key = (name, sigma_p, g, p0, detection, n_nodes)
    if key not in _CONTRASTS:
        cfg = itf.MzConfig(strategy=strategies.builtin_strategy(name), g=g,
                           source=GaussianWavePacket(p0, sigma_p),
                           detection=detection, n_nodes=n_nodes)
        scan = itf.t_scan(cfg, itf.default_t_grid(g))
        _CONTRASTS[key] = itf.extract_contrast(scan).contrast
    return _CONTRASTS[key]


def test_01_pulse_efficiency_table():
    t0 = time.perf_counter()
    packet = GaussianWavePacket(0.0, SIGMA)
    clauses = []
    for name, (bs_ref, mirror_ref) in EFFICIENCY_TABLE.items():
        spec = strategies.builtin_strategy(name)
        bs = multilevel.integrated_efficiency(
            packet, "beam_splitter", checks.bs_envelope(spec),
            checks.bs_protocol(spec), rtol=1e-9)
        mirror = multilevel.integrated_efficiency(
            packet, "mirror_plus", checks.mirror_envelope(spec),
            checks.mirror_protocol(spec), rtol=1e-9)
        clauses.append(_clause(
            f"{name} splitter", abs(bs - bs_ref) <= EFFICIENCY_TOL,
            f"{bs:.4f} vs {bs_ref:.4f} +-{EFFICIENCY_TOL}"))
        clauses.append(_clause(
            f"{name} mirror", abs(mirror - mirror_ref) <= EFFICIENCY_TOL,
            f"{mirror:.4f} vs {mirror_ref:.4f} +-{EFFICIENCY_TOL}"))
    oct_spec = strategies.builtin_strategy("oct_hybrid")
    eta = strategies.integrated_mirror_efficiency(oct_spec.mirror,
                                                  sigma_p=SIGMA)
    clauses.append(_clause("optimized mirror table", eta >= 0.99,
                           f"eta={eta:.5f} >= 0.99, committed knots"))
    _finish(1, "pulse efficiency table", clauses, t0, budget=120.0)


def test_02_detuning_optima():
    t0 = time.perf_counter()
    env = PulseEnvelope("gaussian", 2.0, 0.47)
    deltas = np.arange(0.0, 1.41, 0.02)
    clauses = []
    for eps, ref in DETUNING_OPTIMA.items():
        effs = np.array([
            pulse_efficiency.bs_efficiency(0.0, env, ConstantDetuning(d),
                                           eps, rtol=1e-8, atol=1e-10).value
            for d in deltas])
        i = int(np.argmax(effs))
        opt = deltas[i]
        if 0 < i < deltas.size - 1:
            y0, y1, y2 = effs[i - 1:i + 2]
            denom = y0 - 2 * y1 + y2
            if denom != 0:
                opt = deltas[i] + 0.5 * (y0 - y2) / denom * 0.02
        clauses.append(_clause(
            f"eps={eps:g}", abs(opt - ref) <= DETUNING_TOL,
            f"delta_opt={opt:.3f} vs {ref:.2f} +-{DETUNING_TOL}"))
    _finish(2, "detuning optima vs polarization error", clauses, t0,
            budget=60.0)


def test_03_unresolved_contrast():
    t0 = time.perf_counter()
    clauses = []
    tic = time.perf_counter()
    c_ds = packet_contrast("ds_dbd", SIGMA)
    ds_time = time.perf_counter() - tic
    clauses.append(_clause(
        "sweep strategy", abs(c_ds - 0.97) <= 0.01,
        f"C={c_ds:.4f} vs 0.97 +-0.01, {ds_time:.0f}s < 300s"))
    tic = time.perf_counter()
    c_cd = packet_contrast("cd_dbd", 0.01, p0=0.1)
    cd_time = time.perf_counter() - tic
    clauses.append(_clause(
        "offset-detuning strategy", abs(c_cd - 0.83) <= 0.02,
        f"C={c_cd:.4f} vs 0.83 +-0.02, p0=0.1, {cd_time:.0f}s < 300s"))
    clauses.append(_clause("per-case runtime",
                           ds_time < 300.0 and cd_time < 300.0,
                           f"{ds_time:.0f}s, {cd_time:.0f}s"))
    _finish(3, "open-detection fringe contrast", clauses, t0)


def test_04_resolved_contrast_and_path_identity():
    t0 = time.perf_counter()
    clauses = []
    c_ds = packet_contrast("ds_dbd", SIGMA, g=G2, detection="resolved")
    clauses.append(_clause("sweep strategy", abs(c_ds - 0.97) <= 0.01,
                           f"C={c_ds:.4f} vs 0.97 +-0.01"))
    c_oct = packet_contrast("oct_hybrid", SIGMA, g=G2, detection="resolved")
    clauses.append(_clause("optimized mirror", abs(c_oct - 0.99) <= 0.01,
                           f"C={c_oct:.4f} vs 0.99 +-0.01"))

    rng = np.random.default_rng(404)
    uni = unitary_group(dim=5, seed=405)
    worst = 0.0
    cfg = itf.MzConfig(strategy=strategies.builtin_strategy("c_dbd"),
                       g=0.0, source=GaussianWavePacket(0.0, 0.01),
                       detection="resolved")
    for _ in range(50):
        b1, m, b3 = uni.rvs(), uni.rvs(), uni.rvs()
        m[3, 4] = m[4, 3] = 0.0  # keep both sides on the same three paths
        g = rng.uniform(-0.002, 0.002)
        p = rng.uniform(-0.15, 0.15)
        T = rng.uniform(5.0, 40.0)
        s = itf.total_s_matrix(
            itf.MzConfig(**{**cfg.__dict__, "g": g}), p, T=T,
            matrices=(b1, m, b3))
        direct = checks.three_path_amplitudes(b1, m, b3, g, p, T)
        worst = max(worst, float(np.max(np.abs(s[:, 0] - direct))))
    clauses.append(_clause("three-path identity", worst < 1e-10,
                           f"max|diff|={worst:.2e} < 1e-10, 50 draws"))
    _finish(4, "momentum-resolved contrast", clauses, t0)


def test_05_momentum_spread_robustness():
    t0 = time.perf_counter()
    clauses = []
    c_ds_mid = packet_contrast("ds_dbd", 0.097)
    clauses.append(_clause("sweep at sigma_p=0.097", c_ds_mid >= 0.90,
                           f"C={c_ds_mid:.4f} >= 0.90"))
    c_oct_wide = packet_contrast("oct_hybrid", 0.132)
    clauses.append(_clause("optimized at sigma_p=0.132", c_oct_wide >= 0.95,
                           f"C={c_oct_wide:.4f} >= 0.95"))
    order_ok = True
    detail = []
    for sig in (SIGMA, 0.097, 0.132):
        c = {name: packet_contrast(name, sig)
             for name in ("c_dbd", "cd_dbd", "ds_dbd", "oct_hybrid")}
        ok = (c["oct_hybrid"] > c["ds_dbd"]
              > max(c["c_dbd"], c["cd_dbd"]))
        order_ok = order_ok and ok
        detail.append(f"sigma={sig:g}: oct {c['oct_hybrid']:.3f}, "
                      f"ds {c['ds_dbd']:.3f}, cd {c['cd_dbd']:.3f}, "
                      f"c {c['c_dbd']:.3f}")
    clauses.append(_clause("strategy ordering", order_ok,
                           " | ".join(detail)))
    _finish(5, "contrast vs momentum spread", clauses, t0)


def test_06_amplitude_noise_robustness():
    t0 = time.perf_counter()
    clauses = []
    for name, sigma_r, floor in (("ds_dbd", 0.03, 0.95),
                                 ("oct_hybrid", 0.045, 0.95)):
        cfg = itf.MzConfig(strategy=strategies.builtin_strategy(name),
                           g=G1, source=GaussianWavePacket(0.0, SIGMA))
        res = itf.fluctuation_robustness(cfg, sigma_r, n_shots=10, seed=0)
        clauses.append(_clause(
            f"{name} at {100 * sigma_r:g}% noise", res.mean >= floor,
            f"mean C={res.mean:.4f} >= {floor}, std={res.std:.4f}, "
            f"10 shots, seed 0"))
    _finish(6, "pulse-amplitude fluctuation robustness", clauses, t0)


def test_07_solver_vs_grid_oracle():
    t0 = time.perf_counter()
    clauses = []
    spec = grid_mod.GridSpec(4096)
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(25):
        shape = "gaussian" if rng.random() < 0.5 else "box"
        env = PulseEnvelope(shape, rng.uniform(0.5, 2.5),
                            rng.uniform(0.25, 0.6))
        protocol = ConstantDetuning(rng.uniform(-1.0, 1.0))
        epsilon = rng.uniform(0.0, 0.2)
        p0 = rng.uniform(-0.3, 0.3)
        sigma_p = rng.choice([0.01, 0.05, 0.1])
        packet = GaussianWavePacket(p0, sigma_p)

        nodes, weights = packet.momentum_quadrature(64)
        u = multilevel.propagate_unitaries(nodes, env, protocol, epsilon,
                                           rtol=1e-9, basis="bare")
        model = weights @ (np.abs(u[:, :, 0]) ** 2)

        state = grid_mod.prepare_wavepacket(spec, packet)
        state = grid_mod.split_step_pulse(state, env, protocol, epsilon)
        hist = grid_mod.momentum_histogram(state, p0)
        oracle = np.array([hist.populations[k] for k in (0, 1, -1, 2, -2)])
        worst = max(worst, float(np.max(np.abs(model - oracle))))
    clauses.append(_clause("randomized pulses", worst <= 1e-2,
                           f"25 pulses, max port diff {worst:.2e} <= 1e-2"))

    cfg = itf.MzConfig(strategy=strategies.builtin_strategy("ds_dbd"),
                       g=G1, source=GaussianWavePacket(0.0, SIGMA))
    full = itf.default_t_grid(G1)
    t_grid = np.linspace(full[0], full[-1], 20)
    model_scan = itf.t_scan(cfg, t_grid)
    oracle_scan = itf.oracle_fringe(cfg, t_grid)
    mz_diff = float(np.max(np.abs(model_scan.p_sum - oracle_scan.p_sum)))
    clauses.append(_clause("full sequence", mz_diff <= 0.02,
                           f"20 times, max |P_sum diff| {mz_diff:.2e} "
                           "<= 0.02"))
    _finish(7, "grid-oracle agreement", clauses, t0)


def test_08_limit_identities():
    t0 = time.perf_counter()
    clauses = []
    cfg = itf.MzConfig(strategy=strategies.builtin_strategy("ideal"),
                       g=G1, source=GaussianWavePacket(0.0, SIGMA))
    t_grid = itf.default_t_grid(G1)
    scan = itf.t_scan(cfg, t_grid)
    x = checks.semiclassical_phase(G1, t_grid)
    fringe_err = float(np.max(np.abs(scan.p_sum - 0.5 * (1 - np.cos(x)))))
    clauses.append(_clause("lossless fringe", fringe_err < 1e-10,
                           f"max dev {fringe_err:.2e} < 1e-10"))
    fit = checks.fit_fringe(scan)
    rel = abs(fit.frequency - 4.0 * G1) / (4.0 * G1)
    clauses.append(_clause("fitted frequency", rel < 1e-6,
                           f"rel err {rel:.2e} < 1e-6"))

    worst = 0.0
    for omega_r in (0.2, 0.35, 0.5):
        tau = 0.9
        env = PulseEnvelope("gaussian", omega_r, tau)

        def rhs(t, y):
            h = tls.rwa_hamiltonian(env.evaluate(t), 0.0)
            return -1j * (h @ y)

        lo, hi = env.support
        sol = solve_ivp(rhs, (lo, hi), np.array([1.0 + 0j, 0.0 + 0j]),
                        rtol=1e-12, atol=1e-14, method="DOP853")
        p_num = abs(sol.y[1, -1]) ** 2
        worst = max(worst, abs(p_num - tls.pulse_area_probability(omega_r,
                                                                  tau)))
    clauses.append(_clause("rotating-frame area law", worst < 1e-6,
                           f"Omega_R <= 0.5, max dev {worst:.2e} < 1e-6"))
    _finish(8, "closed-form limits", clauses, t0)


def test_09_structural_invariants():
    t0 = time.perf_counter()
    clauses = []
    rng = np.random.default_rng(909)
    env = PulseEnvelope("gaussian", 2.0, 0.47)
    worst_h = 0.0
    for _ in range(200):
        h = multilevel.build_hamiltonian(
            int(rng.integers(1, 4)), rng.uniform(-0.9, 0.9),
            rng.uniform(-2.0, 2.0),
            PulseEnvelope("gaussian", rng.uniform(0.0, 3.0),
                          rng.uniform(0.2, 0.8)),
            ConstantDetuning(rng.uniform(-2.0, 2.0)),
            rng.uniform(0.0, 0.3))
        worst_h = max(worst_h, float(np.max(np.abs(h - h.conj().T))))
    clauses.append(_clause("hermiticity", worst_h <= 1e-14,
                           f"200 draws, max defect {worst_h:.1e}"))

    state = grid_mod.prepare_wavepacket(
        grid_mod.GridSpec(2048),
        GaussianWavePacket(0.0, SIGMA))
    box = PulseEnvelope("box", 2.0, 2.0)
    out = grid_mod.split_step_pulse(state, box, FLAT)
    steps = int(np.ceil(np.ptp(box.support) / grid_mod.GridSpec.dt))
    drift = abs(out.norm() - 1.0)
    clauses.append(_clause("norm drift", drift <= 1e-9,
                           f"{steps} steps, |norm-1|={drift:.1e} <= 1e-9"))

    u = multilevel.propagate_unitaries(0.0, env, FLAT, 0.2)
    parity = max(abs(abs(u[1, 0]) ** 2 - abs(u[2, 0]) ** 2),
                 abs(abs(u[3, 0]) ** 2 - abs(u[4, 0]) ** 2))
    clauses.append(_clause("rest-frame parity", parity <= 1e-12,
                           f"|P+ - P-|={parity:.1e} <= 1e-12"))

    m_env = PulseEnvelope("gaussian", 2.89, 0.64)
    worst_m = 0.0
    for p in np.linspace(-0.2, 0.2, 9):
        f_minus = pulse_efficiency.mirror_efficiency(
            p, m_env, FLAT, direction="minus").value
        f_plus = pulse_efficiency.mirror_efficiency(
            -p, m_env, FLAT, direction="plus").value
        worst_m = max(worst_m, abs(f_minus - f_plus))
    clauses.append(_clause("mirror direction symmetry", worst_m <= 1e-6,
                           f"max |F-(p)-F+(-p)|={worst_m:.1e} <= 1e-6"))

    worst_s = 0.0
    for name, g, p, T in (("c_dbd", G1, 0.07, 40.0),
                          ("ds_dbd", G1, 0.0, 55.0),
                          ("c_dbd", G2, -0.12, 30.0)):
        cfg = itf.MzConfig(strategy=strategies.builtin_strategy(name), g=g,
                           source=GaussianWavePacket(0.0, 0.01))
        s = itf.total_s_matrix(cfg, p, T=T)
        worst_s = max(worst_s, float(np.max(np.abs(
            s.conj().T @ s - np.eye(5)))))
    clauses.append(_clause("sequence unitarity", worst_s <= 1e-5,
                           f"max defect {worst_s:.1e} <= 1e-5"))

    worst_t = 0.0
    for p in (-0.25, 0.0, 0.1, 0.25):
        u2 = multilevel.propagate_unitaries(p, env, FLAT, 0.0, n_max=2,
                                            basis="bare")
        u3 = multilevel.propagate_unitaries(p, env, FLAT, 0.0, n_max=3,
                                            basis="bare")
        ports2 = np.abs(u2[:, 0]) ** 2
        ports3 = np.abs(u3[:5, 0]) ** 2
        worst_t = max(worst_t, float(np.max(np.abs(ports2 - ports3))))
    clauses.append(_clause("ladder truncation", worst_t <= 1e-4,
                           f"splitter drive, max port shift {worst_t:.1e} "
                           "vs 1e-4"))
    _finish(9, "structural invariants", clauses, t0)
