import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from dbdsim import interferometer
from dbdsim.exceptions import (NUMERICAL_ERRORS, IntegratorFailure,
                               NoExtremaFound, OutOfZone)
from dbdsim.grid import GridSpec, free_propagate_analytic, node_wavepacket
from dbdsim.interferometer import (
    FringeScan,
    MzConfig,
    default_t_grid,
    extract_contrast,
    fluctuation_robustness,
    ideal_bs_matrix,
    ideal_mirror_matrix,
    oracle_fringe,
    port_offsets,
    t_scan,
    total_s_matrix,
)
from dbdsim.multilevel import propagate_unitaries
from dbdsim.strategies import builtin_strategy
from dbdsim.units import GaussianWavePacket

from checks import (fit_fringe, port_populations, semiclassical_phase,
                    three_path_amplitudes)

G_SMALL = 0.000357
IDEAL = builtin_strategy("ideal")


def make_config(**kw):
    defaults = dict(strategy=builtin_strategy("c_dbd"), g=G_SMALL,
                    source=GaussianWavePacket(0.0, 0.05))
    defaults.update(kw)
    return MzConfig(**defaults)


class TestConfig:
    def test_detection_validation(self):
        with pytest.raises(ValueError):
            make_config(detection="velocity_map")

    def test_wide_ladder_accepts_every_mode(self):
        assert make_config(n_max=3, detection="resolved").n_max == 3
        assert make_config(n_max=3, strategy=IDEAL).strategy.bs is None

    def test_negative_time(self):
        with pytest.raises(ValueError):
            total_s_matrix(make_config(), 0.0, -1.0)

    @pytest.mark.parametrize("call", [
        lambda: t_scan(make_config(strategy=IDEAL), [10.0, math.nan]),
        lambda: t_scan(make_config(strategy=IDEAL), [math.nan, 10.0]),
        lambda: total_s_matrix(make_config(strategy=IDEAL), 0.0, math.nan),
        lambda: total_s_matrix(make_config(strategy=IDEAL), math.nan, 10.0),
        lambda: free_propagate_analytic(node_wavepacket(
            GridSpec(1024), GaussianWavePacket(), 4), G_SMALL, math.nan),
        lambda: free_propagate_analytic(node_wavepacket(
            GridSpec(1024), GaussianWavePacket(), 4), math.nan, 1.0),
        lambda: make_config(g=math.nan),
        lambda: make_config(g=math.inf),
        lambda: default_t_grid(math.nan),
        lambda: default_t_grid(math.inf),
        lambda: ideal_bs_matrix(0),
        lambda: ideal_mirror_matrix(0),
    ], ids=["t_scan-last", "t_scan-first", "total_s_matrix",
            "total_s_matrix-p", "free-flight", "free-flight-g", "g=nan",
            "g=inf", "default_t_grid-nan", "default_t_grid-inf",
            "ideal_bs_matrix-0", "ideal_mirror_matrix-0"])
    def test_non_finite_input_is_refused(self, call):
        # bad input (exit 2), not numerical trouble, and never a NaN result
        with pytest.raises(ValueError) as info:
            call()
        assert not isinstance(info.value, NUMERICAL_ERRORS)

    def test_polarization_object_coerced(self):
        cfg = make_config(epsilon=0.15)
        assert cfg.epsilon == 0.15


class TestIdealMatrices:
    def test_unitary(self):
        for mat in (ideal_bs_matrix(), ideal_mirror_matrix()):
            defect = np.max(np.abs(mat.conj().T @ mat - np.eye(5)))
            assert defect < 1e-15

    def test_splitter_balance(self):
        col = ideal_bs_matrix()[:, 0]
        assert abs(col[1]) ** 2 == pytest.approx(0.5)
        assert abs(col[2]) ** 2 == pytest.approx(0.5)
        assert col[0] == 0.0

    def test_mirror_swaps(self):
        m = ideal_mirror_matrix()
        assert m[1, 2] == -1j
        assert m[2, 1] == -1j
        assert m[1, 1] == 0.0

    def test_identity_on_outer_orders(self):
        for make in (ideal_bs_matrix, ideal_mirror_matrix):
            wide = make(3)
            assert np.array_equal(wide[:5, :5], make())
            assert np.array_equal(wide[5:, :], np.eye(7)[5:, :])
            assert np.array_equal(wide[:, 5:], np.eye(7)[:, 5:])


def ladder(p, g, T, n_max=2):
    """_ladder's free-fall phases relative to order 0 at momenta p and
    times T, broadcast, with the ports on the last axis."""
    p = np.asarray(p, dtype=float)[..., None]
    T = np.asarray(T, dtype=float)[..., None]
    z = np.exp(-1j * (4.0 * T * p + g * T**2))
    return interferometer._ladder(z, T, n_max)[..., 0]


class TestFreePropagation:
    def test_port_offsets(self):
        assert np.array_equal(port_offsets(2), [0.0, 2.0, -2.0, 4.0, -4.0])
        assert np.array_equal(port_offsets(3),
                              [0.0, 2.0, -2.0, 4.0, -4.0, 6.0, -6.0])

    def test_diagonal_phases(self):
        p, g, T = 0.04, 0.001, 12.0
        u = ladder(p, g, T)
        q = np.array([p, p + 2.0])
        theta = T * q**2 + 0.5 * g * T**2 * q
        assert u[0] == 1.0
        assert u[1] == pytest.approx(np.exp(-1j * (theta[1] - theta[0])),
                                     abs=1e-14)
        batch = ladder(np.array([[p, 0.0]]), g, T)
        assert batch.shape == (1, 2, 5)
        assert np.array_equal(batch[0, 0], u)

    def test_wider_ladder_shape(self):
        u = ladder(0.0, 0.0, 5.0, n_max=3)
        assert u.shape == (7,)
        assert np.allclose(np.abs(u), 1.0)

    @pytest.mark.parametrize("n_max", [1, 2, 3])
    def test_accuracy_against_long_double(self, n_max):
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("long double is no wider than double here")
        rng = np.random.default_rng(n_max)
        p = rng.uniform(-1.0, 1.0, 300)
        T = rng.uniform(0.0, 200.0, (12, 1))
        T[-1] = 200.0
        for g in (-2e-3, rng.uniform(-2e-3, 2e-3), 2e-3):
            u = ladder(p, g, T, n_max)
            ld = np.longdouble
            q, p_ld = port_offsets(n_max).astype(ld), p.astype(ld)[:, None]
            t = T.astype(ld)[..., None]
            # theta(p + q) - theta(p) at the port offsets q
            theta = t * q * (2 * p_ld + q) + ld(g) * t**2 * q / 2
            err = np.hypot(u.real - np.cos(theta), u.imag + np.sin(theta))
            assert np.max(err) <= 1e-12

    def test_array_times_match_scalar_calls(self):
        p = np.random.default_rng(5).uniform(-1.0, 1.0, (3, 40))
        T = np.array([0.0, 12.5, 77.0, 200.0])
        for n_max in (1, 2, 3):
            batch = ladder(p, 1.5e-3, T[:, None, None], n_max)
            assert batch.shape == (4, 3, 40, 2 * n_max + 1)
            for i, t in enumerate(T):
                assert np.array_equal(batch[i], ladder(p, 1.5e-3, t, n_max))


class TestComposition:
    def test_sequence_matrix_unitary(self):
        cfg = make_config()
        s = total_s_matrix(cfg, 0.05, T=30.0)
        defect = np.max(np.abs(s.conj().T @ s - np.eye(5)))
        assert defect < 1e-6

    def test_resolved_matrix_is_a_restriction(self):
        cfg = make_config(detection="resolved")
        s = total_s_matrix(cfg, 0.05, T=30.0)
        defect = np.max(np.abs(s.conj().T @ s - np.eye(5)))
        assert defect > 1e-4

    def test_identity_pulses_leave_population(self):
        cfg = make_config()
        eye = np.eye(5, dtype=complex)
        s = total_s_matrix(cfg, 0.0, T=20.0, matrices=(eye, eye, eye))
        assert abs(s[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_zone(self):
        with pytest.raises(OutOfZone):
            total_s_matrix(make_config(), 0.998, T=10.0)
        with pytest.raises(OutOfZone):
            total_s_matrix(make_config(g=0.01), 0.0, T=100.0)

    def test_missing_time(self):
        with pytest.raises(TypeError):
            total_s_matrix(make_config(), 0.0)

    def test_wider_ladder_composes(self):
        cfg = make_config(n_max=3)
        s = total_s_matrix(cfg, 0.02, T=25.0)
        assert s.shape == (7, 7)
        assert np.sum(np.abs(s[:, 0]) ** 2) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n_max", [2, 3])
    def test_resolved_keeps_reversal_pairs(self, n_max):
        # the reversal pairs (after-splitter, after-mirror) spelled out
        pairs = [(0, 0)] + [(k + s, k + 1 - s) for k in range(1, 2 * n_max, 2)
                            for s in (0, 1)]
        uni = unitary_group(dim=2 * n_max + 1, seed=7)
        b1, m, b3 = uni.rvs(), uni.rvs(), uni.rvs()
        p, g, T = 0.03, 0.001, 20.0
        cfg = make_config(g=g, n_max=n_max, detection="resolved",
                          source=GaussianWavePacket(0.0, 0.01))
        s = total_s_matrix(cfg, p, T=T, matrices=(b1, m, b3))
        # U = exp[-i(T q^2 + g T^2 q / 2)] at q = p1 + 2k and p2 + 2k
        u1, u2 = (np.exp(-1j * (T * q**2 + 0.5 * g * T**2 * q))
                  for q in (p + port_offsets(n_max),
                            p + 0.5 * g * T + port_offsets(n_max)))
        direct = sum(np.outer(b3[:, l] * u2[l], b1[k, :]) * m[l, k] * u1[k]
                     for k, l in pairs)
        # each side rounds the phases, of up to T (2 n_max)^2, its own way
        tol = 2 * np.finfo(float).eps * T * (2 * n_max) ** 2
        assert np.max(np.abs(s - direct)) < tol


class TestThreePaths:
    def test_matches_restricted_composition(self):
        rng = np.random.default_rng(11)
        uni = unitary_group(dim=5, seed=1234)
        for _ in range(10):
            b1, m, b3 = uni.rvs(), uni.rvs(), uni.rvs()
            # silence the outer-port reversal pairs so both sides sum
            # over the same three paths
            m[3, 4] = m[4, 3] = 0.0
            g = rng.uniform(-0.002, 0.002)
            p = rng.uniform(-0.1, 0.1)
            T = rng.uniform(5.0, 40.0)
            cfg = make_config(g=g, detection="resolved",
                              source=GaussianWavePacket(0.0, 0.01))
            s = total_s_matrix(cfg, p, T=T, matrices=(b1, m, b3))
            direct = three_path_amplitudes(b1, m, b3, g, p, T)
            assert np.max(np.abs(s[:, 0] - direct)) < 1e-10


class TestScans:
    def test_grid_validation(self):
        cfg = make_config()
        with pytest.raises(ValueError):
            t_scan(cfg, np.array([]))
        with pytest.raises(ValueError):
            t_scan(cfg, np.array([3.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            t_scan(cfg, np.array([-1.0, 2.0]))

    def test_default_grid(self):
        t = default_t_grid(G_SMALL)
        x = 4.0 * G_SMALL * t**2
        assert x[0] == pytest.approx(0.05 * math.pi)
        assert x[-1] == pytest.approx(2.6 * math.pi)
        assert np.max(np.diff(x)) <= math.pi / 40.0 + 1e-12
        with pytest.raises(ValueError):
            default_t_grid(0.0)

    def test_ports_account_for_everything(self):
        cfg = make_config()
        scan = t_scan(cfg, default_t_grid(G_SMALL)[:6])
        total = scan.p1 + scan.p_sum
        assert np.all(total <= 1.0 + 1e-9)
        assert np.all(total > 0.97)  # small leakage into +-4

    def test_ideal_fringe_closed_form(self):
        cfg = make_config(strategy=IDEAL,
                          source=GaussianWavePacket(0.0, 0.05))
        t = default_t_grid(G_SMALL)
        scan = t_scan(cfg, t)
        x = semiclassical_phase(G_SMALL, t)
        assert np.max(np.abs(scan.p_sum - 0.5 * (1 - np.cos(x)))) < 1e-10
        assert extract_contrast(scan).contrast == pytest.approx(1.0,
                                                                abs=1e-6)

    @pytest.mark.parametrize("detection", ["unresolved", "resolved"])
    def test_ideal_wide_ladder_fringe(self, detection):
        cfg = make_config(strategy=IDEAL, n_max=3, detection=detection)
        t = default_t_grid(G_SMALL)
        scan = t_scan(cfg, t)
        x = semiclassical_phase(G_SMALL, t)
        assert np.max(np.abs(scan.p_sum - 0.5 * (1 - np.cos(x)))) < 1e-10

    def test_plane_wave_populations(self):
        p1, p2, p3 = port_populations(make_config(), 20.0, p=0.0)
        assert 0.0 <= p1 <= 1.0
        assert p1 + p2 + p3 == pytest.approx(1.0, abs=0.05)

    def test_packet_populations_match_scan(self):
        cfg = make_config(n_nodes=24)
        pops = port_populations(cfg, 25.0)
        scan = t_scan(cfg, np.array([25.0]))
        assert pops[1] == pytest.approx(float(scan.p2[0]), abs=1e-12)

    @pytest.mark.parametrize("n_nodes", [256, 7])
    def test_rows_independent_of_blocks(self, n_nodes):
        # t_scan composes blocks of about _BLOCK_PAIRS (T, node) pairs;
        # these sub-grids put each T in another block or block position
        cfg = make_config(strategy=IDEAL, detection="resolved",
                          n_nodes=n_nodes)
        t = np.linspace(10.0, 80.0, 2000)
        full = t_scan(cfg, t)
        for part in (slice(1, None), slice(37, 1500, 3), slice(1234, 1235)):
            sub = t_scan(cfg, t[part])
            for a, b in ((full.p1, sub.p1), (full.p2, sub.p2),
                         (full.p3, sub.p3)):
                assert np.array_equal(a[part], b)

    @pytest.mark.parametrize("n_nodes", [256, 7])
    def test_wide_ladder_rows_independent_of_blocks(self, n_nodes):
        cfg = make_config(strategy=IDEAL, detection="resolved",
                          n_nodes=n_nodes, n_max=3)
        t = np.linspace(10.0, 80.0, 2000)
        full = t_scan(cfg, t)
        for part in (slice(1, None), slice(37, 1500, 3), slice(1234, 1235)):
            sub = t_scan(cfg, t[part])
            for a, b in ((full.p1, sub.p1), (full.p2, sub.p2),
                         (full.p3, sub.p3)):
                assert np.array_equal(a[part], b)

    @pytest.mark.parametrize("layout", ["per_pair", "shared"])
    @pytest.mark.parametrize("n_nodes", [256, 7])
    @pytest.mark.parametrize("n_max", [2, 3])
    def test_kernel_rows_independent_of_blocks(self, n_max, n_nodes, layout):
        # _compose on random unitaries in t_scan's layouts: one matrix
        # per (T, node) pair, as surrogates give, or one for every pair,
        # as ideal pulses give; each T row comes out the same from blocks
        # of any width, a lone row included
        d, n_t = 2 * n_max + 1, 24
        uni = unitary_group(dim=d, seed=n_max)
        rng = np.random.default_rng(n_nodes)
        cfg = make_config(n_max=n_max)
        p = rng.uniform(-0.2, 0.2, n_nodes)
        T = np.sort(rng.uniform(10.0, 80.0, n_t))[:, None]
        if layout == "per_pair":
            b1 = uni.rvs(size=n_nodes)[:, :, 0].T
            m, b3 = (uni.rvs(size=n_t * n_nodes)
                     .reshape(n_t, n_nodes, d, d)[:, :, :rows]
                     .transpose(0, 2, 3, 1) for rows in (d, 3))
        else:
            b1, m, b3 = uni.rvs()[:, :1], uni.rvs(), uni.rvs()[:3]
        full = interferometer._compose(cfg, b1, m, b3, p, T)
        assert full.shape == (n_t, 3, n_nodes)
        for width in (1, 5, 16):
            for i in range(0, n_t, width):
                blk = slice(i, i + width)
                mb, b3b = (a if a.ndim == 2 else a[blk] for a in (m, b3))
                part = interferometer._compose(cfg, b1, mb, b3b, p, T[blk])
                assert np.array_equal(part, full[blk])

    @pytest.mark.parametrize("detection", ["unresolved", "resolved"])
    @pytest.mark.parametrize("n_max", [2, 3])
    def test_ideal_scan_is_total_s_matrix(self, n_max, detection):
        # t_scan's kernel leaves the pairs' common phase out and
        # total_s_matrix puts it back; the populations are the same
        cfg = make_config(strategy=IDEAL, n_max=n_max,
                          detection=detection, n_nodes=16)
        ideal = (ideal_bs_matrix(n_max), ideal_mirror_matrix(n_max),
                 ideal_bs_matrix(n_max))
        p, w = cfg.source.momentum_quadrature(cfg.n_nodes)
        t = np.array([10.0, 23.5, 41.0, 66.6, 80.0])
        scan = t_scan(cfg, t)
        for i, T in enumerate(t):
            amps = np.array([total_s_matrix(cfg, q, T, matrices=ideal)[:3, 0]
                             for q in p])
            pops = w @ np.abs(amps) ** 2
            for r, ports in enumerate((scan.p1, scan.p2, scan.p3)):
                assert abs(ports[i] - pops[r]) < 1e-14


def direct_p_sum(cfg, T):
    """P_sum at T from exact-momentum solves, composed node by node."""
    p, w = cfg.source.momentum_quadrature(cfg.n_nodes)
    strat = cfg.strategy

    def solve(q, pulse):
        return propagate_unitaries(q, pulse[0], pulse[1], cfg.epsilon,
                                   n_max=cfg.n_max, rtol=cfg.rtol,
                                   atol=cfg.rtol * 1e-2)

    b1 = solve(p, strat.bs)
    m = solve(p + 0.5 * cfg.g * T, strat.mirror)
    b3 = solve(p + cfg.g * T, strat.bs)
    pops = [np.sum(np.abs(total_s_matrix(
        cfg, q, T, matrices=(b1[i], m[i], b3[i]))[1:3, 0]) ** 2)
        for i, q in enumerate(p)]
    return float(w @ np.array(pops))


class TestSurrogates:
    @pytest.mark.parametrize("name, sigma_p, g, detection", [
        ("ds_dbd", 0.05, G_SMALL, "unresolved"),
        ("ds_dbd", 0.05, 2 * G_SMALL, "resolved"),
        ("oct_hybrid", 0.132, G_SMALL, "unresolved"),
    ])
    def test_surrogate_matches_direct_solves(self, name, sigma_p, g,
                                             detection):
        cfg = make_config(strategy=builtin_strategy(name), g=g,
                          source=GaussianWavePacket(0.0, sigma_p),
                          detection=detection, n_nodes=24)
        t = default_t_grid(g)[[0, 40, -1]]
        scan = t_scan(cfg, t)
        direct = [direct_p_sum(cfg, T) for T in t]
        assert np.max(np.abs(scan.p_sum - direct)) < 1e-7

    def test_wider_ladder_scan(self):
        cfg = make_config(strategy=builtin_strategy("ds_dbd"), n_max=3,
                          n_nodes=8)
        T = default_t_grid(G_SMALL)[50]
        scan = t_scan(cfg, np.array([T]))
        assert abs(scan.p_sum[0] - direct_p_sum(cfg, T)) < 1e-7

    def test_resolved_wide_ladder_scan(self):
        # the extra orders shift the resolved fringe only slightly
        g = 2 * G_SMALL
        t = default_t_grid(g)[::10]
        cfg = make_config(strategy=builtin_strategy("ds_dbd"), g=g,
                          detection="resolved", n_nodes=24)
        narrow = t_scan(cfg, t)
        wide = t_scan(make_config(**{**cfg.__dict__, "n_max": 3}), t)
        assert np.max(np.abs(wide.p_sum - narrow.p_sum)) < 1e-3

    def test_result_independent_of_scan_composition(self):
        cfg = make_config(strategy=builtin_strategy("oct_hybrid"),
                          source=GaussianWavePacket(0.0, 0.132), n_nodes=16)
        t = default_t_grid(G_SMALL)
        full = t_scan(cfg, t)
        sub = t_scan(cfg, t[10:60:7])
        for a, b in ((full.p1, sub.p1), (full.p2, sub.p2), (full.p3, sub.p3)):
            assert np.array_equal(a[10:60:7], b)
        again = t_scan(cfg, t)
        assert np.array_equal(full.p_sum, again.p_sum)
        assert np.array_equal(full.p1, again.p1)

    @pytest.mark.parametrize("width", [1, 5, 16])
    def test_solved_rows_independent_of_blocks(self, monkeypatch, width):
        # the surrogates are interpolated block by block; a row comes
        # out the same from blocks of any width, a lone T row included
        cfg = make_config(strategy=builtin_strategy("ds_dbd"), n_nodes=24)
        t = default_t_grid(G_SMALL)[::4]
        full = t_scan(cfg, t)
        monkeypatch.setattr(interferometer, "_BLOCK_PAIRS", width * 24)
        for part in (slice(None), slice(7, 8)):
            sub = t_scan(cfg, t[part])
            for a, b in ((full.p1, sub.p1), (full.p2, sub.p2),
                         (full.p3, sub.p3)):
                assert np.array_equal(a[part], b)

    @pytest.mark.parametrize("n_max", [2, 3])
    def test_negative_nodes_are_reflections(self, n_max):
        # U(-p) = R U(p) R, R swapping the bare ports |p+2n> and |p-2n>
        cfg = make_config(strategy=builtin_strategy("ds_dbd"), n_max=n_max,
                          epsilon=0.1)
        nodes, values, _ = interferometer._surrogate_matrices(
            cfg.strategy.bs, "splitter", cfg)
        big_n = nodes.size - 1
        r = np.arange(2 * n_max + 1)
        r[1:] = np.stack((r[2::2], r[1::2]), axis=1).ravel()
        assert nodes[0] == 1.0 and nodes[big_n // 2] == 0.0
        for k in range(big_n // 2):
            assert nodes[big_n - k] == -nodes[k]
            assert np.array_equal(values[big_n - k],
                                  values[k][np.ix_(r, r)])

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    @pytest.mark.parametrize("n_max", [2, 3])
    @pytest.mark.parametrize("name, pulse", [
        ("ds_dbd", "bs"), ("ds_dbd", "mirror"), ("oct_hybrid", "mirror")])
    def test_folded_surrogate_matches_direct_solves(self, name, pulse,
                                                    n_max, epsilon):
        # (oct_hybrid's splitter is ds_dbd's)
        cfg = make_config(strategy=builtin_strategy(name), n_max=n_max,
                          epsilon=epsilon)
        env, protocol = getattr(cfg.strategy, pulse)
        nodes, values, _ = interferometer._surrogate_matrices(
            (env, protocol), pulse, cfg)
        p = np.array([0.013, 0.1234, 0.5, 0.87, 0.999])
        p = np.concatenate((p, -p))
        direct = propagate_unitaries(p, env, protocol, epsilon, n_max=n_max,
                                     rtol=cfg.rtol)
        interp = interferometer._barycentric(nodes, values, p)
        assert np.max(np.abs(interp - direct)) < 1e-8

    def test_one_half_solve_per_pulse(self, monkeypatch):
        # the surrogates solve only the p >= 0 half of the zone's
        # Chebyshev points, in one call per pulse whatever the T grid
        calls = []

        def recording(p, *args, **kwargs):
            calls.append(np.array(p))
            return propagate_unitaries(p, *args, **kwargs)

        monkeypatch.setattr(interferometer, "propagate_unitaries", recording)
        cfg = make_config(strategy=builtin_strategy("oct_hybrid"),
                          source=GaussianWavePacket(0.0, 0.132), n_nodes=16)
        scan = t_scan(cfg, default_t_grid(G_SMALL))
        assert len(calls) == 2
        for p, fit in zip(calls, scan.surrogates):
            assert p.shape == ((fit.nodes + 1) // 2,)
            assert p.min() == 0.0 and p.max() == 1.0

    def test_diagnostics_recorded(self):
        scan = t_scan(make_config(n_nodes=8), default_t_grid(G_SMALL)[::20])
        assert [fit.pulse for fit in scan.surrogates] == ["splitter",
                                                          "mirror"]
        for fit in scan.surrogates:
            assert fit.nodes == interferometer._FIRST_DEGREE + 1
            assert 0.0 <= fit.tail <= scan.config.rtol
            assert 0.0 < fit.unitarity <= 100 * scan.config.rtol

    @pytest.mark.parametrize("n", [8, 63, 64, 128, 129, 256, 512])
    def test_dct1_is_scipys(self, n):
        # the tail's DCT-I, numpy's rfft of the even extension, is the
        # transform scipy.fft.dct(type=1) runs, bit for bit
        from scipy import fft
        cols = np.random.default_rng(n).standard_normal((n + 1, 50))
        assert np.array_equal(interferometer._dct1(cols),
                              fft.dct(cols, type=1, axis=0))

    def test_unconverged_surrogate_raises(self, monkeypatch):
        monkeypatch.setattr(interferometer, "_FIRST_DEGREE", 8)
        monkeypatch.setattr(interferometer, "_MAX_DEGREE", 16)
        cfg = make_config(strategy=builtin_strategy("ds_dbd"), n_nodes=8)
        with pytest.raises(IntegratorFailure, match="splitter surrogate"):
            t_scan(cfg, default_t_grid(G_SMALL)[::20])


class TestContrast:
    def test_no_fringe_without_acceleration(self):
        cfg = make_config(g=0.0)
        scan = t_scan(cfg, np.linspace(5.0, 60.0, 40))
        with pytest.raises(NoExtremaFound):
            extract_contrast(scan)

    def test_short_scan_rejected(self):
        cfg = make_config(strategy=IDEAL)
        t = default_t_grid(G_SMALL)
        with pytest.raises(NoExtremaFound):
            extract_contrast(t_scan(cfg, t[:4]))
        with pytest.raises(NoExtremaFound):
            extract_contrast(t_scan(cfg, t[: t.size // 3]))

    def test_flat_signal_rejected(self):
        cfg = make_config()
        t = default_t_grid(G_SMALL)
        flat = np.full(t.size, 0.25)
        scan = FringeScan(t, 1.0 - 2 * flat, flat, flat, cfg)
        with pytest.raises(NoExtremaFound):
            extract_contrast(scan)

    def test_synthetic_fringe_recovered(self):
        cfg = make_config()
        t = default_t_grid(G_SMALL)
        x = 4.0 * G_SMALL * t**2
        sig = 0.5 - 0.37 * np.cos(x)
        scan = FringeScan(t, 1.0 - sig, 0.5 * sig, 0.5 * sig, cfg)
        res = extract_contrast(scan)
        assert res.contrast == pytest.approx(0.74, abs=1e-3)
        assert 4.0 * G_SMALL * res.t_max**2 == pytest.approx(math.pi,
                                                             abs=1e-2)

    def test_crest_before_the_scan_start(self):
        # x = 4gT^2 runs from 5.0 to 11.5: the fit's crest at pi lies
        # before the scan, so the first crest in it is 3 pi, and the
        # trough pi after that is past the end, so it is 2 pi
        t = np.linspace(59.2, 89.7, 200)
        res = extract_contrast(t_scan(make_config(strategy=IDEAL), t))
        assert res.contrast == pytest.approx(1.0, abs=1e-6)
        assert 4.0 * G_SMALL * res.t_max**2 == pytest.approx(3 * math.pi,
                                                             abs=1e-6)
        assert 4.0 * G_SMALL * res.t_min**2 == pytest.approx(2 * math.pi,
                                                             abs=1e-6)

    def test_parabolic_vertex_on_nonuniform_grid(self):
        x = np.array([1.0, 1.07, 1.3])
        y = 0.5 - 2.0 * (x - 1.13) ** 2
        xv, yv = interferometer._parabolic_refine(x, y, 1, +1)
        assert abs(xv - 1.13) <= 1e-12 and abs(yv - 0.5) <= 1e-12

    def test_off_grid_fringe_extrema(self):
        # the grid is uniform in x but the crest falls between its points
        cfg = make_config()
        t = default_t_grid(G_SMALL)
        x = 4.0 * G_SMALL * t**2
        sig = 0.5 - 0.37 * np.cos(x - 0.3)
        res = extract_contrast(FringeScan(t, 1.0 - sig, 0.5 * sig,
                                          0.5 * sig, cfg))
        assert abs(res.contrast - 0.74) <= 1e-6
        assert abs(4.0 * G_SMALL * res.t_max**2 - (math.pi + 0.3)) <= 1e-4

    def test_fit_residual(self):
        t = default_t_grid(G_SMALL)
        ideal = extract_contrast(t_scan(make_config(strategy=IDEAL), t))
        assert ideal.fit_residual < 1e-10
        solved = extract_contrast(t_scan(
            make_config(strategy=builtin_strategy("ds_dbd"), n_nodes=8), t))
        assert math.isfinite(solved.fit_residual)
        assert solved.fit_residual > 0.0

    def test_fit_recovers_frequency(self):
        cfg = make_config(strategy=IDEAL)
        scan = t_scan(cfg, default_t_grid(G_SMALL))
        fit = fit_fringe(scan)
        assert fit.frequency == pytest.approx(4.0 * G_SMALL, rel=1e-6)
        assert fit.amplitude == pytest.approx(0.5, abs=1e-6)
        assert fit.offset == pytest.approx(0.5, abs=1e-6)
        assert fit.phase == pytest.approx(math.pi, abs=1e-6)


class TestFluctuations:
    def test_validation(self):
        cfg = make_config()
        with pytest.raises(ValueError):
            fluctuation_robustness(cfg, -0.01)
        with pytest.raises(ValueError):
            fluctuation_robustness(cfg, 0.03, n_shots=1)

    @pytest.mark.parametrize("sigma_r", [math.nan, math.inf])
    def test_non_finite_spread_refused(self, sigma_r):
        with pytest.raises(ValueError, match="sigma_r"):
            fluctuation_robustness(make_config(), sigma_r)

    def test_non_positive_scale_refused_before_any_solve(self, monkeypatch):
        # seed 0 draws a scale <= 0 at sigma_r = 0.5 in a later shot
        def refuse(*args, **kwargs):
            raise AssertionError("every scale is drawn before a solve")
        monkeypatch.setattr(interferometer, "t_scan", refuse)
        with pytest.raises(ValueError, match="sigma_r = 0.5 .* shot [1-9]"):
            fluctuation_robustness(make_config(), 0.5, seed=0)

    def test_deterministic_and_degenerate_at_zero_noise(self):
        cfg = make_config(n_nodes=16)
        t = default_t_grid(G_SMALL)[::6]
        a = fluctuation_robustness(cfg, 0.0, n_shots=3, seed=5, t_grid=t)
        b = fluctuation_robustness(cfg, 0.0, n_shots=3, seed=5, t_grid=t)
        assert a.contrasts == b.contrasts
        assert a.std == 0.0

    def test_statistics_match_numpy_reductions(self):
        cfg = make_config(n_nodes=16)
        t = default_t_grid(G_SMALL)[::6]
        flat = fluctuation_robustness(cfg, 0.0, n_shots=3, seed=5, t_grid=t)
        assert flat.mean == flat.contrasts[0]
        noisy = fluctuation_robustness(cfg, 0.03, n_shots=3, seed=5,
                                       t_grid=t)
        assert noisy.std > 0.0
        assert abs(noisy.mean - np.mean(noisy.contrasts)) <= 1e-15
        assert abs(noisy.std - np.std(noisy.contrasts)) <= 1e-15


class TestGridOracle:
    def test_ports_match_s_matrix_pipeline(self):
        cfg = make_config(n_nodes=32)
        t = np.array([30.0, 46.0])
        reference = t_scan(cfg, t)
        oracle = oracle_fringe(cfg, t)
        assert np.max(np.abs(oracle.p_sum - reference.p_sum)) < 2e-2
        assert np.max(np.abs(oracle.p1 - reference.p1)) < 2e-2

    @pytest.mark.parametrize("name", ["c_dbd", "ds_dbd", "oct_hybrid"])
    def test_resolved_detection_is_the_model_rule(self, name):
        # the oracle keeps the same port-reversing mirror paths as t_scan
        cfg = make_config(strategy=builtin_strategy(name), n_nodes=32,
                          detection="resolved")
        t = np.array([30.0, 46.0])
        reference = t_scan(cfg, t)
        oracle = oracle_fringe(cfg, t)
        assert np.max(np.abs(oracle.p_sum - reference.p_sum)) <= 1e-3

    def test_ideal_strategy_is_refused(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ideal pulses must be refused first")

        monkeypatch.setattr(interferometer.grid_mod, "split_step_pulse",
                            refuse)
        cfg = make_config(n_nodes=8, strategy=IDEAL)
        with pytest.raises(ValueError, match="ideal has no pulses"):
            oracle_fringe(cfg, [20.0, 40.0])

    @pytest.mark.parametrize("t_grid", [[], [10.0, math.nan], [40.0, 20.0]],
                             ids=["empty", "nan", "descending"])
    def test_refuses_the_grids_t_scan_refuses(self, monkeypatch, t_grid):
        def refuse(*args, **kwargs):
            raise AssertionError("a refused grid must stop the scan first")

        monkeypatch.setattr(interferometer.grid_mod, "split_step_pulse",
                            refuse)
        monkeypatch.setattr(interferometer, "propagate_unitaries", refuse)
        cfg = make_config(n_nodes=8)
        for scan in (t_scan, oracle_fringe):
            with pytest.raises(ValueError, match="t_grid must be non-empty"):
                scan(cfg, t_grid)
