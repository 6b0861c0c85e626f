import math
from dataclasses import fields, replace

import numpy as np
import pytest

from dbdsim import grid as grid_mod
from dbdsim.exceptions import (IntegratorFailure, ResolutionError,
                               SpectralOverflow)
from dbdsim.grid import (
    GridSpec,
    GridState,
    free_propagate_analytic,
    momentum_histogram,
    node_wavepacket,
    prepare_wavepacket,
    split_step_pulse,
)
from dbdsim.interferometer import _detected_mirror
from dbdsim.strategies import BUILTIN_NAMES, builtin_strategy
from dbdsim.units import (ConstantDetuning, GaussianWavePacket, PulseEnvelope,
                          carrier_factor)

from checks import momentum_centroid, momentum_variance

FLAT = ConstantDetuning(0.0)
SMALL = GridSpec(2048)


def plane_wave(spec, k):
    """Unit-norm plane wave on the spectral bin at momentum k."""
    order, rest = divmod(k, 2.0)
    amp = np.zeros((spec.cells, spec.orders.size), dtype=complex)
    amp[round(rest / spec.dk), int(order)] = 1.0
    return GridState(spec, np.arange(spec.cells) * spec.dk, amp)


def pulse_drive(spec, env, protocol, epsilon=0.0):
    """Step h and the midpoint drive 2 Omega (C + eps) of every step."""
    t0, t1 = env.support
    n_steps = max(1, math.ceil((t1 - t0) / spec.dt))
    h = (t1 - t0) / n_steps
    t_mid = t0 + (np.arange(n_steps) + 0.5) * h
    return h, 2.0 * env.evaluate(t_mid) * (
        carrier_factor(t_mid, protocol.evaluate(t_mid), 0.0) + epsilon)


def full_grid_pulse(state, env, protocol, epsilon=0.0):
    """Reference: Strang steps with full-size FFTs over the whole grid.

    state must hold one ladder per bin class (prepare_wavepacket or
    plane_wave, possibly boosted); bin j = order * cells + class.
    """
    spec = state.spec
    n = spec.n_points
    h, coeff = pulse_drive(spec, env, protocol, epsilon)
    n_steps = coeff.size
    p = state.momenta().T.ravel()
    kin_half = np.exp(-0.5j * p**2 * h)
    kin_full = kin_half * kin_half
    cos2z = np.cos(2.0 * (np.arange(n) - n // 2) * (spec.length / n))
    psi = np.fft.ifft(state.amp.T.ravel() * kin_half)
    for j in range(n_steps):
        psi *= np.exp(-1j * (coeff[j] * h) * cos2z)
        if j < n_steps - 1:
            psi = np.fft.ifft(np.fft.fft(psi) * kin_full)
    amp = (np.fft.fft(psi) * kin_half).reshape(-1, spec.cells).T
    return GridState(spec, state.q, amp)


def fft_pair_steps(a, p, coeff, h):
    """Reference: the ladder kernel as one ifft, phase, fft round trip
    per Strang step on the m orders of a[row, cyclic order]."""
    m = a.shape[1]
    kin_half = np.exp(-0.5j * p**2 * h)
    cos2z = np.cos(2.0 * math.pi * np.arange(m) / m)
    a = a * kin_half.conj()
    for c in coeff:
        b = np.fft.ifft(a * kin_half**2, axis=1)
        a = np.fft.fft(b * np.exp(-1j * h * c * cos2z), axis=1)
    return a * kin_half


def lifted_nodes(spec, sigma_p, lift):
    """A packet at rest on its 64 quadrature nodes, every q moved by lift
    (2 for a mirror's input in port +1)."""
    state = node_wavepacket(spec, GaussianWavePacket(0.0, sigma_p), 64)
    return replace(state, q=state.q + lift)


def width_spy(monkeypatch):
    """Record the ladder width of every _ladder_steps pass."""
    widths = []
    steps = grid_mod._ladder_steps

    def spy(a, *args):
        widths.append(a.shape[1])
        return steps(a, *args)

    monkeypatch.setattr(grid_mod, "_ladder_steps", spy)
    return widths


def assert_same_pulse(state, env, protocol, epsilon):
    out = split_step_pulse(state, env, protocol, epsilon)
    ref = full_grid_pulse(state, env, protocol, epsilon)
    scale = np.max(np.abs(ref.amp))
    assert np.max(np.abs(out.amp - ref.amp)) <= 1e-10 * scale
    ports, ref_ports = momentum_histogram(out), momentum_histogram(ref)
    for k, value in ref_ports.populations.items():
        assert ports.populations[k] == pytest.approx(value, abs=1e-11)


class TestSpec:
    def test_defaults(self):
        spec = GridSpec()
        assert [f.name for f in fields(GridSpec)] == ["n_points"]
        assert spec.n_points == 8192
        assert (spec.length, spec.dt) == (64.0 * math.pi, 0.001)
        assert spec.dk == pytest.approx(1.0 / 32.0)
        assert 2.0 * np.max(np.abs(spec.orders)) == 128.0  # momentum cutoff

    def test_power_of_two(self):
        with pytest.raises(ValueError):
            GridSpec(3000)

    def test_grids(self):
        k = SMALL.orders
        assert k.size == 32
        assert list(k[:2]) == [0.0, 1.0] and list(k[-2:]) == [-2.0, -1.0]
        assert k[16] == -16.0
        state = prepare_wavepacket(SMALL, GaussianWavePacket(0.0, 0.05))
        assert state.q.size == SMALL.cells
        assert state.q[1] == pytest.approx(SMALL.dk)
        assert state.momenta()[3, -1] == pytest.approx(3 * SMALL.dk - 2.0)


class TestPreparation:
    def test_norm_and_moments(self):
        state = prepare_wavepacket(SMALL, GaussianWavePacket(0.1, 0.05))
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert momentum_centroid(state) == pytest.approx(0.1, abs=1e-9)
        assert momentum_variance(state) == pytest.approx(0.05**2, rel=1e-6)

    def test_too_narrow_for_box(self):
        with pytest.raises(ResolutionError):
            prepare_wavepacket(SMALL, GaussianWavePacket(0.0, 0.005))

    def test_offset_boost_relabels_ports(self):
        base = prepare_wavepacket(SMALL, GaussianWavePacket(0.0, 0.05))
        boosted = replace(base, q=base.q + 2.0)
        hist = momentum_histogram(boosted)
        assert hist.populations[1] == pytest.approx(1.0, abs=1e-9)


class TestNodePacket:
    def test_norm_and_centroid_of_narrow_packet(self):
        # narrower than prepare_wavepacket accepts for this box
        state = node_wavepacket(SMALL, GaussianWavePacket(0.1, 0.005), 16)
        assert state.q.size == 16
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert momentum_centroid(state) == pytest.approx(0.1, abs=1e-9)

    @pytest.mark.parametrize("pulse", ["bs", "mirror"])
    @pytest.mark.parametrize("name", ["ds_dbd", "c_dbd"])
    def test_quadrature_converged(self, name, pulse):
        # the oracle shares the model's nodes; doubling them changes nothing
        env, protocol = getattr(builtin_strategy(name), pulse)
        ports = []
        for n_nodes in (64, 128):
            state = node_wavepacket(GridSpec(), GaussianWavePacket(0.0, 0.05),
                                    n_nodes)
            if pulse == "mirror":
                state = replace(state, q=state.q + 2.0)
            hist = momentum_histogram(split_step_pulse(state, env, protocol))
            ports.append([hist.populations[k] for k in range(-2, 3)])
        assert np.max(np.abs(np.subtract(*ports))) <= 1e-10


class TestHistogram:
    def test_packet_sits_in_central_port(self):
        state = prepare_wavepacket(SMALL, GaussianWavePacket(0.3, 0.05))
        hist = momentum_histogram(state)
        assert hist.populations[0] == pytest.approx(1.0, abs=1e-9)
        total = sum(hist.populations.values()) + hist.residual
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_half_open_edges(self):
        # a spectral line exactly on p = +1 belongs to port +1, not 0
        hist = momentum_histogram(plane_wave(SMALL, 1.0))
        assert hist.populations[1] == pytest.approx(1.0, abs=1e-12)
        assert hist.populations[0] == pytest.approx(0.0, abs=1e-12)

    def test_residual_catches_outside_band(self):
        hist = momentum_histogram(plane_wave(SMALL, 13.0))  # port 7
        assert hist.residual == pytest.approx(1.0, abs=1e-12)
        assert sum(hist.populations.values()) == pytest.approx(0.0,
                                                               abs=1e-12)

    @pytest.mark.parametrize("p0", [math.nan, math.inf])
    def test_non_finite_center_refused(self, p0):
        # not a histogram with the whole norm in the residual
        state = prepare_wavepacket(SMALL, GaussianWavePacket(0.0, 0.05))
        with pytest.raises(ValueError, match="finite"):
            momentum_histogram(state, p0)


class TestSplitStep:
    def test_norm_drift_over_many_steps(self):
        state = prepare_wavepacket(SMALL, GaussianWavePacket(0.0, 0.05))
        pulse = PulseEnvelope("box", 2.0, 2.0)  # 2000 steps
        out = split_step_pulse(state, pulse, FLAT)
        assert abs(out.norm() - 1.0) < 1e-11

    def test_null_pulse_is_free_evolution(self):
        state = prepare_wavepacket(SMALL, GaussianWavePacket(0.05, 0.05))
        null = PulseEnvelope("box", 0.0, 0.5)
        via_pulse = split_step_pulse(state, null, FLAT)
        via_free = free_propagate_analytic(state, 0.0, 0.5)
        assert np.max(np.abs(via_pulse.amp - via_free.amp)) < 1e-12

    def test_symmetric_splitting_at_rest(self):
        state = prepare_wavepacket(SMALL, GaussianWavePacket(0.0, 0.05))
        pulse = PulseEnvelope("gaussian", 2.0, 0.47)
        hist = momentum_histogram(split_step_pulse(state, pulse, FLAT))
        assert hist.populations[1] == pytest.approx(hist.populations[-1],
                                                    abs=1e-6)
        assert hist.populations[1] > 0.3


class TestLadderKernel:
    @pytest.mark.parametrize("n_points", [1024, 2048, 4096])
    @pytest.mark.parametrize("shape", ["gaussian", "box"])
    def test_matches_full_grid_loop(self, n_points, shape):
        spec = GridSpec(n_points)
        state = prepare_wavepacket(spec, GaussianWavePacket(0.02, 0.05))
        boosted = replace(state, q=state.q + 2.0)  # mirror input
        env = PulseEnvelope(shape, 2.0, 0.47 if shape == "gaussian" else 0.4)
        assert_same_pulse(boosted, env, ConstantDetuning(0.3), 0.05)

    def test_far_plane_wave_widens_the_ladder(self, monkeypatch):
        widths = width_spy(monkeypatch)
        # order 20 lies outside the first 24 orders of a 64-order ladder,
        # and within the next 48
        assert_same_pulse(plane_wave(GridSpec(4096), 40.0),
                          PulseEnvelope("box", 1.0, 0.3),
                          ConstantDetuning(0.3), 0.05)
        assert widths == [48, 64]

    @pytest.mark.parametrize("n_points, k, omega, expected", [
        (2048, 20.0, 1.0, [24, 32]),
        (4096, 22.0, 50.0, [24, 48, 64]),
    ])
    def test_growth_is_capped_at_the_ladder(self, monkeypatch, n_points, k,
                                            omega, expected):
        # the plane wave starts inside the first 24 orders and spreads to
        # their edge; doubling past the ladder would overlap its halves
        widths = width_spy(monkeypatch)
        assert_same_pulse(plane_wave(GridSpec(n_points), k),
                          PulseEnvelope("box", omega, 0.3),
                          ConstantDetuning(0.3), 0.05)
        assert widths == expected

    @pytest.mark.parametrize("sigma_p", [0.01, 0.132])
    def test_builtin_pulses_take_one_pass_at_24(self, monkeypatch, sigma_p):
        widths = width_spy(monkeypatch)
        at_rest = lifted_nodes(GridSpec(), sigma_p, 0.0)
        lifted = lifted_nodes(GridSpec(), sigma_p, 2.0)
        for name in BUILTIN_NAMES:
            strat = builtin_strategy(name)
            split_step_pulse(at_rest, *strat.bs)
            split_step_pulse(lifted, *strat.mirror)
        assert widths == [24] * 2 * len(BUILTIN_NAMES)

    @pytest.mark.parametrize("m", [16, 24, 64])
    def test_matches_the_fft_pair_loop(self, m):
        spec = GridSpec()
        env, protocol = builtin_strategy("ds_dbd").mirror
        state = lifted_nodes(spec, 0.05, 2.0)
        n = spec.orders.size
        kept = np.r_[:m // 2, n - m // 2:n]
        a, p = state.amp[:, kept], state.momenta()[:, kept]
        h, coeff = pulse_drive(spec, env, protocol, 0.01)
        out, _ = grid_mod._ladder_steps(a, p, coeff, h, math.inf)
        ref = fft_pair_steps(a, p, coeff, h)
        assert np.max(np.abs(out - ref)) <= 1e-12

    def test_rows_do_not_depend_on_the_batch(self, monkeypatch):
        passes = []
        steps = grid_mod._ladder_steps

        def spy(a, p, *args):
            result = steps(a, p, *args)
            passes.append((a, p, args, result[0]))
            return result

        monkeypatch.setattr(grid_mod, "_ladder_steps", spy)
        strat = builtin_strategy("ds_dbd")
        state = lifted_nodes(GridSpec(), 0.05, 0.0)
        g, T = 0.000357, 46.0
        state = free_propagate_analytic(split_step_pulse(state, *strat.bs),
                                        g, T)
        _detected_mirror(state, strat.mirror, 0.0, 0.5 * g * T)
        (a, p, args, out), (sa, sp, sargs, stacked) = passes
        assert a.shape == (64, 24) and sa.shape == (7 * 64, 24)
        halves = [steps(a[r], p[r], *args)[0]
                  for r in (slice(None, 32), slice(32, None))]
        assert np.array_equal(out, np.concatenate(halves))
        for r in range(0, sa.shape[0], 64):
            alone = steps(sa[r:r + 64], sp[r:r + 64], *sargs)[0]
            assert np.array_equal(stacked[r:r + 64], alone)

    @pytest.mark.parametrize("epsilon, amp0", [
        (math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan)],
        ids=["epsilon=nan", "epsilon=inf", "nan-amplitude"])
    def test_non_finite_drive_or_norm_fails(self, epsilon, amp0):
        # the same class propagate_unitaries raises: numerical, exit 3
        state = node_wavepacket(SMALL, GaussianWavePacket(0.0, 0.05), 4)
        state.amp[0, 0] *= amp0
        with pytest.raises(IntegratorFailure, match="non-finite"):
            split_step_pulse(state, *builtin_strategy("ds_dbd").bs,
                             epsilon=epsilon)

    def test_edge_population_overflows(self):
        spec = GridSpec(1024)
        with pytest.raises(SpectralOverflow):
            split_step_pulse(plane_wave(spec, 15.0),
                             PulseEnvelope("box", 1.0, 0.3), FLAT)


class TestFreeFall:
    def test_offset_and_centroid_shift(self):
        state = prepare_wavepacket(SMALL, GaussianWavePacket(0.0, 0.05))
        g, T = 0.001, 30.0
        out = free_propagate_analytic(state, g, T)
        assert out.q == pytest.approx(state.q + 0.5 * g * T)
        assert momentum_centroid(out) == pytest.approx(0.5 * g * T,
                                                        abs=1e-9)

    def test_negative_time_rejected(self):
        state = prepare_wavepacket(SMALL, GaussianWavePacket(0.0, 0.05))
        with pytest.raises(ValueError):
            free_propagate_analytic(state, 0.0, -1.0)

    def test_band_edge_guard(self):
        edgy = plane_wave(SMALL, 31.5)  # cutoff is 32
        with pytest.raises(SpectralOverflow):
            free_propagate_analytic(edgy, 0.0, 1.0)
