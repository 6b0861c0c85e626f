import math
from dataclasses import replace

import numpy as np
import pytest

from dbdsim import grid as grid_mod
from dbdsim.exceptions import ResolutionError, SpectralOverflow
from dbdsim.grid import (
    GridSpec,
    GridState,
    free_propagate_analytic,
    momentum_histogram,
    node_wavepacket,
    prepare_wavepacket,
    split_step_pulse,
)
from dbdsim.strategies import builtin_strategy
from dbdsim.units import (ConstantDetuning, GaussianWavePacket, PulseEnvelope,
                          carrier_factor)

from checks import momentum_centroid, momentum_variance

FLAT = ConstantDetuning(0.0)
SMALL = GridSpec(2048, 64.0 * math.pi, 0.001)


def plane_wave(spec, k):
    """Unit-norm plane wave on the spectral bin at momentum k."""
    order, rest = divmod(k, 2.0)
    amp = np.zeros((spec.cells, spec.orders.size), dtype=complex)
    amp[round(rest / spec.dk), int(order)] = 1.0
    return GridState(spec, np.arange(spec.cells) * spec.dk, amp)


def full_grid_pulse(state, env, protocol, epsilon=0.0):
    """Reference: Strang steps with full-size FFTs over the whole grid.

    state must hold one ladder per bin class (prepare_wavepacket or
    plane_wave, possibly boosted); bin j = order * cells + class.
    """
    spec = state.spec
    n = spec.n_points
    t0, t1 = env.support
    n_steps = max(1, math.ceil((t1 - t0) / spec.dt))
    h = (t1 - t0) / n_steps
    t_mid = t0 + (np.arange(n_steps) + 0.5) * h
    coeff = 2.0 * env.evaluate(t_mid) * (
        carrier_factor(t_mid, protocol.evaluate(t_mid), 0.0) + epsilon)
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
    return GridState(spec, state.q, amp, t1)


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
        assert spec.n_points == 8192
        assert spec.dk == pytest.approx(1.0 / 32.0)
        assert spec.k_cutoff == pytest.approx(128.0)

    def test_power_of_two(self):
        with pytest.raises(ValueError):
            GridSpec(3000, 64.0 * math.pi)

    def test_length_periodicity(self):
        with pytest.raises(ValueError):
            GridSpec(2048, 100.0)

    def test_coarse_bins_rejected(self):
        with pytest.raises(ResolutionError):
            GridSpec(2048, 32.0 * math.pi)  # dk = 1/16

    def test_cells_must_divide_points(self):
        with pytest.raises(ValueError):
            GridSpec(2048, 96.0 * math.pi)  # 96 lattice periods

    def test_low_cutoff_rejected(self):
        with pytest.raises(ResolutionError):
            GridSpec(1024, 128.0 * math.pi)  # cutoff = 8

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
        assert hist.total() == pytest.approx(1.0, abs=1e-12)

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

    def test_step_cap_enforced(self):
        coarse = GridSpec(2048, 64.0 * math.pi, 0.005)
        state = prepare_wavepacket(coarse, GaussianWavePacket(0.0, 0.05))
        with pytest.raises(ValueError):
            split_step_pulse(state, PulseEnvelope("box", 1.0, 0.5), FLAT)

    def test_degenerate_window(self):
        state = prepare_wavepacket(SMALL, GaussianWavePacket(0.0, 0.05))
        with pytest.raises(ValueError):
            split_step_pulse(state, PulseEnvelope("box", 1.0, 0.5), FLAT,
                             window=(1.0, 1.0))

    def test_clock_advances_to_window_end(self):
        state = prepare_wavepacket(SMALL, GaussianWavePacket(0.0, 0.05))
        out = split_step_pulse(state, PulseEnvelope("box", 1.0, 0.25), FLAT)
        assert out.time == pytest.approx(0.25)


class TestLadderKernel:
    @pytest.mark.parametrize("n_points", [1024, 2048, 4096])
    @pytest.mark.parametrize("shape", ["gaussian", "box"])
    def test_matches_full_grid_loop(self, n_points, shape):
        spec = GridSpec(n_points, 64.0 * math.pi, 0.001)
        state = prepare_wavepacket(spec, GaussianWavePacket(0.02, 0.05))
        boosted = replace(state, q=state.q + 2.0)  # mirror input
        env = PulseEnvelope(shape, 2.0, 0.47 if shape == "gaussian" else 0.4)
        assert_same_pulse(boosted, env, ConstantDetuning(0.3), 0.05)

    def test_far_plane_wave_widens_the_ladder(self, monkeypatch):
        widths = []
        steps = grid_mod._ladder_steps

        def spy(a, *args):
            widths.append(a.shape[1])
            return steps(a, *args)

        monkeypatch.setattr(grid_mod, "_ladder_steps", spy)
        # order 20 lies outside the first 32 orders of a 64-order ladder
        assert_same_pulse(plane_wave(GridSpec(4096, 64.0 * math.pi), 40.0),
                          PulseEnvelope("box", 1.0, 0.3),
                          ConstantDetuning(0.3), 0.05)
        assert widths == [64]

    def test_edge_population_overflows(self):
        spec = GridSpec(1024, 64.0 * math.pi, 0.001)
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
        assert out.time == pytest.approx(T)

    def test_negative_time_rejected(self):
        state = prepare_wavepacket(SMALL, GaussianWavePacket(0.0, 0.05))
        with pytest.raises(ValueError):
            free_propagate_analytic(state, 0.0, -1.0)

    def test_band_edge_guard(self):
        edgy = plane_wave(SMALL, 31.5)  # cutoff is 32
        with pytest.raises(SpectralOverflow):
            free_propagate_analytic(edgy, 0.0, 1.0)
