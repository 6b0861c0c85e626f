import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from dbdsim import tls
from dbdsim.exceptions import IntegratorFailure, PoleProximity
from dbdsim.tls import (
    TlsState,
    ac_stark_coefficients,
    differential_detuning,
    evolve_tls,
    pulse_area_probability,
    rwa_hamiltonian,
    rwa_probability,
    tls_hamiltonian,
)
from dbdsim.units import ConstantDetuning, LinearDetuning, PulseEnvelope


def box(omega, tau):
    return PulseEnvelope("box", omega, tau)


def flat(delta=0.0):
    return ConstantDetuning(delta)


class TestHamiltonian:
    def test_ground_shift_vanishes_without_polarization_error(self):
        env = box(2.0, 1.0)
        for t in (0.0, 0.3, 0.9):
            h = tls_hamiltonian(t, env, flat(), 0.0)
            assert h[0, 0] == 0.0

    def test_excited_shift_value(self):
        h = tls_hamiltonian(0.2, box(2.0, 1.0), flat(), 0.0)
        assert h[1, 1].real == pytest.approx(-0.1875, abs=1e-15)

    def test_ground_shift_with_polarization_error(self):
        h = tls_hamiltonian(0.2, box(2.0, 1.0), flat(), 0.1)
        assert h[0, 0].real == pytest.approx(0.08, rel=1e-12)

    def test_coupling_at_t0(self):
        # all three phase factors equal 1 at t=0
        h = tls_hamiltonian(0.0, box(2.0, 1.0), flat(0.3), 0.05)
        expected = (math.sqrt(2) / 2) * 2.0 * (1 + 1 + 2 * 0.05)
        assert h[0, 1] == pytest.approx(expected)

    @given(st.floats(0.0, 5.0), st.floats(0.1, 3.0), st.floats(-2.0, 2.0),
           st.floats(0.0, 0.3))
    @settings(max_examples=60)
    def test_hermitian(self, t, omega, delta, eps):
        h = tls_hamiltonian(t, box(omega, 5.0), flat(delta), eps)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-14

    def test_times_of_any_shape(self):
        env = PulseEnvelope("gaussian", 2.0, 0.47)
        prot = LinearDetuning(0.37, 0.315, width=0.47)
        t = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
        h = tls_hamiltonian(t, env, prot, 0.05)
        assert h.shape == (3, 4, 2, 2)
        for idx in np.ndindex(t.shape):
            alone = tls_hamiltonian(t[idx], env, prot, 0.05)
            assert alone.shape == (2, 2)
            assert np.array_equal(alone, h[idx])


class TestEvolve:
    def test_null_pulse_keeps_state(self):
        final = evolve_tls(TlsState(1.0, 0.0), box(0.0, 1.0),
                           ConstantDetuning(0.0))
        assert abs(abs(final.c0) - 1.0) < 1e-12
        assert abs(final.c1) < 1e-12

    def test_norm_drift(self):
        final = evolve_tls(TlsState(1.0, 0.0), box(2.0, 20.0),
                           ConstantDetuning(0.0))
        assert abs(abs(final.c0) ** 2 + abs(final.c1) ** 2 - 1.0) < 1e-9

    def test_gaussian_first_maximum_near_half_tau(self):
        # transfer vs width peaks around tau ~ 0.45-0.47 for a peak
        # Rabi frequency of 2
        taus = np.linspace(0.3, 0.6, 31)
        envs = [PulseEnvelope("gaussian", 2.0, float(tau)) for tau in taus]
        finals = evolve_tls(TlsState(1.0, 0.0), envs,
                            [ConstantDetuning(0.0)] * len(envs))
        best = taus[int(np.argmax([f.population(1) for f in finals]))]
        assert 0.43 <= best <= 0.49

    def test_transfer_builds_up_with_pulse_length(self):
        # final P1 of ever longer box pulses, as one grouped call
        taus = np.linspace(0.0, 0.47, 25)[1:]
        finals = evolve_tls(TlsState(1.0, 0.0), [box(2.0, t) for t in taus],
                            [flat()] * taus.size)
        pops = np.array([f.population(1) for f in finals])
        assert pops[0] == pytest.approx(0.0, abs=5e-3)
        assert np.all(np.diff(pops)[:4] > 0)  # transfer builds up early

    def test_groups_match_solves_alone(self):
        envs = [PulseEnvelope("gaussian", 2.0, 0.47), box(2.0, 20.0),
                box(1.3, 0.9), PulseEnvelope("gaussian", 2.5, 0.3)]
        prots = [LinearDetuning(0.37, 0.315, width=0.47), flat(),
                 flat(0.27), flat(-0.5)]
        grouped = evolve_tls(TlsState(0.6, 0.8j), envs, prots, 0.05)
        for env, prot, state in zip(envs, prots, grouped):
            alone = evolve_tls(TlsState(0.6, 0.8j), env, prot, 0.05)
            assert (state.c0, state.c1) == (alone.c0, alone.c1)

    def test_too_small_step_names_the_group(self):
        # at t = 1e15 the float spacing is 0.125, so the minimum step of
        # ten spacings is far above the steps this drive needs
        late = PulseEnvelope("box", 2.0, 5.0, center=1e15)
        with pytest.raises(IntegratorFailure, match="group 1.*step size"):
            evolve_tls(TlsState(1.0, 0.0), [box(2.0, 0.47), late],
                       [flat(), flat()])

    def test_non_finite_drive_fails_instead_of_hanging(self):
        class NanInSolve(ConstantDetuning):
            """In bounds for the up-front check, NaN in the solve."""

            def evaluate(self, t, check=True):
                value = super().evaluate(t)
                return value if check else value * np.nan

        with pytest.raises(IntegratorFailure, match="group 1.*not finite"):
            evolve_tls(TlsState(1.0, 0.0), [box(2.0, 0.47)] * 2,
                       [flat(), NanInSolve(0.0)])


class NanEnvelope:
    support = (0.0, 0.5)

    def evaluate(self, t):
        return np.full(np.shape(t), np.nan)


@pytest.mark.parametrize("initial, second, epsilon, group", [
    (TlsState(1.0, 0.0), box(2.0, 0.47), math.inf, 0),
    (TlsState(1.0, 0.0), box(2.0, 0.47), math.nan, 0),
    (TlsState(math.nan, 0.0), box(2.0, 0.47), 0.0, 0),
    (TlsState(1.0, complex(0.0, math.inf)), box(2.0, 0.47), 0.0, 0),
    (TlsState(1.0, 0.0), NanEnvelope(), 0.0, 1),
], ids=["epsilon=inf", "epsilon=nan", "c0=nan", "c1=inf", "nan-drive"])
def test_evolve_refuses_non_finite_input_up_front(monkeypatch, initial,
                                                  second, epsilon, group):
    # named as propagate_unitaries names it, before the integrator runs
    def refuse_to_solve(*args, **kwargs):
        raise AssertionError("non-finite input must stop before the solve")

    monkeypatch.setattr(tls, "solve_ivp", refuse_to_solve)
    with pytest.raises(IntegratorFailure,
                       match="non-finite drive, epsilon or initial state "
                             f"in two-level group {group}"):
        evolve_tls(initial, [box(2.0, 0.47), second], [flat(), flat()],
                   epsilon)


class TestRwa:
    def test_resonant_pi_pulse(self):
        omega = 1.3
        t = math.pi / (math.sqrt(2) * omega)
        assert rwa_probability(omega, 0.0, t) == pytest.approx(1.0)

    def test_no_time_no_transfer(self):
        assert rwa_probability(2.0, 0.5, 0.0) == 0.0

    def test_detuned_ceiling(self):
        omega = 0.9
        delta = math.sqrt(2) * omega
        period = 2 * math.pi / math.sqrt(2 * omega**2 + delta**2)
        assert rwa_probability(omega, delta, period / 2) == pytest.approx(0.5)

    @pytest.mark.parametrize("args", [
        (rwa_probability, math.nan, 0.0, 1.0),
        (rwa_probability, 1.0, math.nan, 1.0),
        (rwa_probability, 1.0, 0.0, math.inf),
        (rwa_probability, 1.0, [0.0, math.nan], 1.0),
        (rwa_probability, 1.0, 0.0, np.array([1.0, math.nan])),
        (pulse_area_probability, math.nan, 0.3),
        (pulse_area_probability, 1.0, math.inf),
        (differential_detuning, math.nan, 0.0),
        (rwa_hamiltonian, math.nan, 0.0),
        (tls_hamiltonian, math.nan, box(2.0, 1.0), flat(), 0.0),
        (tls_hamiltonian, [0.0, math.inf], box(2.0, 1.0), flat(), 0.0),
        (tls_hamiltonian, 0.2, box(2.0, 1.0), flat(), math.nan),
    ])
    def test_non_finite_input_refused(self, args):
        # not a transfer probability, detuning or matrix of NaN
        fn, *rest = args
        with pytest.raises(ValueError, match="finite"):
            fn(*rest)

    def test_differential_detuning(self):
        assert differential_detuning(2.0, 0.1) == pytest.approx(
            -0.1 - (3 / 64) * 4.0)

    def test_area_formula_values(self):
        assert pulse_area_probability(0.0, 1.0) == 0.0
        omega = 0.4
        assert pulse_area_probability(omega, math.sqrt(math.pi) / 2 / omega) \
            == pytest.approx(1.0)
        assert pulse_area_probability(omega, math.sqrt(math.pi) / omega) \
            == pytest.approx(0.0, abs=1e-12)

    def test_rwa_integration_matches_area_formula(self):
        # slowly varying envelope: integrating the resonant reduced
        # Hamiltonian agrees with the closed-form pulse-area result
        for omega_r in (0.2, 0.35, 0.5):
            tau = 0.9
            env = PulseEnvelope("gaussian", omega_r, tau)

            def rhs(t, y):
                h = rwa_hamiltonian(env.evaluate(t), 0.0)
                return -1j * (h @ y)

            lo, hi = env.support
            sol = solve_ivp(rhs, (lo, hi), np.array([1.0 + 0j, 0.0 + 0j]),
                            rtol=1e-12, atol=1e-14, method="DOP853")
            p_num = abs(sol.y[1, -1]) ** 2
            assert p_num == pytest.approx(
                pulse_area_probability(omega_r, tau), abs=1e-6)


class TestStark:
    def test_excited_shift_on_resonance(self):
        c = ac_stark_coefficients(2.0)
        assert c.shift11 == pytest.approx(-0.1875, abs=1e-15)

    def test_ground_shift_zero_without_imbalance(self):
        for omega, delta in ((1.0, 0.0), (3.0, 2.0), (2.0, -1.0)):
            assert ac_stark_coefficients(omega, delta).shift00 == 0.0

    def test_with_imbalance(self):
        c = ac_stark_coefficients(2.0, 0.0, 0.1)
        assert c.shift11 == pytest.approx(
            4.0 * (-3 / 64 - 0.025 + 5 * 0.01 / 12), rel=1e-12)

    def test_pole_guard(self):
        with pytest.raises(PoleProximity):
            ac_stark_coefficients(1.0, 8.0 + 1e-9)
        with pytest.raises(PoleProximity):
            ac_stark_coefficients(1.0, -16.0)

    @pytest.mark.parametrize("args", [(1.0, math.nan), (math.nan, 0.0),
                                      (1.0, 0.0, math.inf)])
    def test_non_finite_input_refused(self, args):
        # bad input, not a pole, and never a NaN shift
        with pytest.raises(ValueError, match="finite") as info:
            ac_stark_coefficients(*args)
        assert not isinstance(info.value, PoleProximity)

    def test_off_resonant_term(self):
        # the state-1 light shift keeps its two-pole structure
        c = ac_stark_coefficients(1.0, 4.0)
        assert c.shift11 == pytest.approx(6.0 / ((4 - 8) * (4 + 16)),
                                          rel=1e-12)
