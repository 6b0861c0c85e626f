"""Effective two-level description of a double Bragg pulse at p = 0.

Basis: |0> is the resting atom, |1> the symmetric superposition of the
+-2 hbar k_L diffraction orders.  The second-order effective Hamiltonian
carries drive-induced level shifts on the diagonal and a three-tone
coupling on the off-diagonal; its rotating-wave reduction yields Rabi's
formula and, for slowly varying Gaussian drives, the pulse-area law.
All quantities in recoil units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import IntegratorFailure, PoleProximity
from .multilevel import _einsum, solve_ivp
from .units import RESONANCE, PulseEnvelope, _require_finite

POLE_GUARD = 1e-6
_S2H = math.sqrt(2.0) / 2.0


@dataclass(frozen=True)
class TlsState:
    c0: complex
    c1: complex

    def norm(self):
        return abs(self.c0) ** 2 + abs(self.c1) ** 2

    def population(self, level):
        return abs(self.c1 if level else self.c0) ** 2


@dataclass(frozen=True)
class AcStarkCoefficients:
    """Drive-induced level shifts (recoil units) with their inputs."""

    shift00: float
    shift11: float
    omega: float
    delta: float
    epsilon: float


def tls_hamiltonian(t, env, protocol, epsilon=0.0):
    """2x2 effective matrices at the times t, of any shape: (..., 2, 2).

    Diagonal: Omega(t)**2 (eps/4 - eps**2/2) and
    Omega(t)**2 (-3/64 - eps/4 + 5 eps**2/12).  Off-diagonal:
    (sqrt2/2) Omega(t) {exp(i Delta t) + exp(-i (Delta+8) t)
    + 2 eps exp(-i 4 t)} and its conjugate, with Delta(t) read from the
    detuning protocol.
    """
    t = np.asarray(t, dtype=float)
    om, de = env.evaluate(t), protocol.evaluate(t, check=False)
    d0 = om**2 * (epsilon / 4.0 - epsilon**2 / 2.0)
    d1 = om**2 * (-3.0 / 64.0 - epsilon / 4.0 + 5.0 * epsilon**2 / 12.0)
    coupling = _S2H * om * (np.exp(1j * de * t)
                            + np.exp(-1j * (de + 2 * RESONANCE) * t)
                            + 2.0 * epsilon * np.exp(-1j * RESONANCE * t))
    return np.stack((d0, coupling, coupling.conj(), d1),
                    axis=-1).reshape(t.shape + (2, 2))


def evolve_tls(initial, env, protocol, epsilon=0.0, rtol=1e-10):
    """Integrate i dpsi/dt = H(t) psi over the envelope support, with
    multilevel.solve_ivp's tolerance rule (atol = rtol * 1e-2).

    Returns the final TlsState.  Sequences of G envelopes and G
    protocols give a list of G final states from one lockstep solve of
    multilevel.solve_ivp, each bit for bit what its pulse gives alone.
    A failed group raises IntegratorFailure naming it.
    """
    grouped = not isinstance(env, PulseEnvelope)
    envs, protocols = (env, protocol) if grouped else ([env], [protocol])
    pulses = list(zip(envs, protocols, strict=True))
    windows = np.array([e.support for e, _ in pulses])
    # One vectorized pass per window trips any protocol bound violation.
    for (_, prot), (lo, hi) in zip(pulses, windows):
        prot.evaluate(np.linspace(lo, hi, 257))

    def prepare(times, live):
        """deriv(j, y, out) of the running groups at the rows of times."""
        h = -1j * np.stack([tls_hamiltonian(times[:, i], *pulses[g], epsilon)
                            for i, g in enumerate(live.tolist())], axis=1)

        def deriv(j, y, out):
            _einsum("gij,gj->gi", h[j], y.view(complex), out=out.view(complex))
        return deriv

    y0 = np.array([[initial.c0, initial.c1]] * len(pulses), complex)
    sol = solve_ivp(prepare, *windows.T, y0.view(float), rtol)
    if sol.failed is not None:
        raise IntegratorFailure(f"two-level group {sol.failed}: {sol.message}")
    states = [TlsState(*y) for y in sol.y.view(complex)]
    return states if grouped else states[0]


def differential_detuning(omega, delta):
    """delta_diff = -Delta - (3/64) Omega**2, the shift-corrected detuning."""
    _require_finite("Rabi frequency and detuning", omega, delta)
    return -delta - (3.0 / 64.0) * omega**2


def rwa_probability(omega, delta_diff, t):
    """Rabi's formula for the |0> -> |1> transfer.

    P = (2 Omega**2 / (2 Omega**2 + delta_diff**2))
        * sin( sqrt(2 Omega**2 + delta_diff**2) t / 2 )**2
    """
    _require_finite("Rabi frequency", omega)
    if omega < 0:
        raise ValueError("Rabi frequency must be non-negative")
    delta_diff = np.asarray(delta_diff, dtype=float)
    t = np.asarray(t, dtype=float)
    if not (np.isfinite(delta_diff).all() and np.isfinite(t).all()):
        raise ValueError("detuning and time must be finite")
    w2 = 2.0 * omega**2 + delta_diff**2
    out = np.where(w2 > 0,
                   (2.0 * omega**2 / np.where(w2 > 0, w2, 1.0))
                   * np.sin(np.sqrt(w2) * t / 2.0) ** 2,
                   0.0)
    return float(out) if out.ndim == 0 else out


def rwa_hamiltonian(omega, delta_diff):
    """Rotating-frame 2x2 matrix [[0, s], [s, delta_diff]], s = sqrt2/2 Omega."""
    _require_finite("Rabi frequency and detuning", omega, delta_diff)
    s = _S2H * omega
    return np.array([[0.0, s], [s, delta_diff]], dtype=complex)


def pulse_area_probability(omega_r, tau):
    """sin(sqrt(pi) Omega_R tau)**2, the slowly-varying Gaussian limit.

    Perfect splitting at Omega_R tau = sqrt(pi)/2.
    """
    _require_finite("peak Rabi frequency and width", omega_r, tau)
    return float(np.sin(math.sqrt(math.pi) * omega_r * tau) ** 2)


def ac_stark_coefficients(omega, delta=0.0, epsilon=0.0):
    """Level shifts of |0> and |1> for drive amplitude Omega.

    shift00 = Omega**2 (eps/4 - eps**2/2)
    shift11 = Omega**2 [ 6 / ((Delta - 8)(Delta + 16)) - eps/4 + 5 eps**2/12 ]

    The detuning-dependent term has poles at Delta = 8 and Delta = -16;
    inputs within 1e-6 of either raise PoleProximity.
    """
    _require_finite("drive parameters", omega, delta, epsilon)
    if abs(delta - 2 * RESONANCE) < POLE_GUARD or \
            abs(delta + 4 * RESONANCE) < POLE_GUARD:
        raise PoleProximity(
            f"Delta={delta} is within {POLE_GUARD} of a shift resonance")
    shift00 = omega**2 * (epsilon / 4.0 - epsilon**2 / 2.0)
    shift11 = omega**2 * (6.0 / ((delta - 8.0) * (delta + 16.0))
                          - epsilon / 4.0 + 5.0 * epsilon**2 / 12.0)
    return AcStarkCoefficients(shift00, shift11, omega, delta, epsilon)
