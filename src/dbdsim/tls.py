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
from .units import RESONANCE

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
class TlsTrajectory:
    times: np.ndarray
    amplitudes: np.ndarray  # (N, 2) complex

    @property
    def final(self):
        return TlsState(*self.amplitudes[-1])

    def population(self, level):
        return np.abs(self.amplitudes[:, 1 if level else 0]) ** 2


@dataclass(frozen=True)
class AcStarkCoefficients:
    """Drive-induced level shifts (recoil units) with their inputs."""

    shift00: float
    shift11: float
    omega: float
    delta: float
    epsilon: float


def tls_hamiltonian(t, env, delta=0.0, epsilon=0.0):
    """2x2 effective matrix at time t.

    Diagonal: Omega(t)**2 (eps/4 - eps**2/2) and
    Omega(t)**2 (-3/64 - eps/4 + 5 eps**2/12).  Off-diagonal:
    (sqrt2/2) Omega(t) {exp(i Delta t) + exp(-i (Delta+8) t)
    + 2 eps exp(-i 4 t)} and its conjugate.
    """
    t = float(t)
    om = float(env.evaluate(t))
    de = float(delta.evaluate(t, check=False) if hasattr(delta, "evaluate")
               else delta)  # or a float
    h = np.zeros((2, 2), dtype=complex)
    h[0, 0] = om**2 * (epsilon / 4.0 - epsilon**2 / 2.0)
    h[1, 1] = om**2 * (-3.0 / 64.0 - epsilon / 4.0 + 5.0 * epsilon**2 / 12.0)
    coupling = _S2H * om * (np.exp(1j * de * t)
                            + np.exp(-1j * (de + 2 * RESONANCE) * t)
                            + 2.0 * epsilon * np.exp(-1j * RESONANCE * t))
    h[0, 1] = coupling
    h[1, 0] = np.conj(coupling)
    return h


def evolve_tls(initial, env, protocol, epsilon=0.0, t_span=None, t_eval=None,
               rtol=1e-10, atol=1e-12):
    """Integrate i dpsi/dt = H(t) psi through a pulse.

    t_span defaults to the envelope support; t_eval adds interior
    trajectory samples (endpoints always included by solve_ivp rules).
    """
    from scipy.integrate import solve_ivp  # slow to import; only used here

    if t_span is None:
        t_span = env.support
    # One vectorized pass trips any protocol bound violation up front.
    if hasattr(protocol, "evaluate"):
        protocol.evaluate(np.linspace(t_span[0], t_span[1], 257))

    def rhs(t, y):
        return -1j * (tls_hamiltonian(t, env, protocol, epsilon) @ y)

    y0 = np.array([initial.c0, initial.c1], dtype=complex)
    sol = solve_ivp(rhs, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
                    t_eval=t_eval)
    if not sol.success:
        raise IntegratorFailure(f"two-level integration failed: {sol.message}")
    return TlsTrajectory(sol.t, sol.y.T.copy())


def differential_detuning(omega, delta):
    """delta_diff = -Delta - (3/64) Omega**2, the shift-corrected detuning."""
    return -delta - (3.0 / 64.0) * omega**2


def rwa_probability(omega, delta_diff, t):
    """Rabi's formula for the |0> -> |1> transfer.

    P = (2 Omega**2 / (2 Omega**2 + delta_diff**2))
        * sin( sqrt(2 Omega**2 + delta_diff**2) t / 2 )**2
    """
    if omega < 0:
        raise ValueError("Rabi frequency must be non-negative")
    w2 = 2.0 * omega**2 + np.asarray(delta_diff, dtype=float) ** 2
    t = np.asarray(t, dtype=float)
    out = np.where(w2 > 0,
                   (2.0 * omega**2 / np.where(w2 > 0, w2, 1.0))
                   * np.sin(np.sqrt(w2) * t / 2.0) ** 2,
                   0.0)
    return float(out) if out.ndim == 0 else out


def rwa_hamiltonian(omega, delta_diff):
    """Rotating-frame 2x2 matrix [[0, s], [s, delta_diff]], s = sqrt2/2 Omega."""
    s = _S2H * omega
    return np.array([[0.0, s], [s, delta_diff]], dtype=complex)


def pulse_area_probability(omega_r, tau):
    """sin(sqrt(pi) Omega_R tau)**2, the slowly-varying Gaussian limit.

    Perfect splitting at Omega_R tau = sqrt(pi)/2.
    """
    return float(np.sin(math.sqrt(math.pi) * omega_r * tau) ** 2)


def ac_stark_coefficients(omega, delta=0.0, epsilon=0.0):
    """Level shifts of |0> and |1> for drive amplitude Omega.

    shift00 = Omega**2 (eps/4 - eps**2/2)
    shift11 = Omega**2 [ 6 / ((Delta - 8)(Delta + 16)) - eps/4 + 5 eps**2/12 ]

    The detuning-dependent term has poles at Delta = 8 and Delta = -16;
    inputs within 1e-6 of either raise PoleProximity.
    """
    if abs(delta - 2 * RESONANCE) < POLE_GUARD or \
            abs(delta + 4 * RESONANCE) < POLE_GUARD:
        raise PoleProximity(
            f"Delta={delta} is within {POLE_GUARD} of a shift resonance")
    shift00 = omega**2 * (epsilon / 4.0 - epsilon**2 / 2.0)
    shift11 = omega**2 * (6.0 / ((delta - 8.0) * (delta + 16.0))
                          - epsilon / 4.0 + 5.0 * epsilon**2 / 12.0)
    return AcStarkCoefficients(shift00, shift11, omega, delta, epsilon)
