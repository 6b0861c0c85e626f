"""Effective two-level description of a double Bragg pulse at p = 0.

Basis: |0> is the resting atom, |1> the symmetric superposition of the
+-2 hbar k_L diffraction orders.  The second-order effective Hamiltonian
is the n_max = 1 ladder of the multilevel module with its Stark-shift
band: drive-induced level shifts on the diagonal, the drive
sqrt2 Omega C(t) off it.  Its rotating-wave reduction yields Rabi's
formula and, for slowly varying Gaussian drives, the pulse-area law.
All quantities in recoil units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import IntegratorFailure, PoleProximity
from .multilevel import _shifts, propagate_unitaries
from .units import RESONANCE, PulseEnvelope, _require_finite

POLE_GUARD = 1e-6
_S2H = math.sqrt(2.0) / 2.0


@dataclass(frozen=True)
class TlsState:
    c0: complex
    c1: complex

    def population(self, level):
        return abs(self.c1 if level else self.c0) ** 2


@dataclass(frozen=True)
class AcStarkCoefficients:
    """Drive-induced level shifts of |0> and |1> (recoil units)."""

    shift00: float
    shift11: float


def evolve_tls(initial, env, protocol, epsilon=0.0, rtol=1e-10):
    """Final TlsState of the n_max = 1 ladder at p = 0 (|1,-> stays dark),
    in the frame of the +-2 orders: propagate_unitaries' kinetic phases
    come back off.  Sequences of G envelopes and G protocols give G
    states from one grouped call, each bit for bit as alone.  A
    non-finite initial state raises IntegratorFailure before any solve,
    as propagate_unitaries does, naming the group, for a non-finite
    drive or epsilon and for a failed solve.
    """
    grouped = not isinstance(env, PulseEnvelope)
    envs, protocols = (env, protocol) if grouped else ([env], [protocol])
    if not np.isfinite([initial.c0, initial.c1]).all():
        raise IntegratorFailure("non-finite two-level initial state")
    u = propagate_unitaries(np.zeros((len(envs), 1)), envs, protocols,
                            epsilon, n_max=1, rtol=rtol,
                            basis="symmetric")[:, 0, :2, :2]
    states = []
    for m, e in zip(u, envs):  # per group: complex loops round by shape
        t0, t1 = e.support
        c0, c1 = m @ [initial.c0, initial.c1 * np.exp(-1j * RESONANCE * t0)]
        states.append(TlsState(c0, c1 * np.exp(1j * RESONANCE * t1)))
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
    return AcStarkCoefficients(*_shifts(omega, delta, epsilon))
