"""Lattice-ladder split-step solver, the in-repo ground truth.

Evolves a packet under H = p^2 + 2 Omega(t) {cos[(4 + Delta(t)) t] + eps}
cos(2 z) with a second-order Strang splitting: kinetic half step,
potential full step at the midpoint time, kinetic half step.  No basis
truncation beyond a momentum cutoff, so this solver arbitrates every
reduced model in the package.

The lattice couples p only to p +- 2, so the exact dynamics is a set of
independent ladders, one per quasi-momentum q, holding the momenta
q + 2k.  A GridState is such a set: row r of `amp` carries the
amplitudes of q[r] + 2k, orders k in the cyclic layout (0, 1, ..., -1)
of GridSpec.orders, and sum |amp|^2 is the norm.  prepare_wavepacket
fills one ladder per spectral bin class of a periodic box of length L
(bins 2 pi / L apart); node_wavepacket puts one ladder on each
Gauss-Legendre node of the packet.  Free fall shifts every q by g T / 2,
exactly and at no cost.  More than 1e-9 of the norm in the two outermost
orders raises SpectralOverflow instead of wrapping around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .exceptions import ResolutionError, SpectralOverflow
from .units import carrier_factor

MAX_PULSE_DT = 0.002
_TWO_PI = 2.0 * math.pi
_EDGE_TOL = 1e-9  # norm fractions: band-edge overflow, and what the
_KEEP_TOL = 1e-20  # orders a pulse ladder leaves out may hold
_FIRST_ORDERS = 32
_EDGE_STRIDE = 8  # pulse steps between samples of the outermost orders


@dataclass(frozen=True)
class GridSpec:
    """Periodic grid: n_points samples over length L, time step dt.

    L must be an integer number of 2 pi / k_L periods so the lattice
    cos(2 z) closes on the boundary and +-2 falls exactly on spectral
    bins; L / pi must divide n_points into whole lattice ladders.
    Resolution requirements: bin spacing 2 pi / L <= 0.05 and momentum
    cutoff pi n / L >= 10.
    """

    n_points: int = 8192
    length: float = 64.0 * math.pi
    dt: float = 0.001

    def __post_init__(self):
        n = self.n_points
        if n < 1024 or (n & (n - 1)) != 0:
            raise ValueError("n_points must be a power of two >= 1024")
        m = self.length / _TWO_PI
        if abs(m - round(m)) > 1e-9 or m < 1:
            raise ValueError("length must be a positive multiple of 2 pi")
        if n % self.cells:
            raise ValueError("length / pi must divide n_points")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.dk > 0.05:
            raise ResolutionError(
                f"momentum bin {self.dk:.4g} exceeds 0.05; enlarge the box")
        if self.k_cutoff < 10.0:
            raise ResolutionError(
                f"momentum cutoff {self.k_cutoff:.4g} below 10; add points")

    @property
    def cells(self):
        """Lattice periods in the box: bins j and j + cells differ by 2."""
        return round(self.length / math.pi)

    @property
    def dk(self):
        return _TWO_PI / self.length

    @property
    def k_cutoff(self):
        return math.pi * self.n_points / self.length

    @property
    def orders(self):
        """Ladder orders k in cyclic layout (0, 1, ..., -1)."""
        m = self.n_points // self.cells
        return sfft.fftfreq(m, 1.0 / m)


@dataclass(frozen=True)
class GridState:
    """Lattice ladders: row r of amp holds momenta q[r] + 2 spec.orders."""

    spec: GridSpec
    q: np.ndarray
    amp: np.ndarray
    time: float = 0.0

    def momenta(self):
        return self.q[:, None] + 2.0 * self.spec.orders

    def norm(self):
        return float(np.sum(np.abs(self.amp) ** 2))


@dataclass(frozen=True)
class MomentumPortHistogram:
    """Probability per diffraction port plus whatever fell outside.

    Port k covers the half-open window [p0 + 2k - 1, p0 + 2k + 1).
    """

    populations: dict[int, float]
    residual: float

    def total(self):
        return sum(self.populations.values()) + self.residual


def prepare_wavepacket(spec, wp):
    """Gaussian packet psi-tilde ~ exp(-(p - p0)^2 / (4 sigma_p^2)).

    The spectrum is sampled on the box's bins, one ladder per bin class
    c at q = c dk, and normalized discretely.  The packet envelope must
    decay inside the box, sigma_z = 1/(2 sigma_p) <= L/4; narrower
    momentum spreads wrap around the periodic boundary.
    """
    if wp.sigma_p * spec.length < 2.0:
        raise ResolutionError(
            f"sigma_p={wp.sigma_p} packet does not fit a box of length "
            f"{spec.length:.4g}; need sigma_p >= {2.0 / spec.length:.4g}")
    q = np.arange(spec.cells) * spec.dk
    p = q[:, None] + 2.0 * spec.orders
    amp = np.exp(-((p - wp.p0) ** 2) / (4.0 * wp.sigma_p**2)) + 0j
    return GridState(spec, q, amp / math.sqrt(np.sum(np.abs(amp) ** 2)))


def node_wavepacket(spec, wp, n_nodes):
    """The packet on its n_nodes Gauss-Legendre momentum nodes.

    Each node is a ladder holding sqrt(weight) in order 0, so port
    populations are the quadrature the ladder model integrates with.
    """
    q, w = wp.momentum_quadrature(n_nodes)
    amp = np.zeros((q.size, spec.orders.size), dtype=complex)
    amp[:, 0] = np.sqrt(w)
    return GridState(spec, q, amp)


def split_step_pulse(state, env, protocol, epsilon=0.0, window=None):
    """Evolve through one pulse with Strang-split spectral stepping.

    The window defaults to the envelope support and the step count is
    chosen so the actual step never exceeds spec.dt; the potential is
    evaluated at each step's midpoint time.  Unconditionally stable and
    unitary to rounding.

    All ladders step at once on the m orders around order 0, with
    batched length-m FFTs.  m doubles from 32 until the orders left out
    at the start and the two outermost kept orders, sampled through the
    pulse, hold at most 1e-20 of the norm; the orders left out come back
    empty.
    """
    spec = state.spec
    if spec.dt > MAX_PULSE_DT:
        raise ValueError(
            f"spec.dt={spec.dt} exceeds the pulse cap {MAX_PULSE_DT}")
    t0, t1 = window if window is not None else env.support
    span = t1 - t0
    if span <= 0:
        raise ValueError("pulse window must have positive duration")
    n_steps = max(1, math.ceil(span / spec.dt))
    h = span / n_steps

    t_mid = t0 + (np.arange(n_steps) + 0.5) * h
    om = env.evaluate(t_mid)
    delta = protocol.evaluate(t_mid)  # bound check happens here
    coeff = 2.0 * om * (carrier_factor(t_mid, delta, 0.0) + epsilon)

    f, p = state.amp, state.momenta()
    n_orders = f.shape[1]
    total = state.norm()
    m = min(_FIRST_ORDERS, n_orders)
    while True:
        half = m // 2  # keep orders -half .. half - 1, in cyclic order
        kept = np.r_[:half, n_orders - half:n_orders]
        stop = math.inf if m == n_orders else _KEEP_TOL * total
        if np.sum(np.abs(f[:, half:n_orders - half]) ** 2) <= stop:
            a, edge = _ladder_steps(f[:, kept], p[:, kept], coeff, h, stop)
            if edge <= stop:
                break
        m *= 2
    if edge > _EDGE_TOL * total:
        raise SpectralOverflow(
            "significant amplitude at the spectral band edge during a pulse")
    f = np.zeros_like(f)
    f[:, kept] = a
    return GridState(spec, state.q, f, t1)


def _ladder_steps(a, p, coeff, h, stop):
    """Strang steps on ladders a[row, cyclic order]; returns the result
    and the largest population of the two outermost orders, sampled every
    _EDGE_STRIDE steps, stopping early once that exceeds `stop`."""
    m = a.shape[1]
    kin_half = np.exp(-0.5j * p**2 * h)
    kin_full = kin_half * kin_half
    cos2z = np.cos(_TWO_PI * np.arange(m) / m)  # on the unit cell
    phase = np.outer(-1j * h * coeff, cos2z)
    np.exp(phase, out=phase)
    outer = slice(m // 2 - 1, m // 2 + 1)
    edge = 0.0
    a = a * kin_half.conj()  # so that every step opens with a full kick
    for j in range(0, coeff.size, _EDGE_STRIDE):
        for ph in phase[j:j + _EDGE_STRIDE]:
            a *= kin_full
            b = sfft.ifft(a, axis=1, overwrite_x=True)
            b *= ph
            a = sfft.fft(b, axis=1, overwrite_x=True)
        edge = max(edge, float(np.sum(np.abs(a[:, outer]) ** 2)))
        if edge > stop:
            break
    return a * kin_half, edge


def momentum_histogram(state, p0=0.0):
    """Port-resolved probability around ladder center p0.

    Windows are unit half-width half-open intervals [p0+2k-1, p0+2k+1)
    for |k| <= 5; they tile that band exactly, and `residual` collects
    everything outside it.
    """
    dens = np.abs(state.amp) ** 2
    ports = _ports(state, p0)
    pops = {port: float(np.sum(dens[ports == port]))
            for port in range(-5, 6)}
    return MomentumPortHistogram(pops,
                                 float(np.sum(dens)) - sum(pops.values()))


def _ports(state, p0):
    """Port k of every amplitude: momentum in [p0 + 2k - 1, p0 + 2k + 1)."""
    return np.floor((state.momenta() - p0 + 1.0) / 2.0)


def free_propagate_analytic(state, g, T):
    """Exact free fall: phase exp[-i(T p^2 + (g T^2/2) p)] per component
    and a shift g T / 2 of every quasi-momentum.

    Raises SpectralOverflow if more than 1e-9 of the norm sits in
    the two outermost orders, where the ladder stops being trustworthy.
    """
    if T < 0:
        raise ValueError("propagation time must be non-negative")
    dens = np.abs(state.amp) ** 2
    total = np.sum(dens)
    half = state.amp.shape[1] // 2
    if total > 0 and np.sum(dens[:, half - 1:half + 1]) > _EDGE_TOL * total:
        raise SpectralOverflow(
            "significant amplitude at the spectral band edge")
    p = state.momenta()
    amp = state.amp * np.exp(-1j * (T * p**2 + 0.5 * g * T**2 * p))
    return GridState(state.spec, state.q + 0.5 * g * T, amp, state.time + T)
