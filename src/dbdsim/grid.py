"""Lattice-ladder split-step solver, the in-repo ground truth.

Evolves a packet under H = p^2 + 2 Omega(t) {cos[(4 + Delta(t)) t] + eps}
cos(2 z) with a second-order Strang splitting: kinetic half step,
potential full step at the midpoint time, kinetic half step; on a
ladder the potential step is one circulant product.  No truncation but
the momentum cutoff, so this solver arbitrates every reduced model.

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

from .exceptions import IntegratorFailure, ResolutionError, SpectralOverflow
from .units import _require_finite, carrier_factor

_TWO_PI = 2.0 * math.pi
_EDGE_TOL = 1e-9  # norm fractions: band-edge overflow, and what the
_KEEP_TOL = 1e-20  # orders a pulse ladder leaves out may hold
_FIRST_ORDERS = 24
_EDGE_STRIDE = 8  # pulse steps between samples of the outermost orders
_CIRC_ENTRIES = 2**16  # step circulant entries built at once (1 MB)


@dataclass(frozen=True)
class GridSpec:
    """Periodic grid of n_points samples over a fixed box and time step.

    The box holds 64 lattice periods, so the lattice cos(2 z) closes on
    the boundary, +-2 falls exactly on spectral bins (2 pi / L = 1/32
    apart) and every power-of-two n_points >= 1024 splits into whole
    ladders; the momentum cutoff pi n / L is n / 64 >= 16.
    """

    n_points: int = 8192
    length = 64.0 * math.pi
    dt = 0.001
    cells = 64  # lattice periods in the box: bins j and j + cells differ by 2
    dk = _TWO_PI / length

    def __post_init__(self):
        n = self.n_points
        if n < 1024 or (n & (n - 1)) != 0:
            raise ValueError("n_points must be a power of two >= 1024")

    @property
    def orders(self):
        """Ladder orders k in cyclic layout (0, 1, ..., -1)."""
        m = self.n_points // self.cells
        return np.fft.fftfreq(m, 1.0 / m)


@dataclass(frozen=True)
class GridState:
    """Lattice ladders: row r of amp holds momenta q[r] + 2 spec.orders."""

    spec: GridSpec
    q: np.ndarray
    amp: np.ndarray

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


def split_step_pulse(state, env, protocol, epsilon=0.0):
    """Evolve through one pulse with Strang-split spectral stepping.

    The steps span the envelope support, as many as keep each within
    spec.dt; the potential is evaluated at each step's midpoint time.
    Unconditionally stable and unitary to rounding.

    All ladders step at once on the m orders around order 0, one m x m
    product per step.  m starts at 24 and doubles, capped at the ladder,
    until the orders left out at the start and the two outermost kept
    orders, sampled through the pulse, hold at most 1e-20 of the norm;
    the orders left out come back empty.
    """
    spec = state.spec
    t0, t1 = env.support
    span = t1 - t0
    n_steps = max(1, math.ceil(span / spec.dt))
    h = span / n_steps

    t_mid = t0 + (np.arange(n_steps) + 0.5) * h
    om = env.evaluate(t_mid)
    delta = protocol.evaluate(t_mid)  # bound check happens here
    coeff = 2.0 * om * carrier_factor(t_mid, delta, epsilon)

    f, p = state.amp, state.momenta()
    n_orders = f.shape[1]
    total = state.norm()
    # a NaN would pass every test below: max(edge, nan) keeps edge
    if not (np.isfinite(coeff).all() and math.isfinite(total)):
        raise IntegratorFailure("non-finite drive or norm in a grid pulse")
    m = min(_FIRST_ORDERS, n_orders)
    while True:
        half = m // 2  # keep orders -half .. half - 1, in cyclic order
        kept = np.r_[:half, n_orders - half:n_orders]
        stop = math.inf if m == n_orders else _KEEP_TOL * total
        if np.sum(np.abs(f[:, half:n_orders - half]) ** 2) <= stop:
            a, edge = _ladder_steps(f[:, kept], p[:, kept], coeff, h, stop)
            if edge <= stop:
                break
        m = min(2 * m, n_orders)
    if edge > _EDGE_TOL * total:
        raise SpectralOverflow(
            "significant amplitude at the spectral band edge during a pulse")
    f = np.zeros_like(f)
    f[:, kept] = a
    return GridState(spec, state.q, f)


def _ladder_steps(a, p, coeff, h, stop):
    """Strang steps on ladders a[row, cyclic order]; returns the result
    and the largest population of the two outermost orders, sampled every
    _EDGE_STRIDE steps, stopping early once that exceeds `stop`.  The
    potential step is a @ C, C[k', k] = f[(k - k') mod m] with f the fft
    of exp(-i h c cos 2z) over m.  Rows match in any batch of two or more;
    a lone row goes through gemv and can differ in the last bits."""
    m = a.shape[1]
    kin_half = np.exp(-0.5j * p**2 * h)
    kin_full = kin_half * kin_half
    cos2z = np.cos(_TWO_PI * np.arange(m) / m)  # on the unit cell
    lag = (np.arange(m) - np.arange(m)[:, None]) % m
    outer = slice(m // 2 - 1, m // 2 + 1)
    edge = 0.0
    chunk = _EDGE_STRIDE * max(1, _CIRC_ENTRIES // (_EDGE_STRIDE * m * m))
    a = a * kin_half.conj()  # so that every step opens with a full kick
    for j in range(0, coeff.size, chunk):
        phase = np.exp(np.outer(-1j * h * coeff[j:j + chunk], cos2z))
        circ = (np.fft.fft(phase, axis=1) / m)[:, lag]
        for i in range(0, len(circ), _EDGE_STRIDE):
            for c in circ[i:i + _EDGE_STRIDE]:
                a *= kin_full
                a = a @ c
            edge = max(edge, float(np.sum(np.abs(a[:, outer]) ** 2)))
            if edge > stop:
                return a * kin_half, edge
    return a * kin_half, edge


def momentum_histogram(state, p0=0.0):
    """Port-resolved probability around ladder center p0.

    Windows are unit half-width half-open intervals [p0+2k-1, p0+2k+1)
    for |k| <= 5; they tile that band exactly, and `residual` collects
    everything outside it.
    """
    _require_finite("ladder center p0", p0)
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
    _require_finite("free fall g and T", g, T)
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
    return GridState(state.spec, state.q + 0.5 * g * T, amp)
