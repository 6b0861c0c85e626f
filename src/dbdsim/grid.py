"""Position-space split-step solver, the in-repo ground truth.

Evolves psi(z) under H = p^2 + 2 Omega(t) {cos[(4 + Delta(t)) t] + eps}
cos(2 z) on a periodic grid with a second-order Strang splitting:
kinetic half step (spectral), potential full step at the midpoint time,
kinetic half step.  No basis truncation beyond the momentum cutoff of
the grid itself, so this solver arbitrates every reduced model in the
package.

Bloch decomposition: with L = cells * pi the lattice couples spectral
bin j only to j +- cells (momentum +-2), so the grid is `cells` cyclic
ladders of n_points / cells orders, stepped at once.  Keeping every
order is exactly the full grid; there more than 1e-9 of the norm in the
two outermost orders raises SpectralOverflow instead of wrapping around.

Momentum bookkeeping: a GridState carries `p_offset`, and the physical
momentum of spectral bin k is k + p_offset.  Free fall shifts the
spectrum by g T / 2; folding that shift into the offset keeps it exact
for arbitrary (non-bin-aligned) values and costs nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import fft as sfft

from .exceptions import EmptyState, ResolutionError, SpectralOverflow
from .units import RESONANCE, carrier_factor

MAX_PULSE_DT = 0.002
_TWO_PI = 2.0 * math.pi
_EDGE_TOL = 1e-9  # norm fractions: band-edge overflow, and what the
_KEEP_TOL = 1e-20  # orders a pulse ladder leaves out may hold
_FIRST_ORDERS = 16
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
    def dz(self):
        return self.length / self.n_points

    @property
    def dk(self):
        return _TWO_PI / self.length

    @property
    def k_cutoff(self):
        return math.pi * self.n_points / self.length

    def z_grid(self):
        return (np.arange(self.n_points) - self.n_points // 2) * self.dz

    def k_grid(self):
        """Spectral bins in FFT (unshifted) order."""
        return _TWO_PI * sfft.fftfreq(self.n_points, d=self.dz)


@dataclass(frozen=True)
class GridState:
    spec: GridSpec
    field: np.ndarray  # complex psi(z) relative to the offset carrier
    time: float = 0.0
    p_offset: float = 0.0

    def norm(self):
        return float(np.sum(np.abs(self.field) ** 2) * self.spec.dz)

    def spectrum(self):
        """psi-tilde over k_grid(), with sum |.|^2 dk = sum |psi|^2 dz."""
        return sfft.fft(self.field) * (self.spec.dz / math.sqrt(_TWO_PI))

    def momentum_density(self):
        """(p, |psi-tilde|^2) sorted by physical momentum."""
        dens = np.abs(self.spectrum()) ** 2
        p = self.spec.k_grid() + self.p_offset
        order = np.argsort(p)
        return p[order], dens[order]

    def momentum_centroid(self):
        p, dens = self.momentum_density()
        w = dens * self.spec.dk
        return float(np.sum(w * p) / np.sum(w))

    def momentum_variance(self):
        p, dens = self.momentum_density()
        w = dens * self.spec.dk
        mean = np.sum(w * p) / np.sum(w)
        return float(np.sum(w * (p - mean) ** 2) / np.sum(w))

    def at_time(self, t):
        """Same state with the clock set to t (pulses are clocked locally)."""
        return replace(self, time=float(t))


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

    The spectrum is sampled directly on the grid bins and the state
    normalized discretely.  The packet envelope must decay inside the
    box, sigma_z = 1/(2 sigma_p) <= L/4; narrower momentum spreads wrap
    around the periodic boundary.
    """
    if wp.sigma_p * spec.length < 2.0:
        raise ResolutionError(
            f"sigma_p={wp.sigma_p} packet does not fit a box of length "
            f"{spec.length:.4g}; need sigma_p >= {2.0 / spec.length:.4g}")
    k = spec.k_grid()
    spec_amp = np.exp(-((k - wp.p0) ** 2) / (4.0 * wp.sigma_p**2))
    field = sfft.ifft(spec_amp.astype(complex))
    field /= math.sqrt(np.sum(np.abs(field) ** 2) * spec.dz)
    return GridState(spec, field, 0.0, 0.0)


def split_step_pulse(state, env, protocol, epsilon=0.0, window=None,
                     max_dt=MAX_PULSE_DT):
    """Evolve through one pulse with Strang-split spectral stepping.

    The window defaults to the envelope support and the step count is
    chosen so the actual step never exceeds spec.dt; the potential is
    evaluated at each step's midpoint time.  Unconditionally stable and
    unitary to rounding.

    All lattice ladders (see the module docstring) step at once on the
    m orders around order 0, with batched length-m FFTs.  m doubles from
    16 until the orders left out at the start and the two outermost kept
    orders, sampled through the pulse, hold at most 1e-20 of the norm;
    the orders left out come back empty.
    """
    spec = state.spec
    if spec.dt > max_dt:
        raise ValueError(f"spec.dt={spec.dt} exceeds the pulse cap {max_dt}")
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

    # bin j = order * cells + class, viewed as (class, order)
    f = sfft.fft(state.field).reshape(-1, spec.cells).T
    p = (spec.k_grid() + state.p_offset).reshape(-1, spec.cells).T
    n_orders = f.shape[1]
    total = float(np.sum(np.abs(f) ** 2))
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
    return GridState(spec, sfft.ifft(f.T.ravel()), t1, state.p_offset)


def _ladder_steps(a, p, coeff, h, stop):
    """Strang steps on ladders a[class, cyclic order]; returns the result
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


def momentum_histogram(state, p0=0.0, max_order=5):
    """Port-resolved spectral probability around ladder center p0.

    Windows are unit half-width half-open intervals [p0+2k-1, p0+2k+1)
    for |k| <= max_order; they tile that band exactly, and `residual`
    collects everything outside it.
    """
    dens = np.abs(state.spectrum()) ** 2 * state.spec.dk
    pops = {port: float(np.sum(dens[_port_window(state, port, p0)]))
            for port in range(-max_order, max_order + 1)}
    return MomentumPortHistogram(pops,
                                 float(np.sum(dens)) - sum(pops.values()))


def _port_window(state, port, p0):
    """Mask of the bins in [p0 + 2 port - 1, p0 + 2 port + 1)."""
    k = state.spec.k_grid() + state.p_offset
    return (k >= p0 + 2 * port - 1.0) & (k < p0 + 2 * port + 1.0)


def apply_port_projector(state, keep_ports, p0=0.0, renormalize=False):
    """Zero spectral amplitude outside the kept port windows.

    Returns (projected_state, removed_probability).  Without
    renormalization the output norm is 1 - removed, which deliberately
    breaks the unit-norm convention; detection on subnormalized branches
    is how path-restricted signals are assembled.
    """
    mask = np.zeros(state.spec.n_points, dtype=bool)
    for port in keep_ports:
        mask |= _port_window(state, port, p0)
    f = sfft.fft(state.field)
    f[~mask] = 0.0
    psi = sfft.ifft(f)
    kept = float(np.sum(np.abs(psi) ** 2) * state.spec.dz)
    removed = state.norm() - kept
    if kept < 1e-14:
        raise EmptyState("projector removed all probability")
    if renormalize:
        psi = psi / math.sqrt(kept)
    return GridState(state.spec, psi, state.time, state.p_offset), removed


def free_propagate_analytic(state, g, T, edge_fraction=0.05,
                            edge_tol=_EDGE_TOL):
    """Exact free fall: phase exp[-i(T p^2 + (g T^2/2) p)] per component
    and a momentum shift g T / 2 absorbed into the offset.

    Raises SpectralOverflow if more than edge_tol probability sits in
    the outer edge_fraction of the spectral band, where the periodic
    spectrum stops being trustworthy.
    """
    if T < 0:
        raise ValueError("propagation time must be non-negative")
    k = state.spec.k_grid()
    p = k + state.p_offset
    f = sfft.fft(state.field)
    dens = np.abs(f) ** 2
    total = np.sum(dens)
    edge = np.abs(k) >= (1.0 - edge_fraction) * state.spec.k_cutoff
    if total > 0 and float(np.sum(dens[edge]) / total) > edge_tol:
        raise SpectralOverflow(
            "significant amplitude at the spectral band edge")
    f *= np.exp(-1j * (T * p**2 + 0.5 * g * T**2 * p))
    psi = sfft.ifft(f)
    return GridState(state.spec, psi, state.time + T,
                     state.p_offset + 0.5 * g * T)
