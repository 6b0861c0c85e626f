"""Doppler-aware (2n+1)-level model of a double Bragg pulse.

The truncated momentum ladder couples |p> to the symmetric and
antisymmetric combinations |n,+-> = (|p+2n> +- |p-2n>)/sqrt(2) of the
first n_max diffraction orders.  With the drive factor
C(t) = cos[(4 + Delta(t)) t] + epsilon the non-zero matrix elements are

    <p|H|p>        = p**2            <n,s|H|n,s>     = p**2 + 4 n**2
    <p|H|1,+>      = sqrt(2) Omega C <n,s|H|n+1,s>   = Omega C
    <n,+|H|n,->    = 4 n p

(all in recoil units).  Integration runs in the interaction picture with
the diagonal kinetic part removed, which leaves slow coupling phases
exp(-i 4 t) and exp(-i 4 (2n+1) t) and keeps adaptive steps large.  A
common phase exp(-i p**2 dt) on all channels is dropped; it is global at
fixed quasi-momentum and cancels from every population and from every
relative phase the interferometer module consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .exceptions import NUMERICAL_ERRORS, BoundViolation, IntegratorFailure
from .units import RESONANCE

try:  # what np.einsum calls without `optimize`, minus about 3 us of wrapper
    from numpy._core.einsumfunc import c_einsum as _einsum
except ImportError:  # numpy < 2
    _einsum = np.einsum

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12


@dataclass(frozen=True)
class LevelBasis:
    """Ordered basis {|p>, |1,+>, |1,->, ..., |n_max,+>, |n_max,->}."""

    n_max: int = 2
    p: float = 0.0

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if abs(self.p) >= 1.0:
            raise ValueError("quasi-momentum must satisfy |p| < 1")

    @property
    def dimension(self):
        return 2 * self.n_max + 1

    def kinetic_energies(self):
        """Diagonal kinetic energies p**2 + 4 n**2 in basis order."""
        return self.p**2 + kinetic_offsets(self.n_max)


@dataclass(frozen=True)
class PulseEfficiency:
    kind: str  # a key of EFFICIENCY_ELEMENTS
    value: float
    p: float
    epsilon: float


# Efficiency kind -> the bare-basis (output, input) elements whose
# squared moduli sum to its transfer F.  Mirror momenta are deviations
# from the +-2 hbar k_L carrier.
EFFICIENCY_ELEMENTS = {
    "beam_splitter": ((1, 0), (2, 0)),  # |p> -> |p+2> or |p-2>
    "mirror_plus": ((2, 1),),           # |p+2> -> |p-2>
    "mirror_minus": ((1, 2),),          # |p-2> -> |p+2>
}


def transfer_efficiency(u, kind):
    """F of one efficiency kind from bare-basis pulse matrices (..., d, d)."""
    if kind not in EFFICIENCY_ELEMENTS:
        raise ValueError(f"unknown efficiency kind {kind!r}")
    return sum(np.abs(u[..., i, j]) ** 2 for i, j in EFFICIENCY_ELEMENTS[kind])


def kinetic_offsets(n_max):
    """4 n**2 ladder offsets (p**2 removed), basis order."""
    n = np.arange(1, n_max + 1)
    return np.concatenate(([0.0], np.repeat(4.0 * n * n, 2)))


def bare_transform(n_max):
    """Unitary V with columns = symmetric-basis states in bare order.

    Bare ordering is {|p>, |p+2>, |p-2>, ..., |p+2n>, |p-2n>}; amplitudes
    map as a_bare = V a_sym.
    """
    v = np.eye(2 * n_max + 1)
    s = 1.0 / np.sqrt(2.0)
    for i in range(1, 2 * n_max, 2):  # rows <p+2n|, <p-2n|; columns |n,+->
        v[i:i + 2, i:i + 2] = [[s, s], [s, -s]]
    return v


def build_hamiltonian(basis, t, envelope, protocol, epsilon=0.0):
    """Full Schroedinger-picture matrix at time t, symmetric basis.

    Assembled from _bands, the table propagate_unitaries integrates.
    """
    h = np.zeros((basis.dimension, basis.dimension))
    np.fill_diagonal(h, basis.kinetic_energies())
    t = float(t)
    omega = envelope.at(t)
    c = np.cos((RESONANCE + protocol.at(t)) * t) + epsilon
    drive, doppler = _bands(basis.n_max)
    for i, j, wgt, _ in drive:
        h[i, j] = h[j, i] = wgt * omega * c
    for i, j, rate in doppler:
        h[i, j] = h[j, i] = rate * basis.p
    return h


def _bands(n_max):
    """Upper-triangle couplings of the symmetric basis.

    drive holds (row, col, weight, phase_rate): the element is
    weight * Omega C(t), and it turns at exp(-i phase_rate t) once the
    kinetic offsets are removed.  doppler holds (row, col, rate): the
    constant element rate * p between |n,+> and |n,->.
    """
    drive = [(0, 1, np.sqrt(2.0), 4.0)]
    for n in range(1, n_max):
        rate = 4.0 * (2 * n + 1)
        drive.append((2 * n - 1, 2 * n + 1, 1.0, rate))
        drive.append((2 * n, 2 * n + 2, 1.0, rate))
    doppler = [(2 * n - 1, 2 * n, 4.0 * n) for n in range(1, n_max + 1)]
    return drive, doppler


def propagate_unitaries(p, envelope, protocol, epsilon=0.0, n_max=2,
                        rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, basis="bare",
                        window=None):
    """Pulse propagators for a batch of quasi-momenta.

    Integrates the interaction-picture matrix equation dU/dt = -i Hbar U
    over the envelope support and reattaches the kinetic ladder phases,
    so the returned matrices are Schroedinger-picture pulse unitaries
    (modulo the common exp(-i p**2 dt) phase, see module docstring).

    Parameters
    ----------
    p : float or (B,) array
        Quasi-momenta; the batch shares one time grid.
    envelope, protocol : PulseEnvelope, DetuningProtocol
    epsilon : float or (B,) array
        Polarization imbalance per system.
    basis : {'bare', 'symmetric'}
        Bare ordering is {|p>, |p+2>, |p-2>, ...}; columns are evolved
        input states either way.
    window : (t0, t1), optional
        Integration window override; defaults to the envelope support.

    Returns
    -------
    (B, d, d) complex array, or (d, d) if p was scalar.
    """
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    nsys = p_arr.size
    d = 2 * n_max + 1
    eps = np.broadcast_to(np.asarray(epsilon, float), (nsys,))

    # One bound check over the window; non-finite values would hang DOP853.
    t0, t1 = window if window is not None else envelope.support
    grid = np.linspace(t0, t1, 257)
    given = (grid, envelope.evaluate(grid), protocol.evaluate(grid), p_arr,
             eps)
    if not all(np.isfinite(x).all() for x in given):
        raise IntegratorFailure("non-finite momentum, epsilon or drive")

    bands, doppler = _bands(n_max)
    offsets = kinetic_offsets(n_max)

    # Constant Doppler couplings go into the work matrix once.  The drive
    # entries, every band's upper element and then its mirror image, are
    # written with one put() at flat indices fixed per solve.
    a = np.zeros((nsys, d, d), dtype=complex)
    for i, j, rate in doppler:
        a[:, i, j] = a[:, j, i] = rate * p_arr
    flat = [i * d + j for i, j, *_ in bands]
    flat += [j * d + i for i, j, *_ in bands]
    slots = (np.arange(nsys)[:, None] * d * d + flat).ravel()
    weights = np.array([w for _, _, w, _ in bands] * 2)
    turn = -1j * np.array([rate for *_, rate in bands])

    def rhs(t, y):
        t = float(t)
        drive = envelope.at(t) * (np.cos((RESONANCE + protocol.at(t)) * t)
                                  + eps)
        ph = np.exp(turn * t)
        ph = np.concatenate((ph, ph.conj()))
        a.put(slots, (drive[:, None] * weights) * ph)
        u = y.view(complex).reshape(nsys, d, d)
        du = -1j * _einsum("bij,bjk->bik", a, u)
        return du.reshape(-1).view(float)

    y0 = np.tile(np.eye(d, dtype=complex), (nsys, 1, 1)).ravel().view(float)
    # t_eval=[t1] keeps scipy from storing the state of every accepted step
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", t_eval=[t1],
                    rtol=rtol, atol=atol)
    if not sol.success:
        raise IntegratorFailure(f"pulse integration failed: {sol.message}")
    u_int = sol.y[:, -1].copy().view(complex).reshape(nsys, d, d)

    # U_S = exp(-i E t1) U_I exp(+i E t0) with E the ladder offsets.
    u_s = np.exp(-1j * offsets[:, None] * t1) * u_int \
        * np.exp(1j * offsets[None, :] * t0)
    if basis == "bare":
        v = bare_transform(n_max)
        u_s = v @ u_s @ v.T
    elif basis != "symmetric":
        raise ValueError(f"unknown basis {basis!r}")
    return u_s[0] if np.ndim(p) == 0 else u_s


def bs_transfer(p, envelope, protocol, epsilon=0.0, n_max=2, **kw):
    """(P_plus, P_minus): populations of |p+-2> after a pulse on |p>.

    Batched over p; returns arrays matching the input shape.
    """
    u = propagate_unitaries(p, envelope, protocol, epsilon, n_max=n_max, **kw)
    pp, pm = np.abs(u[..., 1, 0]) ** 2, np.abs(u[..., 2, 0]) ** 2
    return (float(pp), float(pm)) if np.ndim(p) == 0 else (pp, pm)


def bs_efficiency(p, envelope, protocol, epsilon=0.0, n_max=2, **kw):
    """F_BS(p) = P(|p> -> |p+2>) + P(|p> -> |p-2>)."""
    u = propagate_unitaries(p, envelope, protocol, epsilon, n_max=n_max, **kw)
    return PulseEfficiency("beam_splitter",
                           float(transfer_efficiency(u, "beam_splitter")),
                           float(p), float(epsilon))


def mirror_efficiency(p, envelope, protocol, epsilon=0.0, direction="plus",
                      n_max=2, **kw):
    """Mirror transfer with p the deviation from the +-2 hbar k_L carrier.

    direction 'plus':  F_M+(p) = P(|p+2> -> |p-2>)
    direction 'minus': F_M-(p) = P(|p-2> -> |p+2>)
    """
    kind = f"mirror_{direction}"
    if kind not in EFFICIENCY_ELEMENTS:
        raise ValueError(f"unknown mirror direction {direction!r}")
    u = propagate_unitaries(p, envelope, protocol, epsilon, n_max=n_max, **kw)
    return PulseEfficiency(kind, float(transfer_efficiency(u, kind)),
                           float(p), float(epsilon))


def integrated_efficiency(packet, kind, envelope, protocol, epsilon=0.0,
                          n_max=2, n_nodes=64, **kw):
    """eta = integral |psi(p)|**2 F(p) dp over the packet support.

    kind is a key of EFFICIENCY_ELEMENTS; mirror kinds measure p relative
    to the +-2 carrier.
    """
    p, w = packet.momentum_quadrature(n_nodes)
    u = propagate_unitaries(p, envelope, protocol, epsilon, n_max=n_max, **kw)
    return float(np.sum(w * transfer_efficiency(u, kind)))


_CELL_ERRORS = (BoundViolation,) + NUMERICAL_ERRORS


def efficiency_landscape(p_values, eps_values, kind, envelope, protocol,
                         n_max=2, **kw):
    """Dense F(p, epsilon) scan; failed cells become NaN.

    Returns (values, errors) where values has shape
    (len(p_values), len(eps_values)) and errors maps (i, j) -> message.
    Only bound violations and numerical failures make failed cells; any
    other exception is a bug and propagates.
    """
    p_values = np.asarray(p_values, dtype=float)
    eps_values = np.asarray(eps_values, dtype=float)
    out = np.full((p_values.size, eps_values.size), np.nan)
    errors = {}
    for j, eps in enumerate(eps_values):
        try:
            u = propagate_unitaries(p_values, envelope, protocol, eps,
                                    n_max=n_max, **kw)
            out[:, j] = transfer_efficiency(u, kind)
        except _CELL_ERRORS:  # batch failed; retry cells one at a time
            for i, p in enumerate(p_values):
                try:
                    u1 = propagate_unitaries(float(p), envelope, protocol,
                                             eps, n_max=n_max, **kw)
                    out[i, j] = transfer_efficiency(u1, kind)
                except _CELL_ERRORS as exc:
                    errors[(i, j)] = str(exc)
    return out, errors
