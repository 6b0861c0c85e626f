"""Cross-checks and accessors that only the tests use.

They live here rather than in the package: the closed-form three-path
amplitudes, the fringe fit and the semiclassical phase are independent
checks of the interferometer composition (acceptance 4 and 8), so they
stay apart from the code they check.  The rest are conveniences the
tests read results through.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from dbdsim.interferometer import t_scan, total_s_matrix


@dataclass(frozen=True)
class FringeFit:
    frequency: float  # vs T^2
    phase: float
    amplitude: float
    offset: float


def semiclassical_phase(a, T):
    """Leading-order phase 4 a T^2 for effective momentum 4 k_L."""
    return 4.0 * a * np.asarray(T, dtype=float) ** 2


def three_path_amplitudes(b1, m, b3, g, p, T):
    """Closed-form reduced amplitudes from the three spatially closed paths.

    Writes the output column for input port 0 as three explicit terms,
    one per closed path (stay central; down-then-up; up-then-down),
    with the free-fall phase theta(x) = -(T x^2 + g T^2 x / 2) attached
    to each segment momentum by hand.  Deliberately independent of the
    matrix composition so the two can be compared.
    """
    p2 = p + 0.5 * g * T

    def theta(x):
        return -(T * x**2 + 0.5 * g * T**2 * x)

    paths = (
        (0, 0, theta(p) + theta(p2)),
        (1, 2, theta(p - 2.0) + theta(p2 + 2.0)),
        (2, 1, theta(p + 2.0) + theta(p2 - 2.0)),
    )
    out = np.zeros(b1.shape[0], dtype=complex)
    for l, k, phase in paths:
        out += b3[:, l] * m[l, k] * b1[k, 0] * np.exp(1j * phase)
    return out


def port_populations(config, T, p=None):
    """(P1, P2, P3), the central, +2 and -2 ports, for one shot at
    interrogation time T.

    With p given, plane-wave populations at that quasi-momentum;
    otherwise integrated over the source packet by Gauss-Legendre
    quadrature on its support.
    """
    if p is not None:
        s = total_s_matrix(config, p, T)
        return (abs(s[0, 0]) ** 2, abs(s[1, 0]) ** 2, abs(s[2, 0]) ** 2)
    scan = t_scan(config, np.array([T]))
    return (float(scan.p1[0]), float(scan.p2[0]), float(scan.p3[0]))


def fit_fringe(scan, freq_guess=None):
    """Least-squares cosine fit of P_sum against T^2.

    Model a0 + A cos(omega T^2 + phi); the frequency of an ideal fringe
    equals 4g.  freq_guess defaults to the semiclassical value.
    """
    y = scan.t_grid**2
    sig = scan.p_sum
    w0 = 4.0 * abs(scan.config.g) if freq_guess is None else freq_guess

    def model(yy, a0, a, w, ph):
        return a0 + a * np.cos(w * yy + ph)

    p0 = [float(np.mean(sig)), 0.5 * float(np.ptp(sig)), w0, math.pi]
    popt, _ = curve_fit(model, y, sig, p0=p0, maxfev=20000)
    a0, a, w, ph = popt
    if a < 0:
        a, ph = -a, ph + math.pi
    return FringeFit(float(w), float(ph % (2 * math.pi)), float(a),
                     float(a0))


# StrategySpec holds its two pulses as (envelope, protocol) pairs.

def bs_envelope(spec):
    return spec.bs[0]


def bs_protocol(spec):
    return spec.bs[1]


def mirror_envelope(spec):
    return spec.mirror[0]


def mirror_protocol(spec):
    return spec.mirror[1]


def momentum_centroid(state):
    """Population-weighted mean momentum of a grid.GridState."""
    w = np.abs(state.amp) ** 2
    return float(np.sum(w * state.momenta()) / np.sum(w))


def momentum_variance(state):
    w = np.abs(state.amp) ** 2
    dev = state.momenta() - momentum_centroid(state)
    return float(np.sum(w * dev**2) / np.sum(w))
