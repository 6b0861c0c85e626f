"""Core quantities in recoil units.

Everything in this package is expressed in lattice recoil units:

    hbar = 1,  k_L = 1,  omega_rec = hbar * k_L**2 / (2 m) = 1,

which fixes the atomic mass to m = 1/2.  Momenta are quoted in units of
hbar*k_L, so a plane wave |p> carries kinetic energy p**2 (in omega_rec)
and the first diffraction orders |+-2 hbar k_L> sit at 4 omega_rec.
Times are in 1/omega_rec, accelerations in omega_rec**2 / k_L.

The lattice drive couples momentum classes through the factor

    C(t) = cos[(4 + Delta(t)) t] + epsilon,

where Delta(t) is the (fictitious) two-photon detuning relative to the
four-photon resonance and epsilon the polarization imbalance of the
retro-reflected beams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import BoundViolation, OutOfZone

# Four-photon resonance of the +-2 hbar k_L doublet, in omega_rec.
RESONANCE = 4.0

# Default band for detuning protocols, in omega_rec.
DEFAULT_DETUNING_BOUND = 4.0


def carrier_factor(t, delta, epsilon=0.0):
    """Time-dependent drive factor C(t) = cos[(4 + Delta(t)) t] + epsilon."""
    return np.cos((RESONANCE + delta) * t) + epsilon


def _require_finite(what, *values):
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} must be finite")


@dataclass(frozen=True)
class PulseEnvelope:
    """Two-photon Rabi frequency envelope Omega(t).

    Parameters
    ----------
    shape : {'gaussian', 'box'}
        gaussian: Omega_R * exp(-(t - t0)**2 / (2 tau**2)), truncated to
        the support window (default t0 +- 6 tau).
        box: Omega_R on [t0, t0 + tau], zero elsewhere.
    peak : float
        Peak Rabi frequency Omega_R [omega_rec].
    width : float
        tau [1/omega_rec].
    center : float
        t0 [1/omega_rec].  For the box shape this is the leading edge.
    support : (float, float), optional
        Override of the truncation window.
    """

    shape: str
    peak: float
    width: float
    center: float = 0.0
    support: tuple[float, float] | None = None

    def __post_init__(self):
        if self.shape not in ("gaussian", "box"):
            raise ValueError(f"unknown envelope shape {self.shape!r}")
        _require_finite("envelope parameters", self.peak, self.width,
                        self.center, *(self.support or ()))
        if self.peak < 0:
            raise ValueError("peak Rabi frequency must be non-negative")
        if self.width <= 0:
            raise ValueError("envelope width must be positive")
        if self.support is None:
            if self.shape == "gaussian":
                win = (self.center - 6 * self.width, self.center + 6 * self.width)
            else:
                win = (self.center, self.center + self.width)
            object.__setattr__(self, "support", win)
        elif self.support[1] <= self.support[0]:
            raise ValueError("support window must have positive duration")

    def evaluate(self, t):
        """Omega at the times t, of any shape, 0-d included.

        The Gaussian squares through np.float_power, libm pow for every
        element, so a time gives the same bits alone and in any array.
        """
        t = np.asarray(t, dtype=float)
        lo, hi = self.support
        if self.shape == "box":
            lo, hi = max(lo, self.center), min(hi, self.center + self.width)
            val = float(self.peak)
        else:
            val = self.peak * np.exp(np.float_power(t - self.center, 2)
                                     / (-2 * self.width**2))
        return np.where((t >= lo) & (t <= hi), val, 0.0)

    def scaled(self, factor):
        """Same envelope with the peak multiplied by `factor`."""
        return PulseEnvelope(self.shape, self.peak * factor, self.width,
                             self.center, self.support)


@dataclass(frozen=True)
class ConstantDetuning:
    """Delta(t) = value."""

    value: float
    bound: float = DEFAULT_DETUNING_BOUND

    def __post_init__(self):
        _require_finite("detuning and its bound", self.value, self.bound)
        if abs(self.value) > self.bound:
            raise BoundViolation(
                f"constant detuning {self.value} exceeds bound {self.bound}")

    def evaluate(self, t, check=True):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, self.value)


@dataclass(frozen=True)
class LinearDetuning:
    """Linear sweep Delta(t) = (alpha / width) * (t - center) + beta.

    `center` and `width` reference the pulse the sweep belongs to; alpha
    is the dimensionless slope per pulse width and beta the value at the
    pulse center.
    """

    alpha: float
    beta: float
    width: float
    center: float = 0.0
    bound: float = DEFAULT_DETUNING_BOUND

    def __post_init__(self):
        _require_finite("sweep parameters", self.alpha, self.beta,
                        self.width, self.center, self.bound)

    def evaluate(self, t, check=True):
        t = np.asarray(t, dtype=float)
        val = (self.alpha / self.width) * (t - self.center) + self.beta
        if check and np.any(np.abs(val) > self.bound + 1e-12):
            worst = float(np.max(np.abs(val)))
            raise BoundViolation(
                f"linear sweep reaches |Delta|={worst:.4g} > bound {self.bound}")
        return val


def _natural_spline(times, values):
    """Per-interval coefficients, constant term first, of the natural
    cubic spline through the knots, rounded as scipy's
    CubicSpline(bc_type="natural").c: the knot slopes solve its
    tridiagonal system in LAPACK dgtsv's order, row interchanges
    included, and the intervals take CubicHermiteSpline's formulas.
    """
    x, y, n = times, values, len(times)
    h = [b - a for a, b in zip(x, x[1:])]
    m = [(b - a) / w for a, b, w in zip(y, y[1:], h)]
    # sub-, main and superdiagonal; s is the right-hand side, then the slopes
    dl = h[1:] + h[-1:]
    d = [2 * h[0]] + [2 * (a + b) for a, b in zip(h, h[1:])] + [2 * h[-1]]
    du = h[:1] + h[:-1]
    s = ([3 * (y[1] - y[0])]
         + [3 * (h[i] * m[i - 1] + h[i - 1] * m[i]) for i in range(1, n - 1)]
         + [0.0 + 3 * (y[-1] - y[-2])])
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            s[i + 1] = s[i + 1] - fact * s[i]
            dl[i] = 0.0
        else:  # interchange rows i and i + 1; dl[i] becomes fill-in
            fact, d[i], temp = d[i] / dl[i], dl[i], d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            s[i], s[i + 1] = s[i + 1], s[i] - fact * s[i + 1]
    s[-1] = s[-1] / d[-1]
    s[-2] = (s[-2] - du[-1] * s[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        s[i] = (s[i] - du[i] * s[i + 1] - dl[i] * s[i + 2]) / d[i]
    t = [(a + b - 2 * c) / w for a, b, c, w in zip(s, s[1:], m, h)]
    return [[y[i], s[i], (m[i] - s[i]) / h[i] - t[i], t[i] / h[i]]
            for i in range(n - 1)]


@dataclass(frozen=True)
class KnotDetuning:
    """Detuning through ordered (t, Delta) knots, natural cubic spline.

    The spline (_natural_spline) has scipy's natural CubicSpline
    coefficients, and its end cubics extrapolate.  Evaluation clamps the
    interpolant to [-bound, +bound], so spline overshoot between in-band
    knots never leaves the band.  Knot values themselves must be in-band.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]
    bound: float = DEFAULT_DETUNING_BOUND
    _starts: np.ndarray = field(init=False, repr=False, compare=False)
    _coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(float(v) for v in self.values)
        if len(times) != len(values):
            raise ValueError("knot times and values differ in length")
        if len(times) < 2:
            raise ValueError("need at least two knots")
        _require_finite("knots and their bound", *times, *values, self.bound)
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("knot times must be strictly increasing")
        if any(abs(v) > self.bound for v in values):
            raise BoundViolation(
                f"knot values exceed |Delta| <= {self.bound}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        # (4, K - 1), constant terms first; + 0.0 turns a -0.0 into the
        # 0.0 that the power sum 0.0 + c0 + ... would make of it
        coeffs = np.array(_natural_spline(times, values)).T
        coeffs[0] += 0.0
        object.__setattr__(self, "_starts", np.array(times[:-1]))
        object.__setattr__(self, "_coeffs", coeffs)

    def evaluate(self, t, check=True):
        """The spline at the times t, of any shape, 0-d included: each
        time's interval (the end ones extrapolate), its power sum from
        the constant term up, clamped to the band.  Never raises."""
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(self._starts[1:], t, side="right")
        c0, c1, c2, c3 = self._coeffs[:, i]
        s = t - self._starts[i]
        z = s * s
        res = c0 + c1 * s + c2 * z + c3 * (z * s)
        return np.minimum(np.maximum(res, -self.bound), self.bound)


# Any of the concrete protocol flavors above.
DetuningProtocol = ConstantDetuning | LinearDetuning | KnotDetuning


@dataclass(frozen=True)
class GaussianWavePacket:
    """Momentum-space Gaussian amplitude around p0 with width sigma_p.

    psi(p) = (2 pi sigma_p**2)**(-1/4) * exp(-(p - p0)**2 / (4 sigma_p**2)),
    normalized so that integral |psi|**2 dp = 1.  The packet must fit in
    the first zone: |p0| + 6 sigma_p < 1.
    """

    p0: float = 0.0
    sigma_p: float = 0.05

    def __post_init__(self):
        _require_finite("packet parameters", self.p0, self.sigma_p)
        if self.sigma_p <= 0:
            raise ValueError("sigma_p must be positive")
        if abs(self.p0) + 6 * self.sigma_p >= 1.0:
            raise OutOfZone(
                f"|p0| + 6 sigma_p = {abs(self.p0) + 6 * self.sigma_p:.3f} "
                "reaches the zone edge at 1 hbar k_L")

    def momentum_quadrature(self, n_nodes=64):
        """Gauss-Legendre nodes/weights for integrals against |psi|**2.

        Returns (p, w) on [p0 - 6 sigma_p, p0 + 6 sigma_p] with the
        density folded into the weights and renormalized to unit total,
        so sum(w * f(p)) approximates integral |psi(p)|**2 f(p) dp and
        sum(w) == 1 exactly despite the tail truncation.
        """
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be at least 1, got {n_nodes}")
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        lo = self.p0 - 6 * self.sigma_p
        hi = self.p0 + 6 * self.sigma_p
        p = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        norm = (2 * math.pi * self.sigma_p**2) ** (-0.25)
        amp = norm * np.exp(-((p - self.p0) ** 2) / (4 * self.sigma_p**2))
        weights = 0.5 * (hi - lo) * w * (amp * amp)
        return p, weights / weights.sum()
