"""Mach-Zehnder composition: pulse S-matrices, fringes, contrast.

The three-pulse sequence is the time-ordered product

    S_tot(g, p, T) = B(p3) U(p2) M(p2) U(p1) B(p1)

with quasi-momenta p1 = p, p2 = p + gT/2, p3 = p + gT and the free
propagator diagonal in the bare basis, U(q) = exp[-i(T q^2 + (g T^2/2) q)]
evaluated at q = p + 2k.  Pulse matrices use each pulse's own local
clock; the kinetic phases inside a pulse window are part of its
S-matrix, and U covers the center-to-center separation T.

Detection modes: `unresolved` sums every intermediate path;
`resolved` keeps only the momentum-reversal pairs that stay spatially
closed: the mirror entries (l, k) whose bare ports carry opposite
offsets, port_offsets[l] == -port_offsets[k], on a ladder of any size.
The grid oracle applies the same rule to its ladders (_detected_mirror).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from . import grid as grid_mod
from .exceptions import IntegratorFailure, NoExtremaFound, OutOfZone
from .multilevel import port_offsets, propagate_unitaries
from .strategies import StrategySpec
from .units import GaussianWavePacket, _require_finite

# Polynomial degrees of the pulse surrogates on the first zone: the
# first try, and the cap past which refinement gives up (doubling in
# between).  At degree 64 no built-in pulse reaches a tail of 1e-9.
_FIRST_DEGREE = 128
_MAX_DEGREE = 512
# (T, node) pairs that t_scan composes at once.
_BLOCK_PAIRS = 4096


@dataclass(frozen=True)
class MzConfig:
    """One interferometer scenario; the interrogation time is given per
    call.  epsilon, the polarization imbalance, lies in [0, 1].  The
    ideal strategy, which has no pulses, composes the ideal matrices.
    """

    strategy: StrategySpec
    g: float
    source: GaussianWavePacket
    epsilon: float = 0.0
    detection: str = "unresolved"
    n_max: int = 2
    rtol: float = 1e-9
    n_nodes: int = 64

    def __post_init__(self):
        _require_finite("acceleration g", self.g)
        if self.detection not in ("unresolved", "resolved"):
            raise ValueError(f"unknown detection mode {self.detection!r}")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")


@dataclass(frozen=True)
class SurrogateFit:
    """How one pulse surrogate on the first zone, p in [-1, 1], converged.

    nodes is the number of Chebyshev points, of which the (nodes + 1) / 2
    with p >= 0 are solved and the rest filled in by the p -> -p fold;
    tail is the largest Chebyshev coefficient, over all matrix elements,
    in the top eighth of the final degree range; unitarity is the
    largest |U^dagger U - I| entry over the solved nodes.
    """

    pulse: str  # splitter | mirror
    nodes: int
    tail: float
    unitarity: float


@dataclass(frozen=True)
class FringeScan:
    """Port populations over an interrogation-time grid.

    surrogates holds the SurrogateFit of each solved pulse (empty for
    ideal pulses and for the grid oracle).
    """

    t_grid: np.ndarray
    p1: np.ndarray  # central port
    p2: np.ndarray  # +2 hbar k_L port
    p3: np.ndarray  # -2 hbar k_L port
    config: MzConfig
    surrogates: tuple = ()

    @property
    def p_sum(self):
        return self.p2 + self.p3


@dataclass(frozen=True)
class ContrastResult:
    """fit_residual is the RMS residual of the single-harmonic fit that
    located the extrema (see extract_contrast)."""

    contrast: float
    t_max: float
    t_min: float
    fit_residual: float


@dataclass(frozen=True)
class FluctuationResult:
    """Per-shot contrasts with their mean and population std.

    Both statistics are taken about the first shot, so identical shots
    report std == 0.0 exactly and mean equal to the common contrast.
    """
    mean: float
    std: float
    contrasts: tuple


def ideal_bs_matrix(n_max=2):
    """Lossless splitter: |0> -> -i (|+2> + |-2>)/sqrt2, outer orders kept."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    s = 1.0 / math.sqrt(2.0)
    b = np.eye(2 * n_max + 1, dtype=complex)
    b[0, 0] = 0.0
    b[1, 0] = b[2, 0] = -1j * s
    b[0, 1] = b[0, 2] = -1j * s
    b[1, 1] = b[2, 2] = 0.5
    b[1, 2] = b[2, 1] = -0.5
    return b


def ideal_mirror_matrix(n_max=2):
    """Perfect inversion |+2> <-> |-2>; central and outer ports untouched."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    m = np.eye(2 * n_max + 1, dtype=complex)
    m[1, 1] = m[2, 2] = 0.0
    m[1, 2] = m[2, 1] = -1j
    return m


def _theta(q, g, T):
    return T * q**2 + 0.5 * g * T**2 * q


def _ladder(z, T, n_max):
    """Free-fall phases of the orders relative to order 0, the one
    builder of U's diagonal: since theta(p + 2k) = theta(p)
    + k(4Tp + gT^2) + 4Tk^2, they are z^k exp(-4iTk^2) at +2k and
    conj(z)^k exp(-4iTk^2) at -2k, with z = exp[-i(4Tp + gT^2)], in
    port_offsets order on an axis before the last of the batch z and T
    broadcast to.  The batch has an axis, so every product runs through
    numpy's array loops, never its scalar math, and an element rounds
    the same whatever the batch around it."""
    shape = np.broadcast_shapes(z.shape, T.shape)
    u = np.empty(shape[:-1] + (2 * n_max + 1,) + shape[-1:], dtype=complex)
    u[..., 0, :] = 1.0
    zk = z
    for k in range(1, n_max + 1):
        w = np.exp(-1j * (4.0 * k * k * T))
        np.multiply(zk, w, out=u[..., 2 * k - 1, :])
        np.multiply(np.conjugate(zk), w, out=u[..., 2 * k, :])
        zk = zk * z
    return u


def _check_zone(config, t_max):
    wp = config.source
    reach = abs(wp.p0) + 6.0 * wp.sigma_p + abs(config.g) * t_max
    if reach >= 1.0:
        raise OutOfZone(
            f"|p| reaches {reach:.3f} >= 1 during the sequence; "
            "reduce g*T or the source spread")


def _detected(config, m):
    """Mirror matrices as the detection sees them.

    Resolved detection keeps only the entries (l, k) that reverse the
    momentum offset, port_offsets[l] == -port_offsets[k].
    """
    if config.detection == "unresolved":
        return m
    off = port_offsets(config.n_max)
    return m * (off[:, None] == -off[None, :])


def _detected_mirror(state, mirror, epsilon, center):
    """The mirror pulse on grid ladders, as resolved detection sees it.

    The ladder form of _detected's mask: by linearity the kept entries
    make sum_k P(-k) M P(k), where P(k) keeps port k about center.  One
    masked copy of the ladders per port holding more than
    grid._KEEP_TOL of the norm (the bound the pulse kernel accepts for
    the orders it leaves out) runs through one pulse as stacked rows;
    copy k keeps port -k, and the copies sum back into one state.
    """
    ports = grid_mod._ports(state, center)
    dens = np.abs(state.amp) ** 2
    held = [k for k in np.unique(ports)
            if np.sum(dens[ports == k]) > grid_mod._KEEP_TOL * dens.sum()]
    masked = [np.where(ports == k, state.amp, 0.0) for k in held]
    stacked = replace(state, q=np.tile(state.q, len(held)),
                      amp=np.concatenate(masked))
    out = grid_mod.split_step_pulse(stacked, mirror[0], mirror[1], epsilon)
    copies = np.split(out.amp, len(held))
    amp = sum(np.where(ports == -k, a, 0.0) for k, a in zip(held, copies))
    return replace(out, q=state.q, amp=amp)


def _compose(config, b1, m, b3, p, T):
    """B3 U(p + gT/2) M U(p) B1, less the common phase
    exp[-i(theta(p) + theta(p + gT/2))], on the (T, momentum) pairs p and
    T broadcast to, (..., n).  Vectors are (..., d, n), the momenta
    innermost; b1 is (d, n) or (d, 1) input columns, and m (detected) and
    b3 (output rows) are one matrix or one per pair, (..., rows, d, n)."""
    g, n_max = config.g, config.n_max
    # z at p + gT/2 is z exp(-2igT^2): one exponential per pair.  The
    # temporary stays the left factor: numpy may reuse a large one for
    # the product, and swapped complex factors can round differently
    z = np.exp(-1j * (4.0 * T * p + g * T**2))
    v = _apply(m, _ladder(z, T, n_max) * b1)
    v *= _ladder(z * np.exp(-2j * g * T**2), T, n_max)
    return _apply(b3, v)


def _apply(a, v):
    """a v, a pair's bits alike in any batch: for one matrix a BLAS
    product of one shape per leading index of v, else einsum's loops."""
    return a @ v if a.ndim == 2 else np.einsum("...jkn,...kn->...jn", a, v)


def _solve(p, pulse, config):
    """Bare-basis pulse matrices at momenta p, at the config's tolerance."""
    return propagate_unitaries(p, pulse[0], pulse[1], config.epsilon,
                               n_max=config.n_max, rtol=config.rtol,
                               basis="bare")


def total_s_matrix(config, p, T, matrices=None):
    """Full (2 n_max + 1)-square sequence matrix at quasi-momentum p and
    interrogation time T >= 0.

    matrices optionally supplies pre-built (b1, m, b3) pulse matrices,
    bypassing the solver; useful for cached scans and cross-checks.
    """
    if not T >= 0:
        raise ValueError("interrogation time must be non-negative")
    _require_finite("quasi-momentum p", p)
    g = config.g
    _check_zone(config, T)
    p1, p2, p3 = p, p + 0.5 * g * T, p + g * T
    for q in (p1, p2, p3):
        if abs(q) >= 1.0:
            raise OutOfZone(f"quasi-momentum {q:.3f} leaves the first zone")
    if matrices is not None:
        b1, m, b3 = matrices
    elif config.strategy.bs is None:
        b1 = b3 = ideal_bs_matrix(config.n_max)
        m = ideal_mirror_matrix(config.n_max)
    else:
        strat = config.strategy
        b1 = _solve(p1, strat.bs, config)
        m = _solve(p2, strat.mirror, config)
        b3 = _solve(p3, strat.bs, config)
    s = _compose(config, b1, _detected(config, m), b3, np.array([p]),
                 np.array([T]))  # one pair, broadcast over b1's columns
    return np.exp(-1j * (_theta(p, g, T) + _theta(p2, g, T))) * s


def _chebyshev_tail(values):
    """Largest coefficient in the top eighth of the degree range.

    values holds samples at the n+1 Chebyshev points of the second kind;
    a type-1 DCT of each real and imaginary matrix-element column gives
    n times its Chebyshev coefficients.
    """
    n = values.shape[0] - 1
    cols = np.ascontiguousarray(values).reshape(n + 1, -1).view(float)
    coef = _dct1(cols) / n
    return float(np.max(np.abs(coef[n - n // 8:])))


def _dct1(cols):
    """Type-1 DCT along axis 0: the real part of the real FFT of the even
    extension, the transform pocketfft runs inside scipy.fft.dct(type=1),
    so the two agree bit for bit."""
    return np.fft.rfft(np.concatenate((cols, cols[-2:0:-1])), axis=0).real


def _barycentric(nodes, values, p):
    """Evaluate the interpolant through (nodes, values) at momenta p.

    Barycentric formula for Chebyshev points of the second kind (Berrut
    & Trefethen, SIAM Rev. 46, 501 (2004)); momenta that coincide with a
    node take its value exactly.  p is (..., n), one BLAS product of one
    shape per leading index, so a row's bits do not depend on its batch.
    """
    n = nodes.size - 1
    w = np.where(np.arange(n + 1) % 2, -1.0, 1.0)
    w[0] *= 0.5
    w[-1] *= 0.5
    c = p[..., None] - nodes
    hit = c == 0.0
    c[hit] = 1.0
    np.divide(w, c, out=c)
    c[hit.any(axis=-1)] = 0.0
    c[hit] = 1.0
    c /= c.sum(axis=-1, keepdims=True)
    flat = np.ascontiguousarray(values).reshape(n + 1, -1).view(float)
    return (c @ flat).view(complex).reshape(p.shape + values.shape[1:])


def _surrogate_matrices(pulse, label, config):
    """Chebyshev surrogate of a pulse on the whole first zone, p in [-1, 1].

    The degree doubles from _FIRST_DEGREE until the coefficient tail
    drops to config.rtol, so the interpolation error stays below the
    solver tolerance; past _MAX_DEGREE it raises IntegratorFailure rather
    than return a coarser answer.  Only the points with p >= 0 are
    solved, in one batch: U(-p) = R U(p) R, with R swapping the bare
    ports of opposite offsets, |p + 2n> and |p - 2n>, since the carrier
    does not depend on p.  _check_zone keeps every momentum a scan
    composes inside the zone.
    Returns the nodes, the matrices there and the SurrogateFit.
    """
    off = port_offsets(config.n_max)
    r = np.argmax(off[:, None] == -off, axis=0)
    degree = _FIRST_DEGREE
    while True:
        half = np.cos(np.pi * np.arange(degree // 2 + 1) / degree)
        half[-1] = 0.0
        solved = _solve(half, pulse, config)
        nodes = np.concatenate((half, -half[-2::-1]))
        values = np.concatenate((solved, solved[-2::-1][:, r[:, None], r]))
        tail = _chebyshev_tail(values)
        if tail <= config.rtol:
            break
        if 2 * degree > _MAX_DEGREE:
            raise IntegratorFailure(
                f"{label} surrogate on the first zone did not converge: "
                f"Chebyshev tail {tail:.3g} > rtol {config.rtol:.3g} at "
                f"{degree + 1} nodes")
        degree *= 2
    defect = np.abs(solved.conj().swapaxes(1, 2) @ solved - np.eye(off.size))
    fit = SurrogateFit(label, degree + 1, tail, float(defect.max()))
    return nodes, values, fit


def _checked_t_grid(t_grid):
    """t_grid as a float array, refused unless it is a fringe grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    if (t_grid.size == 0 or not np.isfinite(t_grid).all() or t_grid[0] < 0
            or np.any(np.diff(t_grid) < 0)):
        raise ValueError("t_grid must be non-empty, finite, ascending, >= 0")
    return t_grid


def t_scan(config, t_grid):
    """Fringe signals over an ascending grid of interrogation times T >= 0.

    Pulse matrices come from two Chebyshev surrogates on the first zone
    (see _surrogate_matrices), which no T grid changes: one splitter
    surrogate serves the first splitter at the quadrature nodes p and the
    final one at p + gT, and one mirror surrogate serves p + gT/2.  Each
    holds its interpolation error below config.rtol, the solver
    tolerance, and its node count, final tail and unitarity defect are
    recorded in FringeScan.surrogates.  Free-propagation phases always
    use exact momenta.  The T grid is interpolated and composed in
    blocks of about _BLOCK_PAIRS (T, node) pairs, the nodes innermost,
    with the splitter column of input port 0, the three detected rows of
    the last splitter and no common phase (no population sees it); a
    row's bits do not depend on its block or on the rest of the grid.
    """
    t_grid = _checked_t_grid(t_grid)
    g = config.g
    _check_zone(config, float(t_grid[-1]))
    wp = config.source
    p_nodes, weights = wp.momentum_quadrature(config.n_nodes)
    n = p_nodes.size

    ideal = config.strategy.bs is None
    if ideal:
        fits = ()
        bs = ideal_bs_matrix(config.n_max)
        b1, b3 = bs[:, :1], bs[:3]
        mirror = _detected(config, ideal_mirror_matrix(config.n_max))
    else:
        strat = config.strategy
        bs_nodes, bs_values, bs_fit = _surrogate_matrices(
            strat.bs, "splitter", config)
        m_nodes, m_values, m_fit = _surrogate_matrices(
            strat.mirror, "mirror", config)
        fits = (bs_fit, m_fit)
        b1 = _barycentric(bs_nodes, bs_values[:, :, :1], p_nodes)[:, :, 0].T

    out = np.empty((t_grid.size, 3))
    rows = max(1, _BLOCK_PAIRS // n)
    for i in range(0, t_grid.size, rows):
        T = t_grid[i:i + rows, None]
        if ideal:
            m, b = mirror, b3
        else:  # (T, row, column, node) views, the nodes innermost
            m, b = (a.transpose(0, 2, 3, 1) for a in (
                _detected(config, _barycentric(m_nodes, m_values,
                                               p_nodes + 0.5 * g * T)),
                _barycentric(bs_nodes, bs_values[:, :3], p_nodes + g * T)))
        amps = _compose(config, b1, m, b, p_nodes, T)
        pop = np.abs(amps.transpose(0, 2, 1)) ** 2  # one gemv per T row
        out[i:i + rows] = weights @ np.ascontiguousarray(pop)
    return FringeScan(t_grid, out[:, 0], out[:, 1], out[:, 2], config, fits)


def default_t_grid(g):
    """103 T samples uniform in x = 4|g|T^2 over [0.05 pi, 2.6 pi], so
    steps of pi / 40 in x: dense enough for extrema work."""
    _require_finite("acceleration g", g)
    if g == 0:
        raise ValueError("need a non-zero acceleration for a fringe grid")
    x = np.linspace(0.05 * math.pi, 2.6 * math.pi, 103)
    return np.sqrt(x / (4.0 * abs(g)))


def _parabolic_refine(x, y, idx, sign):
    """Vertex of the parabola through points idx-1, idx, idx+1 of (x, y);
    sign=+1 max.  x need not be uniform."""
    if idx == 0 or idx == len(x) - 1:
        return x[idx], y[idx]
    x0, x1, x2 = x[idx - 1:idx + 2]
    y0, y1, y2 = y[idx - 1:idx + 2]
    d1 = (y1 - y0) / (x1 - x0)
    curv = ((y2 - y1) / (x2 - x1) - d1) / (x2 - x0)
    if curv == 0 or sign * (y1 - y0) < 0 or sign * (y1 - y2) < 0:
        return x1, y1
    # Newton form y0 + d1 (x - x0) + curv (x - x0)(x - x1)
    xv = 0.5 * (x0 + x1) - 0.5 * d1 / curv
    yv = y0 + (xv - x0) * (d1 + curv * (xv - x1))
    return xv, yv


def extract_contrast(scan):
    """Peak-to-trough amplitude of the first fringe period of P_sum.

    A single-harmonic least-squares fit in x = 4|g|T^2 locates the
    dominant fringe's first crest at or after the scan start, and the
    trough pi after it (pi before it when that is past the scan's end);
    the raw signal is then searched within a half-period window around
    each and refined by a three-point parabola.  Fitting first makes the
    search immune to the fast parasitic wiggles that ride on
    offset-momentum fringes, which would otherwise masquerade as the
    first local extremum.  The RMS residual of that fit is reported as
    fit_residual.
    """
    g = scan.config.g
    signal = scan.p_sum
    if g == 0 or scan.t_grid.size < 5:
        raise NoExtremaFound("no fringe: zero acceleration or scan too short")
    x = 4.0 * abs(g) * scan.t_grid**2
    if x[-1] - x[0] < 2.0 * math.pi * 0.999:
        raise NoExtremaFound("scan covers less than one fringe period")

    design = np.column_stack(
        [np.ones_like(x), np.cos(x), np.sin(x)])
    coef = np.linalg.lstsq(design, signal, rcond=None)[0]
    _, c, s = coef
    residual = math.sqrt(np.mean((signal - design @ coef) ** 2))
    amp = math.hypot(c, s)
    if amp < 1e-12:
        raise NoExtremaFound("fringe amplitude indistinguishable from zero")
    x_crest = x[0] + (math.atan2(s, c) - x[0]) % (2.0 * math.pi)
    x_trough = x_crest + (math.pi if x_crest + math.pi <= x[-1] else -math.pi)

    def windowed(center, sign):
        mask = (x >= center - 0.5 * math.pi) & (x <= center + 0.5 * math.pi)
        if not np.any(mask):
            raise NoExtremaFound("fringe extremum outside the scanned range")
        idx_local = np.argmax(sign * signal[mask])
        idx = np.flatnonzero(mask)[idx_local]
        return _parabolic_refine(x, signal, idx, sign)

    x_max, y_max = windowed(x_crest, +1)
    x_min, y_min = windowed(x_trough, -1)
    t_max = math.sqrt(x_max / (4.0 * abs(g)))
    t_min = math.sqrt(x_min / (4.0 * abs(g)))
    contrast = float(np.clip(y_max - y_min, 0.0, 1.0))
    return ContrastResult(contrast, t_max, t_min, residual)


def fluctuation_robustness(config, sigma_r, n_shots=10, seed=0, t_grid=None):
    """Shot-to-shot drive-amplitude noise: mean and spread of contrast.

    Each shot draws one relative scale for both splitters and one for
    the mirror from Normal(1, sigma_r), rebuilds the pulse matrices and
    re-extracts the contrast; all scales are drawn before the first
    solve, and one <= 0 is a ValueError naming sigma_r and the shot.
    Deterministic for a given seed.  The ideal strategy has no pulses to
    perturb: ValueError.

    The mean and population std are taken about the first shot, which
    leaves both statistics unchanged up to rounding but keeps them exact
    for identical shots: a zero-noise run reports std == 0.0 and mean
    equal to the common contrast.
    """
    strat = config.strategy
    if strat.bs is None:
        raise ValueError(f"strategy {strat.name} has no pulses to perturb")
    if not 0 <= sigma_r < math.inf:
        raise ValueError(f"sigma_r must be finite and non-negative, "
                         f"got {sigma_r}")
    if n_shots < 2:
        raise ValueError(f"n_shots must be at least 2, got {n_shots}")
    if t_grid is None:
        t_grid = default_t_grid(config.g)
    scales = np.random.default_rng(seed).normal(1.0, sigma_r, (n_shots, 2))
    for i, row in enumerate(scales):
        if not (row > 0).all():
            raise ValueError(f"sigma_r = {sigma_r:g} draws drive scale "
                             f"{row.min():.3g} <= 0 for shot {i}")
    contrasts = []
    for bs_scale, m_scale in scales.tolist():
        shot = StrategySpec(
            strat.name,
            (strat.bs[0].scaled(bs_scale), strat.bs[1]),
            (strat.mirror[0].scaled(m_scale), strat.mirror[1]))
        scan = t_scan(replace(config, strategy=shot), t_grid)
        contrasts.append(extract_contrast(scan).contrast)
    arr = np.asarray(contrasts)
    dev = arr - arr[0]
    return FluctuationResult(float(arr[0] + dev.mean()), float(dev.std()),
                             tuple(contrasts))


# --- grid-oracle pipeline --------------------------------------------

def _pool_map(fn, workers, items, *args):
    """list(map(fn, items, *args)); pooled for workers > 1 and 2+ items,
    on no more processes than items, as the pool forks them all at once."""
    if workers > 1 and len(items) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(min(workers, len(items))) as pool:
            return list(pool.map(fn, items, *args))
    return list(map(fn, items, *args))


def _oracle_point(T, after_bs1, config):
    """One interrogation time of the grid interferometer; picklable."""
    strat, epsilon, g = config.strategy, config.epsilon, config.g
    p0 = config.source.p0
    st = grid_mod.free_propagate_analytic(after_bs1, g, T)
    if config.detection == "resolved":
        st = _detected_mirror(st, strat.mirror, epsilon, p0 + 0.5 * g * T)
    else:
        st = grid_mod.split_step_pulse(st, strat.mirror[0], strat.mirror[1],
                                       epsilon)
    st = grid_mod.free_propagate_analytic(st, g, T)
    st = grid_mod.split_step_pulse(st, strat.bs[0], strat.bs[1], epsilon)
    hist = grid_mod.momentum_histogram(st, p0 + g * T)
    return (hist.populations[0], hist.populations[1], hist.populations[-1])


def oracle_fringe(config, t_grid, workers=1):
    """t_scan's interferometer on lattice ladders, no basis truncation.

    The packet starts on the model's own config.n_nodes quadrature nodes,
    one ladder each (grid.node_wavepacket) on the default GridSpec.
    Pulses run with their local clocks over their envelope supports and
    the inter-pulse separation is applied analytically, as in the
    S-matrix bookkeeping, so the two pipelines compare point by point.
    Detection follows the model's rule: resolved detection keeps the mirror's port-reversing
    paths (_detected_mirror) with one mirror pulse over a stack of every
    populated port, whose copies share each step's circulant: about
    twice the unresolved time.  T points are independent; with
    workers > 1 they run in a process pool, reassembled in grid order.
    The grid runs pulses only: the ideal strategy raises ValueError.
    """
    strat = config.strategy
    if strat.bs is None:
        raise ValueError(f"strategy {strat.name} has no pulses to run")
    t_grid = _checked_t_grid(t_grid)
    start = grid_mod.node_wavepacket(grid_mod.GridSpec(), config.source,
                                     config.n_nodes)
    after_bs1 = grid_mod.split_step_pulse(start, strat.bs[0], strat.bs[1],
                                          config.epsilon)
    out = np.asarray(_pool_map(_oracle_point, workers, t_grid.tolist(),
                               repeat(after_bs1), repeat(config)))
    return FringeScan(t_grid, out[:, 0], out[:, 1], out[:, 2], config)
