"""Named drive strategies and a knotted-detuning pulse optimizer.

Four interferometer parameterizations ship ready-made: resonant pulses
(c_dbd), a constant beam-splitter offset (cd_dbd), linear sweeps on both
pulses (ds_dbd), and sweep beam splitters around a mirror whose detuning
profile was found by the optimizer in this module (oct_hybrid).  The
mirror profile is committed as a plain-text knot table and loaded, not
re-optimized, at import time.  A fifth, ideal, has no pulses: the
composition takes lossless splitter and mirror matrices instead.

The optimizer is derivative-free on purpose: the cost surface is smooth
in the knot values only down to the integrator's adaptive-step noise, so
simplex descent from a structured prescan is both robust and cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .multilevel import (integrated_efficiency, propagate_unitaries,
                         transfer_efficiency)
from .units import (ConstantDetuning, GaussianWavePacket, KnotDetuning,
                    LinearDetuning, PulseEnvelope)

BS_OMEGA, BS_TAU = 2.0, 0.47
MIRROR_OMEGA, MIRROR_TAU = 2.89, 0.64
CD_BS_DELTA = 0.27
DS_BS_SWEEP = (0.37, 0.315)
DS_MIRROR_SWEEP = (0.75, -4.0)
# The mirror sweep reaches -8.5 at the leading support edge, so it needs
# more headroom than the default +-4 band.
DS_MIRROR_BOUND = 16.0
# The oct_hybrid mirror envelope, on its control window [0, 2 t0]: the
# profile is defined on a finite window symmetric about its center, so
# the Gaussian is truncated there (about 10% of peak at the edges)
# rather than at the usual six widths.
OCT_MIRROR_ENVELOPE = PulseEnvelope("gaussian", 2.502, 1.829, 3.879,
                                    support=(0.0, 2.0 * 3.879))
KNOT_TABLE = "oct_mirror_knots.txt"
BUILTIN_NAMES = ("c_dbd", "cd_dbd", "ds_dbd", "oct_hybrid")


@dataclass(frozen=True)
class StrategySpec:
    """Beam-splitter and mirror drives of one interferometer recipe;
    both None for the ideal strategy, which has no pulses."""

    name: str
    bs: tuple | None  # (PulseEnvelope, DetuningProtocol)
    mirror: tuple | None


def builtin_strategy(name):
    """Published parameterization of a named strategy; ideal has none."""
    if name == "ideal":
        return StrategySpec(name, None, None)
    bs_env = PulseEnvelope("gaussian", BS_OMEGA, BS_TAU)
    m_env = PulseEnvelope("gaussian", MIRROR_OMEGA, MIRROR_TAU)
    flat = ConstantDetuning(0.0)
    if name == "c_dbd":
        return StrategySpec(name, (bs_env, flat), (m_env, flat))
    if name == "cd_dbd":
        return StrategySpec(name, (bs_env, ConstantDetuning(CD_BS_DELTA)),
                            (m_env, flat))
    ds_bs = LinearDetuning(*DS_BS_SWEEP, width=BS_TAU, center=0.0)
    if name == "ds_dbd":
        ds_m = LinearDetuning(*DS_MIRROR_SWEEP, width=MIRROR_TAU, center=0.0,
                              bound=DS_MIRROR_BOUND)
        return StrategySpec(name, (bs_env, ds_bs), (m_env, ds_m))
    if name == "oct_hybrid":
        return StrategySpec(name, (bs_env, ds_bs),
                            (OCT_MIRROR_ENVELOPE, load_knot_table()))
    raise ValueError(f"no builtin strategy named {name!r}")


# --- cost functionals -------------------------------------------------

TARGETS = ("bs_balanced", "mirror_bidirectional")  # candidate_costs scores


def bs_cost(candidate, momentum_samples, epsilon_samples=(0.0,), rtol=1e-9):
    """Balanced-splitting cost averaged over (p, epsilon) samples.

    <|0.5 - P_plus| + |0.5 - P_minus| + |P_plus - P_minus|>, with P_pm
    the +-2 hbar k_L populations for input |p>.  Zero for a perfect
    50/50 splitter everywhere; 1 for a null pulse.  One candidate_costs call.
    """
    return candidate_costs("bs_balanced", [candidate], momentum_samples,
                           epsilon_samples, rtol)[0]


def mirror_cost(candidate, momentum_samples, rtol=1e-9):
    """Bidirectional inversion cost <|1 - F_plus| + |1 - F_minus|>_p.

    F_plus is the |p+2> -> |p-2> transfer and F_minus its reverse; a
    null pulse scores 2, a perfect mirror 0.  One candidate_costs call.
    """
    return candidate_costs("mirror_bidirectional", [candidate],
                           momentum_samples, (0.0,), rtol)[0]


def candidate_costs(target, candidates, momentum_samples,
                    epsilon_samples=(0.0,), rtol=1e-9):
    """bs_cost or mirror_cost, by target, of every candidate in one solve.

    The one cost kernel, of optimize too, on the 5-level ladder; mirror
    costs are taken at epsilon = 0.  Each candidate is one group of
    propagate_unitaries, so its cost is bit for bit what it scores alone.
    """
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}")
    p = np.asarray(momentum_samples, dtype=float)
    eps = np.asarray(epsilon_samples if target == "bs_balanced" else (0.0,),
                     dtype=float)
    if p.size == 0 or eps.size == 0:
        raise ValueError("sample sets must be non-empty")
    p, eps = np.tile(p, eps.size), np.repeat(eps, p.size)
    envelopes, protocols = zip(*candidates)
    u = propagate_unitaries(np.broadcast_to(p, (len(candidates), p.size)),
                            envelopes, protocols, eps, rtol=rtol)
    return [_score(target, row) for row in u]


def _score(target, u):
    """A candidate's cost from its bare-basis pulse matrices (B, d, d)."""
    if target == "bs_balanced":
        p_plus = np.abs(u[:, 1, 0]) ** 2
        p_minus = np.abs(u[:, 2, 0]) ** 2
        terms = (np.abs(0.5 - p_plus) + np.abs(0.5 - p_minus)
                 + np.abs(p_plus - p_minus))
    else:
        terms = (np.abs(1.0 - transfer_efficiency(u, "mirror_plus"))
                 + np.abs(1.0 - transfer_efficiency(u, "mirror_minus")))
    return float(np.mean(terms))


# --- optimizer --------------------------------------------------------

@dataclass(frozen=True)
class OptimizationProblem:
    """Search space for one pulse: a fixed envelope + K detuning knots.

    A candidate is its K knot values, and so is each warm start.  Knot
    values live in [-delta_max, +delta_max]; out-of-band iterates are
    clipped, never rejected, so simplex steps cannot wander off.
    """

    target: str  # one of TARGETS
    envelope: PulseEnvelope
    knot_times: tuple
    momentum_samples: tuple
    epsilon_samples: tuple = (0.0,)
    delta_max: float = 4.0
    budget: int = 5000
    rtol: float = 1e-6
    warm_starts: tuple = ()

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if len(self.momentum_samples) == 0 or len(self.epsilon_samples) == 0:
            raise ValueError("sample sets must be non-empty")
        if not all(abs(p) < 1.0 for p in self.momentum_samples):
            raise ValueError("momentum samples must lie in the first zone, "
                             "|p| < 1")
        if len(self.knot_times) < 2:
            raise ValueError("need at least two knots, got "
                             f"{len(self.knot_times)}")
        if not self.delta_max > 0:
            raise ValueError("delta_max must be positive, got "
                             f"{self.delta_max}")
        if self.budget < 100:
            raise ValueError("budget must be at least 100 evaluations")
        k = len(self.knot_times)
        if any(len(w) != k for w in self.warm_starts):
            raise ValueError(f"a warm start must hold {k} knot values")


@dataclass(frozen=True)
class OptimizationResult:
    envelope: PulseEnvelope
    protocol: KnotDetuning
    cost: float
    cost_history: tuple
    evaluations_used: int
    budget_exhausted: bool

    @property
    def best(self):
        return (self.envelope, self.protocol)


class _OutOfBudget(Exception):
    pass


def _structured_knots(times, delta_max):
    """Constant levels crossed with linear ramps through the window center."""
    times = np.asarray(times, dtype=float)
    mid = 0.5 * (times[0] + times[-1])
    half = 0.5 * (times[-1] - times[0])
    out = []
    for level in np.linspace(-delta_max, delta_max, 9):
        for slope in np.linspace(-delta_max, delta_max, 9):
            out.append(np.clip(level + slope * (times - mid) / half,
                               -delta_max, delta_max))
    return out


def optimize(problem, seed=0):
    """Prescan-then-polish simplex search, deterministic per seed.

    A structured prescan (constant and ramped knot profiles plus random
    draws and any warm starts) ranks cheap single evaluations, all solved
    in one grouped call; the best four become Nelder-Mead starting
    points, and a tight-tolerance simplex touches up the winner.  Every
    cost goes through score, the one budget ledger: it charges a batch
    before the grouped candidate_costs call, refuses one the budget
    cannot pay for, and records the running best and the strictly
    improving cost history.  When the budget skips the polish or the
    ledger refuses a point, the result is flagged `budget_exhausted` and
    carries the best candidate seen.
    """
    from scipy.optimize import minimize  # slow to import; only used here

    rng = np.random.default_rng(seed)
    times = np.asarray(problem.knot_times, dtype=float)
    k = times.size

    def build(x):
        knots = np.clip(x, -problem.delta_max, problem.delta_max)
        return problem.envelope, KnotDetuning(tuple(times), tuple(knots),
                                              bound=problem.delta_max)

    used, best_cost, best_x, history = 0, math.inf, None, []

    def score(points, rtol):
        nonlocal used, best_cost, best_x
        if used + len(points) > problem.budget:
            raise _OutOfBudget
        used += len(points)
        costs = candidate_costs(
            problem.target, [build(x) for x in points],
            problem.momentum_samples, problem.epsilon_samples, rtol)
        for x, c in zip(points, costs):
            if c < best_cost:
                best_cost, best_x = c, np.array(x, dtype=float)
                history.append(c)
        return costs

    candidates = [np.asarray(w, dtype=float) for w in problem.warm_starts]
    candidates += _structured_knots(times, problem.delta_max)
    candidates += [rng.uniform(-problem.delta_max, problem.delta_max, k)
                   for _ in range(min(160, problem.budget // 8))]

    # The prescan is one grouped solve, cut to the budget.  The budget
    # floor of 100 makes it at least 81 structured candidates.
    prescan = candidates[:problem.budget]
    scored = sorted(zip(score(prescan, problem.rtol), prescan),
                    key=lambda sc: sc[0])
    n_polish = 4
    touch_up = 150  # final tight-tolerance simplex, at most
    # The touch-up keeps at most half of what the prescan left, and never
    # so much that the polish gets fewer than 10 evaluations per start.
    left = problem.budget - used
    reserve = max(0, min(touch_up, left // 2, left - 10 * n_polish))
    per_start = (left - reserve) // n_polish
    polish_skipped = per_start < 10

    # Polish the best starts, then touch up the winner with a
    # tight-tolerance simplex so the reported cost is trustworthy.  A
    # prescan cut to the budget leaves nothing, so the ledger refuses the
    # touch-up's first point.
    exhausted = False
    try:
        for rank in range(0 if polish_skipped else n_polish):
            minimize(lambda x: score([x], problem.rtol)[0], scored[rank][1],
                     method="Nelder-Mead",
                     options=dict(maxfev=per_start, xatol=1e-4, fatol=1e-7))
        minimize(lambda x: score([x], min(problem.rtol, 1e-8))[0], best_x,
                 method="Nelder-Mead",
                 options=dict(maxfev=touch_up, xatol=1e-5, fatol=1e-9))
    except _OutOfBudget:
        exhausted = True

    env, protocol = build(best_x)
    return OptimizationResult(env, protocol, best_cost, tuple(history), used,
                              exhausted or polish_skipped)


# --- knot table persistence ------------------------------------------

def save_knot_table(path, protocol, strategy, seed):
    """Plain-text knot rows "t delta" under a header naming the source."""
    lines = [f"# strategy={strategy} seed={seed} bound={protocol.bound:.17g}"]
    for t, d in zip(protocol.times, protocol.values):
        lines.append(f"{t:.17g} {d:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_knot_table(text):
    bound = 4.0
    times, values = [], []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if token.startswith("bound="):
                    bound = float(token[6:])
            continue
        t, d = line.split()
        times.append(float(t))
        values.append(float(d))
    if len(times) < 2:
        raise ValueError("knot table needs at least two rows")
    return KnotDetuning(tuple(times), tuple(values), bound=bound)


def load_knot_table(path=None):
    """Read a knot table; defaults to the committed mirror profile."""
    if path is None:
        text = (resources.files("dbdsim") / "data" / KNOT_TABLE).read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    return parse_knot_table(text)


def oct_mirror_problem(*, momentum_samples, budget=5000, delta_max=4.0,
                       n_knots=8, rtol=1e-6, warm_starts=()):
    """The mirror optimization this package ships results for, on the
    given momentum samples; the knots span the control window uniformly.
    """
    if n_knots < 2:
        raise ValueError(f"need at least two knots, got {n_knots}")
    times = tuple(np.linspace(*OCT_MIRROR_ENVELOPE.support, n_knots))
    return OptimizationProblem("mirror_bidirectional", OCT_MIRROR_ENVELOPE,
                               times, tuple(momentum_samples), (0.0,),
                               delta_max=delta_max, budget=budget, rtol=rtol,
                               warm_starts=tuple(warm_starts))


def packet_quantiles(n, sigma_p):
    """Momentum samples of a packet at rest: (k + 1/2)/n of N(0, sigma_p)."""
    from statistics import NormalDist  # 3 ms to import; only used here
    inv_cdf = NormalDist(0.0, sigma_p).inv_cdf
    return tuple(inv_cdf((k + 0.5) / n) for k in range(n))


def integrated_mirror_efficiency(candidate, sigma_p):
    """Packet-averaged mirror transfer for a candidate (env, protocol),
    on 64 nodes of the 5-level ladder at rtol 1e-9."""
    packet = GaussianWavePacket(0.0, sigma_p)
    return integrated_efficiency(packet, "mirror_plus", candidate[0],
                                 candidate[1], rtol=1e-9)
