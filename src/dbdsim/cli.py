"""Command-line front end.

Subcommands: efficiency-scan, tscan, contrast-sweep, fluctuation,
optimize, oracle-compare.  Every command reads a flat key=value config
(--config) and writes one result table (--out) as CSV or JSON.  Handlers
return (table, extra provenance, exit code); main stamps the provenance
(command, version, seed, config hash, extras, timestamp) and writes.

Exit codes: 0 success, 2 config validation failure, 3 numerical
failure, 4 optimizer budget exhausted (best-so-far still written).
--workers alone sets the process count.  Identical config and seed give
identical numeric payloads for any worker count: parallel work items
are reassembled in grid order.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from datetime import datetime, timezone
from itertools import repeat

import numpy as np

from . import __version__
from . import grid as grid_mod
from . import interferometer as itf
from . import multilevel, strategies, tls
from .exceptions import NUMERICAL_ERRORS, ConfigError, NoExtremaFound
from .io import ResultTable, ScenarioConfig
from .units import ConstantDetuning, GaussianWavePacket, PulseEnvelope

# --- config -> domain objects ----------------------------------------

def _strategy_from(cfg, name=None):
    """StrategySpec of name, or of the `strategy` key; the ideal strategy
    has no pulses."""
    if name is None:
        name = cfg.get_str("strategy",
                           choices=("ideal",) + strategies.BUILTIN_NAMES)
    return strategies.builtin_strategy(name)


def _epsilons(key, values):
    """values, read from key; an epsilon outside [0, 1] is a ConfigError."""
    if not all(0.0 <= value <= 1.0 for value in values):
        raise ConfigError(f"{key}: epsilon must lie in [0, 1]")
    return values


def _momenta(key, values):
    """values, read from key; a momentum outside the first zone, |p| >= 1,
    is a ConfigError, as a packet reaching the zone edge is."""
    if not all(abs(value) < 1.0 for value in values):
        raise ConfigError(f"{key}: momentum must lie in the first zone, "
                          "|p| < 1")
    return values


def _keyed(key, make, *args, **kwargs):
    """make(*args, **kwargs); its ValueError is a ConfigError naming key."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _epsilon_from(cfg):
    return _epsilons("epsilon", [cfg.get_float("epsilon", 0.0)])[0]


def _packet_from(cfg, default=None, **fixed):
    """GaussianWavePacket(source.p0 or 0, source.sigma_p or default);
    default None makes source.sigma_p required.  fixed values stand in
    for their keys, which are then not read.  The packet is config, so
    one outside the first zone (OutOfZone) is a ConfigError."""
    kw = {"p0": 0.0, "sigma_p": default, **fixed}
    for key in ("p0", "sigma_p"):
        if key not in fixed and (cfg.has(f"source.{key}") or kw[key] is None):
            kw[key] = cfg.get_float(f"source.{key}")
    return _keyed("source", GaussianWavePacket, **kw)


def _mz_from_config(cfg, name=None, source=None):
    """MzConfig of the scenario keys; name and source stand in for the
    `strategy` and `source.*` keys when given."""
    strat = _strategy_from(cfg, name)
    g = cfg.get_float("g")
    if source is None:
        source = _packet_from(cfg)
    detection = cfg.get_str("detection", "unresolved",
                            choices=("unresolved", "resolved"))
    return itf.MzConfig(
        strategy=strat, g=g, source=source, epsilon=_epsilon_from(cfg),
        detection=detection, n_max=cfg.get_int("n_max", 2),
        rtol=cfg.get_float("rtol", 1e-9),
        n_nodes=cfg.get_int("n_nodes", 64))


def _t_grid_from(cfg, g, points=None):
    """t.min, t.max and t.points together, or the default grid; given a
    default count points, t.points alone spaces over the default span."""
    if points is not None and not (cfg.has("t.min") or cfg.has("t.max")):
        n = cfg.get_int("t.points", points)
        if n < 1:
            raise ConfigError("t.points: need t.points >= 1")
        full = itf.default_t_grid(g)
        return np.linspace(full[0], full[-1], n)
    if not any(cfg.has(k) for k in ("t.min", "t.max", "t.points")):
        return itf.default_t_grid(g)
    lo = cfg.get_float("t.min")
    hi = cfg.get_float("t.max")
    n = cfg.get_int("t.points")
    if n < 2 or hi <= lo or lo < 0:
        raise ConfigError("t.points/t.min/t.max: need t.points >= 2 "
                          "and 0 <= t.min < t.max")
    return np.linspace(lo, hi, n)


def _shape_from(cfg):
    return cfg.get_str("pulse.shape", "box", choices=("box", "gaussian"))


def _envelope_from(cfg):
    return _keyed("pulse.omega/pulse.tau", PulseEnvelope, _shape_from(cfg),
                  cfg.get_float("pulse.omega"), cfg.get_float("pulse.tau"),
                  cfg.get_float("pulse.center", 0.0))


def _detuning_from(cfg):
    return _keyed("pulse.delta", ConstantDetuning,
                  cfg.get_float("pulse.delta", 0.0))


def _pulse_from(cfg):
    """(envelope, protocol, mirror_input) of a named strategy's `pulse`
    (bs or mirror; a mirror's input is port +1) or of the pulse.* keys."""
    if not cfg.has("strategy"):
        return _envelope_from(cfg), _detuning_from(cfg), False
    strat = _strategy_from(cfg)
    if strat.bs is None:
        raise ConfigError("strategy: ideal has no physical pulse here")
    which = cfg.get_str("pulse", "bs", choices=("bs", "mirror"))
    return (*getattr(strat, which), which == "mirror")


def _axis_from(cfg, prefix):
    lo = cfg.get_float(f"{prefix}.min")
    hi = cfg.get_float(f"{prefix}.max")
    n = cfg.get_int(f"{prefix}.points")
    if n < 1 or hi < lo:
        raise ConfigError(f"{prefix}.points/{prefix}.min/{prefix}.max: "
                          "need points >= 1 and min <= max")
    return np.linspace(lo, hi, n)


# --- efficiency-scan -------------------------------------------------

def _oracle_pulse(env, protocol, epsilon, packet, n_nodes,
                  mirror_input=False):
    """Grid-oracle port histogram about packet.p0 after one pulse on the
    packet's quadrature nodes; a mirror input starts in port +1."""
    state = grid_mod.node_wavepacket(grid_mod.GridSpec(), packet, n_nodes)
    if mirror_input:
        state = replace(state, q=state.q + 2.0)
    state = grid_mod.split_step_pulse(state, env, protocol, epsilon)
    return grid_mod.momentum_histogram(state, packet.p0)


def _cmd_efficiency_scan(cfg, args, seed, workers):
    model = cfg.get_str("model", "multilevel",
                        choices=("tls", "multilevel", "grid_oracle"))
    scan = cfg.get_str("scan", "tau_omega",
                       choices=("tau_omega", "p_epsilon"))
    kind = cfg.get_str("kind", "bs",
                       choices=("bs", "mirror_plus", "mirror_minus"))
    if model != "multilevel" and (scan, kind) != ("tau_omega", "bs"):
        raise ConfigError(f"model: {model} scans take scan = tau_omega "
                          "and kind = bs")
    full_kind = "beam_splitter" if kind == "bs" else kind
    epsilon = _epsilon_from(cfg)
    n_max = cfg.get_int("n_max", 2)
    rtol = cfg.get_float("rtol", 1e-9)
    extra = {"model": model, "kind": kind}

    if scan == "p_epsilon":
        env, protocol = _envelope_from(cfg), _detuning_from(cfg)
        p_axis = _momenta("p.min/p.max", _axis_from(cfg, "p"))
        e_axis = _epsilons("epsilon_axis", _axis_from(cfg, "epsilon_axis"))
        # the whole scan in one grouped solve, one group per epsilon column
        p_grid, e_grid = np.meshgrid(p_axis, e_axis)
        mats = multilevel.propagate_unitaries(
            p_grid, [env] * e_axis.size, [protocol] * e_axis.size, e_grid,
            n_max=n_max, rtol=rtol)
        effs = multilevel.transfer_efficiency(mats, full_kind)
        # p-major: epsilon runs fastest
        return ResultTable(("p", "epsilon", "efficiency"),
                           zip(p_grid.T.ravel(), e_grid.T.ravel(),
                               effs.T.ravel())), extra, 0

    cells = [(tau, omega) for tau in _axis_from(cfg, "tau")
             for omega in _axis_from(cfg, "omega")]
    shape = _shape_from(cfg)
    protocol = _detuning_from(cfg)
    envs = [_keyed("tau/omega", PulseEnvelope, shape, float(omega),
                   float(tau)) for tau, omega in cells]

    if model == "grid_oracle":
        packet = _packet_from(cfg, 0.01)
        # 64 nodes, as model = multilevel takes on a packet
        hists = itf._pool_map(_oracle_pulse, workers, envs, repeat(protocol),
                              repeat(epsilon), repeat(packet), repeat(64))
        effs = [h.populations[1] + h.populations[-1] for h in hists]
    elif model == "tls":  # the whole scan in one grouped solve
        effs = [s.population(1) for s in tls.evolve_tls(
            tls.TlsState(1.0, 0.0), envs, [protocol] * len(envs), epsilon,
            rtol=rtol)]
    else:  # packet-averaged when source.sigma_p is set, else a plane wave
        if cfg.has("source.sigma_p"):
            nodes, weights = _packet_from(cfg).momentum_quadrature(64)
        else:
            p0 = cfg.get_float("source.p0", 0.0)
            nodes, weights = _momenta("source.p0", [p0])[0], 1.0
        # the whole scan in one grouped solve, one group per cell
        mats = multilevel.propagate_unitaries(
            np.broadcast_to(nodes, (len(envs), np.size(nodes))), envs,
            [protocol] * len(envs), epsilon, n_max=n_max, rtol=rtol)
        effs = [float(np.sum(weights * multilevel.transfer_efficiency(
            u, full_kind))) for u in mats]

    taus, omegas = zip(*cells)
    return ResultTable(("tau", "omega", "efficiency"),
                       zip(taus, omegas, effs)), extra, 0


# --- tscan -----------------------------------------------------------

def _cmd_tscan(cfg, args, seed, workers):
    mz = _mz_from_config(cfg)
    scan = itf.t_scan(mz, _t_grid_from(cfg, mz.g))
    table = ResultTable(("T", "P1", "P2", "P3", "P_sum"),
                        zip(scan.t_grid, scan.p1, scan.p2, scan.p3,
                            scan.p_sum))
    extra = {"strategy": mz.strategy.name, "detection": mz.detection}
    for fit in scan.surrogates:
        extra.update({f"{fit.pulse}_nodes": fit.nodes,
                      f"{fit.pulse}_tail": fit.tail,
                      f"{fit.pulse}_unitarity": fit.unitarity})
    try:
        res = itf.extract_contrast(scan)
        extra.update(contrast=res.contrast, t_max=res.t_max,
                     t_min=res.t_min, fit_residual=res.fit_residual)
    except NoExtremaFound:
        extra["contrast"] = float("nan")
    return table, extra, 0


# --- contrast-sweep --------------------------------------------------

def _cmd_contrast_sweep(cfg, args, seed, workers):
    axis = cfg.get_str("axis", choices=("sigma_p", "p0", "epsilon"))
    values = cfg.get_float_list("values")
    if axis == "epsilon":
        _epsilons("values", values)
    names = [n.strip() for n in cfg.get_str("strategies").split(",")
             if n.strip()]
    if not names:
        raise ConfigError("strategies: name at least one strategy")
    allowed = ("ideal",) + strategies.BUILTIN_NAMES
    for i, n in enumerate(names):
        if n not in allowed:
            raise ConfigError(f"strategies: unknown strategy {n!r}")
        if n in names[:i]:
            raise ConfigError(f"strategies: {n!r} is named twice")
    # every swept packet up front; the swept key itself is never read
    packets = [_packet_from(cfg, 0.05, **({} if axis == "epsilon"
                                          else {axis: v})) for v in values]
    configs = {name: _mz_from_config(cfg, name, packets[0])
               for name in names}
    t_grid = _t_grid_from(cfg, cfg.get_float("g"))

    # one scenario per (value, strategy) cell, in table order
    cells = [replace(configs[name], epsilon=float(v)) if axis == "epsilon"
             else replace(configs[name], source=packet)
             for v, packet in zip(values, packets) for name in names]
    contrasts = itf._pool_map(_contrast, workers, cells, repeat(t_grid))
    columns = [contrasts[j::len(names)] for j in range(len(names))]
    return ResultTable((axis,) + tuple(f"contrast_{n}" for n in names),
                       zip(values, *columns)), {"axis": axis}, 0


def _contrast(config, t_grid):
    """Fringe contrast of one scenario on t_grid; picklable."""
    return itf.extract_contrast(itf.t_scan(config, t_grid)).contrast


# --- fluctuation -----------------------------------------------------

def _cmd_fluctuation(cfg, args, seed, workers):
    mz = _mz_from_config(cfg)
    sigma_r = cfg.get_float("sigma_r")
    result = itf.fluctuation_robustness(
        mz, sigma_r, n_shots=cfg.get_int("n_shots", 10), seed=seed,
        t_grid=_t_grid_from(cfg, mz.g))
    table = ResultTable(("shot", "contrast"), enumerate(result.contrasts))
    return table, {"strategy": mz.strategy.name, "sigma_r": sigma_r,
                   "mean_contrast": result.mean,
                   "std_contrast": result.std}, 0


# --- optimize --------------------------------------------------------

def _cmd_optimize(cfg, args, seed, workers):
    sampling = cfg.get_str("sampling", "uniform",
                           choices=("uniform", "packet"))
    n_samples = cfg.get_int("n_samples", 17 if sampling == "uniform" else 25)
    if n_samples < 3:
        raise ConfigError("n_samples: need at least three momentum samples")
    # the mirror serves a packet at rest; source.p0 is not read
    sigma_p = _packet_from(cfg, 0.05, p0=0.0).sigma_p
    if sampling == "uniform":
        half = cfg.get_float("sample_halfwidth", 0.2)
        samples = tuple(_momenta("sample_halfwidth",
                                 np.linspace(-half, half, n_samples)))
    else:
        samples = strategies.packet_quantiles(n_samples, sigma_p)
    # a problem the optimizer refuses (ValueError) is exit 2 in main
    problem = strategies.oct_mirror_problem(
        budget=cfg.get_int("budget", 5000),
        delta_max=cfg.get_float("delta.max", 4.0),
        n_knots=cfg.get_int("knots", 8), momentum_samples=samples,
        rtol=cfg.get_float("rtol", 1e-6))
    result = strategies.optimize(problem, seed=seed)
    knots_out = cfg.get_str("knots.out", args.out + ".knots.txt")
    strategies.save_knot_table(knots_out, result.protocol,
                               strategy="oct_hybrid", seed=seed)
    eta = strategies.integrated_mirror_efficiency(
        (result.envelope, result.protocol), sigma_p=sigma_p)

    table = ResultTable(("improvement", "best_cost"),
                        enumerate(result.cost_history))
    return table, {
        "sampling": sampling,
        "final_cost": result.cost,
        "evaluations_used": str(result.evaluations_used),
        "budget_exhausted": str(result.budget_exhausted).lower(),
        "integrated_mirror_efficiency": eta,
        "knot_table": knots_out}, 4 if result.budget_exhausted else 0


# --- oracle-compare --------------------------------------------------

def _cmd_oracle_compare(cfg, args, seed, workers):
    scenario = cfg.get_str("scenario", "pulse", choices=("pulse", "mz"))
    if scenario == "mz":
        mz = _mz_from_config(cfg)
        if mz.strategy.bs is None:
            raise ConfigError("strategy: ideal has no physical pulse here")
        t_grid = _t_grid_from(cfg, mz.g, points=20)
        model = itf.t_scan(mz, t_grid).p_sum
        oracle = itf.oracle_fringe(mz, t_grid, workers=workers).p_sum
        diffs = np.abs(model - oracle)
        table = ResultTable(("T", "model_psum", "oracle_psum", "abs_diff"),
                            zip(t_grid, model, oracle, diffs))
        return table, {"scenario": scenario, "grid_dt": grid_mod.GridSpec.dt,
                       "max_abs_diff": float(max(diffs))}, 0

    epsilon = _epsilon_from(cfg)
    env, protocol, mirror_input = _pulse_from(cfg)
    packet = _packet_from(cfg, 0.01)
    rtol = cfg.get_float("rtol", 1e-9)
    n_max = cfg.get_int("n_max", 2)
    if not 1 <= n_max <= 5:  # the grid histogram resolves ports |k| <= 5
        raise ConfigError("n_max: scenario = pulse needs 1 <= n_max <= 5")
    nodes, weights = packet.momentum_quadrature(cfg.get_int("n_nodes", 64))
    mats = multilevel.propagate_unitaries(
        nodes, env, protocol, epsilon, n_max=n_max, rtol=rtol, basis="bare")
    model = weights @ (np.abs(mats[:, :, int(mirror_input)]) ** 2)
    hist = _oracle_pulse(env, protocol, epsilon, packet, nodes.size,
                         mirror_input)
    ports = multilevel.port_offsets(n_max)
    oracle = np.array([hist.populations[round(off / 2)] for off in ports])
    diffs = np.abs(model - oracle)
    table = ResultTable(("port", "model", "oracle", "abs_diff"),
                        zip(ports, model, oracle, diffs))
    return table, {"scenario": scenario, "oracle_residual": hist.residual,
                   "grid_dt": grid_mod.GridSpec.dt,
                   "max_abs_diff": float(max(diffs))}, 0


# --- entry point -----------------------------------------------------

_HANDLERS = {
    "efficiency-scan": _cmd_efficiency_scan,
    "tscan": _cmd_tscan,
    "contrast-sweep": _cmd_contrast_sweep,
    "fluctuation": _cmd_fluctuation,
    "optimize": _cmd_optimize,
    "oracle-compare": _cmd_oracle_compare,
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="dbdsim",
        description="Double Bragg diffraction pulse and interferometer "
                    "simulations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="flat key=value scenario file")
        p.add_argument("--out", required=True, help="output table path")
        p.add_argument("--format", default="csv", choices=("csv", "json"))
        p.add_argument("--seed", type=int, default=None,
                       help="overrides the seed key in the config")
        p.add_argument("--workers", type=int, default=1, help="process count")
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    try:
        cfg = ScenarioConfig.from_file(args.config)
        seed = args.seed if args.seed is not None else cfg.get_int("seed", 0)
        if args.workers < 1:
            raise ConfigError("workers: must be at least 1")
        table, extra, code = _HANDLERS[args.command](cfg, args, seed,
                                                     args.workers)
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        for key, value in {"command": args.command, "version": __version__,
                           "seed": seed, "config_hash": cfg.config_hash(),
                           **extra, "timestamp": stamp}.items():
            table.set_provenance(key, value)
        table.write(args.out, args.format)
        return code
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # several numerical guards subclass ValueError, so they must be
    # picked off before the config-error family
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError and BoundViolation among them
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
