"""Command-line front end.

Subcommands: efficiency-scan, tscan, contrast-sweep, fluctuation,
optimize, oracle-compare.  Every command reads a flat key=value config
(--config), writes one result table (--out) as CSV or JSON, and stamps
provenance (command, version, seed, config hash, timestamp) into the
output.

Exit codes: 0 success, 2 config validation failure, 3 numerical
failure, 4 optimizer budget exhausted (best-so-far still written).
DBD_SIM_WORKERS overrides --workers.  Identical config and seed give
identical numeric payloads for any worker count: parallel work items
are reassembled in grid order.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from datetime import datetime, timezone
from itertools import repeat

import numpy as np

from . import __version__
from . import grid as grid_mod
from . import interferometer as itf
from . import multilevel, strategies, tls
from .exceptions import (NUMERICAL_ERRORS, BoundViolation, ConfigError,
                         NoExtremaFound)
from .io import ResultTable, ScenarioConfig
from .units import (ConstantDetuning, GaussianWavePacket, PolarizationError,
                    PulseEnvelope)

# --- config -> domain objects ----------------------------------------

def _strategy_from(cfg, name=None):
    if name is None:
        name = cfg.get_str("strategy",
                           choices=("ideal",) + strategies.BUILTIN_NAMES)
    ideal = name == "ideal"
    strat = strategies.builtin_strategy("c_dbd" if ideal else name)
    return name, strat, ideal


def _epsilon_from(cfg):
    value = cfg.get_float("epsilon", 0.0)
    try:
        PolarizationError(value)
    except ValueError as exc:
        raise ConfigError(f"epsilon: {exc}") from None
    return value


def _source_from(cfg):
    p0 = cfg.get_float("source.p0", 0.0)
    sigma_p = cfg.get_float("source.sigma_p")
    try:
        return GaussianWavePacket(p0, sigma_p)
    except ValueError as exc:
        raise ConfigError(f"source: {exc}") from None


def _mz_from_config(cfg, name=None, source=None):
    """(strategy name, MzConfig); name and source stand in for the
    `strategy` and `source.*` keys when given."""
    name, strat, ideal = _strategy_from(cfg, name)
    g = cfg.get_float("g")
    if source is None:
        source = _source_from(cfg)
    detection = cfg.get_str("detection", "unresolved",
                            choices=("unresolved", "resolved"))
    mz = itf.MzConfig(
        strategy=strat, g=g, source=source, epsilon=_epsilon_from(cfg),
        detection=detection, n_max=cfg.get_int("n_max", 2),
        rtol=cfg.get_float("rtol", 1e-9),
        n_nodes=cfg.get_int("n_nodes", 64), ideal_pulses=ideal)
    return name, mz


def _t_grid_from(cfg, g):
    if not any(cfg.has(k) for k in ("t.min", "t.max", "t.points")):
        return itf.default_t_grid(g)
    lo = cfg.get_float("t.min")
    hi = cfg.get_float("t.max")
    n = cfg.get_int("t.points")
    if n < 2 or hi <= lo or lo < 0:
        raise ConfigError("t.points/t.min/t.max: need t.points >= 2 "
                          "and 0 <= t.min < t.max")
    return np.linspace(lo, hi, n)


def _envelope_from(cfg, prefix="pulse"):
    shape = cfg.get_str(f"{prefix}.shape", "box",
                        choices=("box", "gaussian"))
    peak = cfg.get_float(f"{prefix}.omega")
    width = cfg.get_float(f"{prefix}.tau")
    center = cfg.get_float(f"{prefix}.center", 0.0)
    if peak < 0 or width <= 0:
        raise ConfigError(f"{prefix}.omega/{prefix}.tau: "
                          "need omega >= 0 and tau > 0")
    return PulseEnvelope(shape, peak, width, center)


def _pulse_from(cfg):
    """(envelope, protocol) either from a named strategy or pulse.* keys."""
    if cfg.has("strategy"):
        name, strat, ideal = _strategy_from(cfg)
        if ideal:
            raise ConfigError("strategy: ideal has no physical pulse here")
        which = cfg.get_str("pulse", "bs", choices=("bs", "mirror"))
        return strat.bs if which == "bs" else strat.mirror
    env = _envelope_from(cfg)
    delta = cfg.get_float("pulse.delta", 0.0)
    bound = cfg.get_float("pulse.delta_bound", 4.0)
    return env, ConstantDetuning(delta, bound)


def _provenance(table, command, cfg, seed):
    table.set_provenance("command", command)
    table.set_provenance("version", __version__)
    table.set_provenance("seed", seed)
    table.set_provenance("config_hash", cfg.config_hash())


def _finish(table, args, extra=None):
    for key, value in (extra or {}).items():
        table.set_provenance(key, value)
    table.set_provenance(
        "timestamp",
        datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"))
    table.write(args.out, args.format)


# --- efficiency-scan -------------------------------------------------

def _axis_from(cfg, prefix):
    lo = cfg.get_float(f"{prefix}.min")
    hi = cfg.get_float(f"{prefix}.max")
    n = cfg.get_int(f"{prefix}.points")
    if n < 1 or hi < lo:
        raise ConfigError(f"{prefix}.points/{prefix}.min/{prefix}.max: "
                          "need points >= 1 and min <= max")
    return np.linspace(lo, hi, n)


def _tls_transfer(env, protocol, epsilon):
    traj = tls.evolve_tls(tls.TlsState(1.0, 0.0), env, protocol, epsilon)
    return traj.final.population(1)


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
    full_kind = "beam_splitter" if kind == "bs" else kind
    epsilon = _epsilon_from(cfg)
    n_max = cfg.get_int("n_max", 2)
    rtol = cfg.get_float("rtol", 1e-9)

    if scan == "p_epsilon":
        if model != "multilevel":
            raise ConfigError("scan: p_epsilon grids use model = multilevel")
        env = _envelope_from(cfg)
        delta = cfg.get_float("pulse.delta", 0.0)
        protocol = ConstantDetuning(delta, cfg.get_float("pulse.delta_bound",
                                                         4.0))
        p_axis = _axis_from(cfg, "p")
        e_axis = _axis_from(cfg, "epsilon_axis")
        values, errors = multilevel.efficiency_landscape(
            p_axis, e_axis, full_kind, env, protocol, n_max=n_max, rtol=rtol)
        table = ResultTable(("p", "epsilon", "efficiency"))
        for i, p in enumerate(p_axis):
            for j, e in enumerate(e_axis):
                table.append((p, e, values[i, j]))
        _provenance(table, "efficiency-scan", cfg, seed)
        _finish(table, args, {"model": model, "kind": kind,
                              "failed_cells": str(len(errors))})
        return 0

    tau_axis = _axis_from(cfg, "tau")
    omega_axis = _axis_from(cfg, "omega")
    shape = cfg.get_str("pulse.shape", "box", choices=("box", "gaussian"))
    delta = cfg.get_float("pulse.delta", 0.0)
    bound = cfg.get_float("pulse.delta_bound", 4.0)
    p0 = cfg.get_float("source.p0", 0.0)

    cells = []
    for tau in tau_axis:
        for omega in omega_axis:
            env = PulseEnvelope(shape, float(omega), float(tau))
            cells.append((env, ConstantDetuning(delta, bound)))

    if model == "grid_oracle":
        if kind != "bs":
            raise ConfigError("kind: grid_oracle landscapes support bs only")
        packet = GaussianWavePacket(p0, cfg.get_float("source.sigma_p", 0.01))
        # 64 nodes, as integrated_efficiency uses for model = multilevel
        jobs = (*zip(*cells), repeat(epsilon), repeat(packet), repeat(64))
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                hists = list(pool.map(_oracle_pulse, *jobs))
        else:
            hists = list(map(_oracle_pulse, *jobs))
        effs = [h.populations[1] + h.populations[-1] for h in hists]
    elif model == "tls":
        if kind != "bs":
            raise ConfigError("kind: the two-level model reports transfer "
                              "probability; use kind = bs")
        effs = [_tls_transfer(env, prot, epsilon) for env, prot in cells]
    elif cfg.has("source.sigma_p"):
        packet = GaussianWavePacket(p0, cfg.get_float("source.sigma_p"))
        effs = [multilevel.integrated_efficiency(
            packet, full_kind, env, prot, epsilon=epsilon, n_max=n_max,
            rtol=rtol, atol=rtol * 1e-2) for env, prot in cells]
    else:
        effs = [float(multilevel.transfer_efficiency(
            multilevel.propagate_unitaries(
                p0, env, prot, epsilon, n_max=n_max, rtol=rtol,
                atol=rtol * 1e-2), full_kind)) for env, prot in cells]

    table = ResultTable(("tau", "omega", "efficiency"))
    idx = 0
    for tau in tau_axis:
        for omega in omega_axis:
            table.append((tau, omega, effs[idx]))
            idx += 1
    _provenance(table, "efficiency-scan", cfg, seed)
    _finish(table, args, {"model": model, "kind": kind})
    return 0


# --- tscan -----------------------------------------------------------

def _cmd_tscan(cfg, args, seed, workers):
    name, mz = _mz_from_config(cfg)
    scan = itf.t_scan(mz, _t_grid_from(cfg, mz.g))
    table = ResultTable(("T", "P1", "P2", "P3", "P_sum"))
    for i, T in enumerate(scan.t_grid):
        table.append((T, scan.p1[i], scan.p2[i], scan.p3[i],
                      scan.p_sum[i]))
    _provenance(table, "tscan", cfg, seed)
    extra = {"strategy": name, "detection": mz.detection}
    for fit in scan.surrogates:
        extra.update({f"{fit.pulse}_nodes": fit.nodes,
                      f"{fit.pulse}_tail": fit.tail,
                      f"{fit.pulse}_unitarity": fit.unitarity})
    try:
        res = itf.extract_contrast(scan)
        extra.update(contrast=res.contrast, t_max=res.t_max,
                     t_min=res.t_min)
    except NoExtremaFound:
        extra["contrast"] = float("nan")
    _finish(table, args, extra)
    return 0


# --- contrast-sweep --------------------------------------------------

def _cmd_contrast_sweep(cfg, args, seed, workers):
    axis = cfg.get_str("axis", choices=("sigma_p", "p0", "epsilon"))
    values = cfg.get_float_list("values")
    raw_names = cfg.get_str("strategies", cfg.get_str("strategy", None))
    if raw_names is None:
        raise ConfigError("strategies: required key is missing")
    names = [n.strip() for n in raw_names.split(",") if n.strip()]
    allowed = ("ideal",) + strategies.BUILTIN_NAMES
    for n in names:
        if n not in allowed:
            raise ConfigError(f"strategies: unknown strategy {n!r}")
    source = {"p0": cfg.get_float("source.p0", 0.0),
              "sigma_p": cfg.get_float("source.sigma_p", 0.05)}
    if axis in source:  # the swept key's own setting is never used
        source[axis] = values[0]
    source = GaussianWavePacket(**source)
    configs = {name: _mz_from_config(cfg, name, source)[1] for name in names}
    t_grid = _t_grid_from(cfg, cfg.get_float("g"))

    # one contrast_sweep call per (value, strategy) cell, in table order
    cells = [configs[name] for _ in values for name in names]
    cell_values = [[v] for v in values for _ in names]
    jobs = (cells, repeat(axis), cell_values, repeat(t_grid))
    if workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            swept = list(pool.map(itf.contrast_sweep, *jobs))
    else:
        swept = list(map(itf.contrast_sweep, *jobs))
    flat = [rows[0][1] for rows in swept]

    table = ResultTable((axis,) + tuple(f"contrast_{n}" for n in names))
    k = 0
    for v in values:
        row = [float(v)]
        for _ in names:
            row.append(flat[k])
            k += 1
        table.append(row)
    _provenance(table, "contrast-sweep", cfg, seed)
    _finish(table, args, {"axis": axis})
    return 0


# --- fluctuation -----------------------------------------------------

def _cmd_fluctuation(cfg, args, seed, workers):
    name, mz = _mz_from_config(cfg)
    sigma_r = cfg.get_float("sigma_r")
    if sigma_r < 0:
        raise ConfigError("sigma_r: must be non-negative")
    n_shots = cfg.get_int("n_shots", 10)
    if n_shots < 2:
        raise ConfigError("n_shots: need at least two shots")
    result = itf.fluctuation_robustness(mz, sigma_r, n_shots=n_shots,
                                        seed=seed,
                                        t_grid=_t_grid_from(cfg, mz.g))
    table = ResultTable(("shot", "contrast"))
    for i, c in enumerate(result.contrasts):
        table.append((i, c))
    _provenance(table, "fluctuation", cfg, seed)
    _finish(table, args, {"strategy": name, "sigma_r": sigma_r,
                          "mean_contrast": result.mean,
                          "std_contrast": result.std})
    return 0


# --- optimize --------------------------------------------------------

def _cmd_optimize(cfg, args, seed, workers):
    problem_name = cfg.get_str("problem", "oct_mirror",
                               choices=("oct_mirror",))
    budget = cfg.get_int("budget", 5000)
    if budget <= 0:
        raise ConfigError("budget: must be a positive evaluation count")
    sampling = cfg.get_str("sampling", "uniform",
                           choices=("uniform", "packet"))
    n_samples = cfg.get_int("n_samples", 17 if sampling == "uniform" else 25)
    if n_samples < 3:
        raise ConfigError("n_samples: need at least three momentum samples")
    if sampling == "uniform":
        half = cfg.get_float("sample_halfwidth", 0.2)
        samples = tuple(np.linspace(-half, half, n_samples))
    else:
        from scipy.stats import norm
        sigma_p = cfg.get_float("source.sigma_p", 0.05)
        samples = tuple(norm.ppf((np.arange(n_samples) + 0.5) / n_samples,
                                 scale=sigma_p))
    try:
        problem = strategies.oct_mirror_problem(
            budget=budget,
            delta_max=cfg.get_float("delta.max", 4.0),
            n_knots=cfg.get_int("knots", 8),
            momentum_samples=samples,
            rtol=cfg.get_float("rtol", 1e-6))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    result = strategies.optimize(problem, seed=seed)
    knots_out = cfg.get_str("knots.out", args.out + ".knots.txt")
    strategies.save_knot_table(knots_out, result.protocol,
                               strategy="oct_hybrid", seed=seed)
    eta = strategies.integrated_mirror_efficiency(
        (result.envelope, result.protocol),
        sigma_p=cfg.get_float("source.sigma_p", 0.05))

    table = ResultTable(("improvement", "best_cost"))
    for i, cost in enumerate(result.cost_history):
        table.append((i, cost))
    _provenance(table, "optimize", cfg, seed)
    _finish(table, args, {
        "problem": problem_name, "sampling": sampling,
        "final_cost": result.cost,
        "evaluations_used": str(result.evaluations_used),
        "budget_exhausted": str(result.budget_exhausted).lower(),
        "integrated_mirror_efficiency": eta,
        "knot_table": knots_out})
    return 4 if result.budget_exhausted else 0


# --- oracle-compare --------------------------------------------------


def _pulse_compare(cfg, epsilon, mirror_input):
    env, protocol = _pulse_from(cfg)
    p0 = cfg.get_float("source.p0", 0.0)
    sigma_p = cfg.get_float("source.sigma_p", 0.01)
    n_max = cfg.get_int("n_max", 2)
    rtol = cfg.get_float("rtol", 1e-9)
    packet = GaussianWavePacket(p0, sigma_p)

    nodes, weights = packet.momentum_quadrature(cfg.get_int("n_nodes", 64))
    mats = multilevel.propagate_unitaries(
        nodes, env, protocol, epsilon, n_max=n_max, rtol=rtol,
        atol=rtol * 1e-2, basis="bare")
    col = 1 if mirror_input else 0
    model_ports = weights @ (np.abs(mats[:, :, col]) ** 2)

    hist = _oracle_pulse(env, protocol, epsilon, packet, nodes.size,
                         mirror_input)
    oracle_ports = [hist.populations[round(off / 2)]
                    for off in itf.port_offsets(2)]
    return model_ports[:5], oracle_ports, hist.residual


def _cmd_oracle_compare(cfg, args, seed, workers):
    scenario = cfg.get_str("scenario", "pulse", choices=("pulse", "mz"))
    extra = {"scenario": scenario}
    epsilon = _epsilon_from(cfg)
    if scenario == "pulse":
        which = cfg.get_str("pulse", "bs", choices=("bs", "mirror")) \
            if cfg.has("strategy") else "bs"
        model_ports, oracle_ports, residual = _pulse_compare(
            cfg, epsilon, mirror_input=(which == "mirror"))
        table = ResultTable(("port", "model", "oracle", "abs_diff"))
        for off, mv, ov in zip(itf.port_offsets(2), model_ports,
                               oracle_ports):
            table.append((off, mv, ov, abs(mv - ov)))
        diffs = [abs(m - o) for m, o in zip(model_ports, oracle_ports)]
        extra["oracle_residual"] = residual
    else:
        name, mz = _mz_from_config(cfg)
        n_t = cfg.get_int("t.points", 20)
        if cfg.has("t.min") or cfg.has("t.max"):
            t_grid = _t_grid_from(cfg, mz.g)
        else:
            full = itf.default_t_grid(mz.g)
            t_grid = np.linspace(full[0], full[-1], n_t)
        scan = itf.t_scan(mz, t_grid)
        oracle = itf.oracle_fringe(mz, t_grid, workers=workers)
        table = ResultTable(("T", "model_psum", "oracle_psum", "abs_diff"))
        diffs = []
        for i, T in enumerate(t_grid):
            d = abs(scan.p_sum[i] - oracle.p_sum[i])
            diffs.append(d)
            table.append((T, scan.p_sum[i], oracle.p_sum[i], d))
    _provenance(table, "oracle-compare", cfg, seed)
    _finish(table, args, {**extra, "max_abs_diff": float(max(diffs))})
    return 0


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
        p.add_argument("--workers", type=int, default=None,
                       help="process count; DBD_SIM_WORKERS overrides")
    return parser.parse_args(argv)


def _resolve_workers(args):
    env = os.environ.get("DBD_SIM_WORKERS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(
                f"DBD_SIM_WORKERS: expected an integer, got {env!r}") \
                from None
    elif args.workers is not None:
        workers = args.workers
    else:
        workers = 1
    if workers < 1:
        raise ConfigError("workers: must be at least 1")
    return workers


def main(argv=None):
    args = _parse_args(argv)
    try:
        cfg = ScenarioConfig.from_file(args.config)
        seed = args.seed if args.seed is not None else cfg.get_int("seed", 0)
        workers = _resolve_workers(args)
        return _HANDLERS[args.command](cfg, args, seed, workers)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # several numerical guards subclass ValueError, so they must be
    # picked off before the config-error family
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    except (ConfigError, BoundViolation, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
