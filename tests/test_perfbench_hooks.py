"""The benchmark's traced run wraps module-level names of the package.

perfbench/layers.py installs its wrappers through `owner.__dict__[attr]`,
so renaming or removing one of those names breaks only the traced
benchmark run.  These tests install the same tracer around small calls.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

from dbdsim import grid, interferometer, strategies
from dbdsim.strategies import builtin_strategy
from dbdsim.units import GaussianWavePacket

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_wraps_a_scan():
    config = interferometer.MzConfig(
        strategy=builtin_strategy("ds_dbd"), g=0.000357,
        source=GaussianWavePacket(0.0, 0.05), n_nodes=8)
    t_grid = interferometer.default_t_grid(config.g)[::25]
    with load_tracer()() as tracer:
        scan = interferometer.t_scan(config, t_grid)
    assert np.all(np.isfinite(scan.p_sum))
    assert tracer.count["multilevel.propagate.calls"] > 0
    assert tracer.count["pairs"] == t_grid.size * config.n_nodes
    # leaving the tracer puts the package's own functions back
    assert "wrapper" not in interferometer.t_scan.__qualname__


def test_tracer_counts_ideal_pairs_without_solves():
    # ideal_fringe's interferometer.ns_per_pair divides t_scan's self
    # time by these pairs; its scans solve nothing
    config = interferometer.MzConfig(
        strategy=builtin_strategy("ideal"), g=0.000357,
        source=GaussianWavePacket(0.0, 0.05), n_nodes=7)
    t_grid = np.linspace(10.0, 80.0, 1500)
    with load_tracer()() as tracer:
        interferometer.t_scan(config, t_grid)
    assert tracer.count["pairs"] == t_grid.size * config.n_nodes
    assert tracer.count["interferometer.t_scan.calls"] == 1
    assert tracer.count["multilevel.propagate.calls"] == 0
    assert tracer.count["nfev"] == 0


def test_tracer_counts_a_cost_evaluation():
    # the traced pulse_design figures come from these two wrappers; a cost
    # path that stops calling multilevel.solve_ivp would read nfev = 0
    with load_tracer()() as tracer:
        cost = strategies.mirror_cost(builtin_strategy("c_dbd").mirror,
                                      (-0.1, 0.0, 0.1), rtol=1e-6)
    assert np.isfinite(cost)
    assert tracer.count["nfev"] > 0
    assert tracer.count["strategies.cost.calls"] == 1


def test_tracer_counts_a_grid_pulse():
    # the traced oracle's grid.steps and grid.points read spec.dt and
    # spec.n_points off the state the pulse receives
    env, protocol = builtin_strategy("ds_dbd").bs
    state = grid.prepare_wavepacket(grid.GridSpec(1024),
                                    GaussianWavePacket(0.0, 0.05))
    with load_tracer()() as tracer:
        grid.split_step_pulse(state, env, protocol)
    t0, t1 = env.support
    assert tracer.count["grid.split_step.calls"] == 1
    assert tracer.count["grid.steps"] == math.ceil((t1 - t0) / 0.001)
    assert tracer.count["grid.points"] == 1024
