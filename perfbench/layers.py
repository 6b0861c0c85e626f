"""Per-layer spans for the traced run, installed from outside the package.

Each wrapper records its wall time, the part of it spent in other
wrapped calls (so a layer's self time is total minus child time) and a
few counts.  Wrappers are installed where the caller looks the name up:
`interferometer` and `strategies` import `propagate_unitaries` by name,
so patching `multilevel.propagate_unitaries` alone would miss both.
The timed runs install nothing.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Accumulates span totals and counts while installed (`with`)."""

    def __init__(self):
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.count = defaultdict(float)
        self._stack = []  # [name, child seconds] of the open spans
        self._patches = []
        self._last_nfev = 0

    # -- span machinery ---------------------------------------------

    def _wrap(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self._stack.pop()
                self.total[name] += dur
                self.child[name] += frame[1]
                self.count[name + ".calls"] += 1
                if self._stack:
                    self._stack[-1][1] += dur
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _active(self, name):
        return any(frame[0] == name for frame in self._stack)

    def self_s(self, name):
        return self.total[name] - self.child[name]

    # -- count hooks ----------------------------------------------------

    def _after_solve(self, args, kwargs, sol):
        self._last_nfev = sol.nfev
        self.count["nfev"] += sol.nfev

    def _after_propagate(self, args, kwargs, result):
        systems = int(np.size(args[0]))
        self.count["systems"] += systems
        self.count["system_rhs"] += systems * self._last_nfev
        if self._active("interferometer.t_scan"):
            self.count["t_scan_systems"] += systems

    def _after_t_scan(self, args, kwargs, result):
        config = args[0]
        self.count["pairs"] += result.t_grid.size * config.n_nodes

    def _after_split_step(self, args, kwargs, result):
        state, env = args[0], args[1]
        window = kwargs.get("window") or (args[4] if len(args) > 4
                                          else None)
        t0, t1 = window if window is not None else env.support
        steps = max(1, math.ceil((t1 - t0) / state.spec.dt))
        points = state.spec.n_points
        self.count["grid.steps"] += steps
        self.count["grid.points"] = max(self.count["grid.points"], points)
        self.count["grid.point_steps"] += points * steps
        self.count["grid.fft_calls"] += 2 * (steps + 1)

    def _after_write(self, args, kwargs, result):
        self.count["rows_written"] += len(args[0].rows)

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self):
        from dbdsim import cli, grid, interferometer, io, multilevel
        from dbdsim import strategies, units

        prop = self._wrap("multilevel.propagate",
                          multilevel.propagate_unitaries,
                          self._after_propagate)
        for module in (multilevel, interferometer, strategies):
            self._patch(module, "propagate_unitaries", prop)
        self._patch(multilevel, "solve_ivp",
                    self._wrap("multilevel.solve_ivp", multilevel.solve_ivp,
                               self._after_solve))
        self._patch(interferometer, "t_scan",
                    self._wrap("interferometer.t_scan",
                               interferometer.t_scan, self._after_t_scan))
        self._patch(interferometer, "extract_contrast",
                    self._wrap("interferometer.extract",
                               interferometer.extract_contrast))
        self._patch(strategies, "optimize",
                    self._wrap("strategies.optimize", strategies.optimize))
        for fn in ("mirror_cost", "bs_cost"):
            self._patch(strategies, fn,
                        self._wrap("strategies.cost",
                                   getattr(strategies, fn)))
        for cls in (units.ConstantDetuning, units.LinearDetuning,
                    units.KnotDetuning):
            self._patch(cls, "evaluate",
                        self._wrap("units.protocol", cls.evaluate))
        self._patch(units.PulseEnvelope, "evaluate",
                    self._wrap("units.envelope",
                               units.PulseEnvelope.evaluate))
        self._patch(grid, "split_step_pulse",
                    self._wrap("grid.split_step", grid.split_step_pulse,
                               self._after_split_step))
        self._patch(grid, "free_propagate_analytic",
                    self._wrap("grid.free_flight",
                               grid.free_propagate_analytic))
        self._patch(grid, "momentum_histogram",
                    self._wrap("grid.histogram", grid.momentum_histogram))
        from_file = io.ScenarioConfig.__dict__["from_file"].__func__
        self._patch(io.ScenarioConfig, "from_file",
                    classmethod(self._wrap("io.parse", from_file)))
        self._patch(io.ResultTable, "write",
                    self._wrap("io.write", io.ResultTable.write,
                               self._after_write))
        self._patch(cli, "main", self._wrap("cli.main", cli.main))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- report ---------------------------------------------------------

    def metrics(self, rounds, scale):
        """Per-layer figures per round, with their units; times are
        multiplied by `scale`, the rescaling to the reference speed."""
        t, c = self.total, self.count

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        nfev = c["nfev"]
        out = {
            "multilevel.calls": (c["multilevel.propagate.calls"], "count"),
            "multilevel.systems": (c["systems"], "count"),
            "multilevel.nfev": (nfev, "count"),
            "multilevel.s": (t["multilevel.propagate"], "s"),
            "multilevel.us_per_rhs": (
                ratio(t["multilevel.propagate"], nfev, 1e6), "us"),
            "multilevel.ns_per_system_rhs": (
                ratio(t["multilevel.propagate"], c["system_rhs"], 1e9), "ns"),
            "multilevel.systems_per_pair": (
                ratio(c["t_scan_systems"], 2 * c["pairs"]), "1"),
            "interferometer.t_scan_self_s": (
                self.self_s("interferometer.t_scan"), "s"),
            "interferometer.pairs": (c["pairs"], "count"),
            "interferometer.ns_per_pair": (
                ratio(self.self_s("interferometer.t_scan"), c["pairs"], 1e9),
                "ns"),
            "interferometer.extract_s": (t["interferometer.extract"], "s"),
            "strategies.cost_evals": (c["strategies.cost.calls"], "count"),
            "strategies.cost_s": (t["strategies.cost"], "s"),
            "strategies.optimize_self_s": (
                self.self_s("strategies.optimize"), "s"),
            "units.protocol_evals": (c["units.protocol.calls"], "count"),
            "units.protocol_s": (t["units.protocol"], "s"),
            "units.envelope_s": (t["units.envelope"], "s"),
            "grid.pulses": (c["grid.split_step.calls"], "count"),
            "grid.points": (c["grid.points"], "count"),
            "grid.steps": (c["grid.steps"], "count"),
            "grid.split_step_s": (t["grid.split_step"], "s"),
            "grid.ns_per_point_step": (
                ratio(t["grid.split_step"], c["grid.point_steps"], 1e9), "ns"),
            "grid.fft_calls": (c["grid.fft_calls"], "computed"),
            "grid.free_flight_s": (t["grid.free_flight"], "s"),
            "grid.histogram_s": (t["grid.histogram"], "s"),
            "io.parse_s": (t["io.parse"], "s"),
            "io.write_s": (t["io.write"], "s"),
            "io.rows_written": (c["rows_written"], "count"),
            "cli.self_s": (self.self_s("cli.main"), "s"),
        }
        # Ratios and the grid size are per call already; totals are
        # reported per round so runs of different length compare.
        per_call = {"multilevel.us_per_rhs", "multilevel.ns_per_system_rhs",
                    "multilevel.systems_per_pair", "interferometer.ns_per_pair",
                    "grid.ns_per_point_step", "grid.points"}
        timed = {"s", "us", "ns"}
        return {name: ((value if name in per_call else value / rounds)
                       * (scale if unit in timed else 1.0), unit)
                for name, (value, unit) in out.items()}
