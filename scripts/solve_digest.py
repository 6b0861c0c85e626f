#!/usr/bin/env python3
"""Print one SHA-256 per family of solved numbers, to prove bit identity.

A change that only makes the solver faster must leave these digests as
they are.  The families:

- propagate_unitaries: the bs and mirror pulses of the four built-in
  strategies at n_max 1, 2 and 3, in both bases, each pulse alone on a
  1-D p and all eight pulses as the groups of one 2-D p;
- tscan: what `dbdsim tscan` writes for every
  perfbench/scenarios/cs_*.cfg, the T, P1, P2, P3 and P_sum rows and
  the provenance (surrogate tails, contrast, ...) but its timestamp;
- optimize: the cost history, final cost and knots of the
  perfbench/scenarios/pulse_design.cfg mirror search at seed 1;
- oracle: what `dbdsim oracle-compare` writes for every
  perfbench/scenarios/oracle_*.cfg but its timestamp, and the ports of
  an unresolved `oracle_fringe` scan of ds_dbd on GridSpec(2048).

Run from the repository root, on the commit before a change and on the
change, and compare the output:

    PYTHONPATH=src python3 scripts/solve_digest.py

Takes about ten seconds on one core.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from dbdsim import cli, interferometer, strategies
from dbdsim.grid import GridSpec
from dbdsim.io import ScenarioConfig
from dbdsim.multilevel import propagate_unitaries
from dbdsim.units import GaussianWavePacket

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "perfbench" / "scenarios"
STRATEGIES = ("c_dbd", "cd_dbd", "ds_dbd", "oct_hybrid")
RTOL, ATOL = 1e-8, 1e-10


def unitaries_digest():
    pulses = [getattr(strategies.builtin_strategy(name), pulse)
              for name in STRATEGIES for pulse in ("bs", "mirror")]
    rng = np.random.default_rng(0)
    p = rng.uniform(-0.3, 0.3, (len(pulses), 7))
    eps = rng.uniform(0.0, 0.03, p.shape)
    digest = hashlib.sha256()
    for n_max in (1, 2, 3):
        for basis in ("bare", "symmetric"):
            kw = dict(n_max=n_max, basis=basis, rtol=RTOL, atol=ATOL)
            for g, (env, protocol) in enumerate(pulses):
                u = propagate_unitaries(p[g], env, protocol, eps[g], **kw)
                digest.update(u.tobytes())
            envelopes, protocols = zip(*pulses)
            u = propagate_unitaries(p, envelopes, protocols, eps, **kw)
            digest.update(u.tobytes())
    return digest.hexdigest()


def _cli_tables(digest, command, pattern):
    """Run command on every scenario matching pattern and hash what it
    writes, timestamp excluded."""
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in sorted(SCENARIOS.glob(pattern)):
            out = str(Path(tmp) / f"{cfg.stem}.csv")
            code = cli.main([command, "--config", str(cfg), "--out", out,
                             "--seed", "1", "--workers", "1"])
            if code != 0:
                raise RuntimeError(f"{command} on {cfg.name} exited {code}")
            lines = Path(out).read_text().splitlines()
            digest.update("\n".join(
                line for line in lines
                if not line.startswith("# timestamp")).encode())


def tscan_digest():
    digest = hashlib.sha256()
    _cli_tables(digest, "tscan", "cs_*.cfg")
    return digest.hexdigest()


def oracle_digest():
    digest = hashlib.sha256()
    _cli_tables(digest, "oracle-compare", "oracle_*.cfg")
    config = interferometer.MzConfig(
        strategy=strategies.builtin_strategy("ds_dbd"), g=0.000357,
        source=GaussianWavePacket(0.0, 0.05), n_nodes=32)
    scan = interferometer.oracle_fringe(config, [30.0, 46.0],
                                        spec=GridSpec(2048))
    for ports in (scan.p1, scan.p2, scan.p3):
        digest.update(ports.tobytes())
    return digest.hexdigest()


def optimize_digest():
    cfg = ScenarioConfig.from_file(SCENARIOS / "pulse_design.cfg")
    half = cfg.get_float("sample_halfwidth")
    problem = strategies.oct_mirror_problem(
        budget=cfg.get_int("budget"), delta_max=cfg.get_float("delta.max"),
        n_knots=cfg.get_int("knots"),
        momentum_samples=tuple(np.linspace(-half, half,
                                           cfg.get_int("n_samples"))),
        rtol=cfg.get_float("rtol"))
    result = strategies.optimize(problem, seed=1)
    text = [float(c).hex() for c in result.cost_history]
    text += [float(result.cost).hex()]
    text += [float(v).hex() for v in result.protocol.values]
    return hashlib.sha256(" ".join(text).encode()).hexdigest()


def main():
    for name, family in (("propagate_unitaries", unitaries_digest),
                         ("tscan", tscan_digest),
                         ("optimize", optimize_digest),
                         ("oracle", oracle_digest)):
        print(f"{name:20s} {family()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
