#!/usr/bin/env python3
"""Print one SHA-256 per family of solved numbers, to prove bit identity.

A change that only makes the solver faster must leave these digests as
they are.  When the arithmetic of the grid kernel changes, or how the
grid rounds the drive it samples, the oracle digest alone may change;
when that of the composition kernel changes, the tscan and ideal
digests alone may; when the nodes of t_scan's pulse surrogates change,
the tscan digest alone may.  An edit of the ladder table itself
(multilevel._bands or port_offsets) moves the hamiltonian digest and
the digests of the families that solve pulses with it.  An edit of
the n_max = 1 Stark-shift band (the stark table of multilevel._bands,
or multilevel._shifts) moves propagate_unitaries, hamiltonian, tls and
escan, and no other family.  An edit of the knot spline
(units._natural_spline) moves every family that solves an oct_hybrid
mirror or an optimizer candidate: propagate_unitaries, hamiltonian,
tscan, optimize, polish and warm; one of strategies.packet_quantiles
moves warm.  An edit of the arithmetic of the ladder product (the
right-hand side of propagate_unitaries) moves every family that solves
the ladder: propagate_unitaries, tscan, optimize, polish, warm, tls,
escan, pescan and oracle, but not hamiltonian or ideal.  The families:

- propagate_unitaries: the bs and mirror pulses of the four built-in
  strategies at n_max 1, 2 and 3, in both bases, each pulse alone on a
  1-D p and all eight pulses as the groups of one 2-D p;
- hamiltonian: build_hamiltonian, the ladder table (_bands and
  port_offsets) written out, for the bs and mirror pulses of the four
  built-in strategies at n_max 1, 2 and 3, p in {-0.9, -0.13, 0, 0.37},
  epsilon 0 and 0.05, and 7 times across each pulse's support;
- tscan: what `dbdsim tscan` writes for every
  perfbench/scenarios/cs_*.cfg, the T, P1, P2, P3 and P_sum rows and
  the provenance (surrogate tails, contrast, ...) but its timestamp;
- ideal: the same for every perfbench/scenarios/ideal_*.cfg, lossless
  pulses on 2000 T x 256 nodes, so it holds the bits of the
  composition kernel (interferometer._compose) with no solve in them;
- optimize: the cost history, final cost and knots of the
  perfbench/scenarios/pulse_design.cfg mirror search at seed 1;
- polish: the same for a budget-300 oct_mirror_problem on three
  momenta at seed 0, the smallest search that runs the Nelder-Mead
  polish and touch-up (at budget 100 the polish is skipped);
- warm: the same for a budget-150 oct_mirror_problem on three packet
  quantiles at seed 7, ranked with the knot table's two warm starts
  (regenerate_knot_table.WARM_STARTS): the warm-start path of the
  knot-table recipe in seconds rather than minutes;
- tls: the final amplitudes of tls.evolve_tls, which solves the
  n_max = 1 ladder at p = 0, at rtol 1e-10, for the bs pulse of every
  built-in strategy at epsilon 0 and 0.05, and for a 5 x 5 grid of
  Gaussian pulses (tau 0.3 to 0.6, peak 1 to 3) at constant detuning 0;
- escan: what `dbdsim efficiency-scan` writes for a tau x omega scan of
  the multilevel model on a packet (source.sigma_p), the same on a
  plane wave at source.p0, and a tau x omega scan of the two-level
  model;
- pescan: what `dbdsim efficiency-scan` writes for p x epsilon scans of
  a box splitter (kind bs) and a Gaussian mirror (kind mirror_plus);
- oracle: what `dbdsim oracle-compare` writes for every
  perfbench/scenarios/oracle_*.cfg but its timestamp, and the ports of
  an unresolved and a resolved `oracle_fringe` scan of ds_dbd; the
  resolved one runs the stacked mirror of
  interferometer._detected_mirror.

Run from the repository root, on the commit before a change and on the
change, and compare the output:

    PYTHONPATH=src python3 scripts/solve_digest.py

Takes about thirteen seconds on one core, four of them in the polish
family and three in the warm family.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from dbdsim import cli, interferometer, strategies, tls
from dbdsim.io import ScenarioConfig
from dbdsim.multilevel import build_hamiltonian, propagate_unitaries
from dbdsim.units import ConstantDetuning, GaussianWavePacket, PulseEnvelope
from regenerate_knot_table import WARM_STARTS  # this script's directory

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "perfbench" / "scenarios"
STRATEGIES = ("c_dbd", "cd_dbd", "ds_dbd", "oct_hybrid")
RTOL = 1e-8


def unitaries_digest():
    pulses = [getattr(strategies.builtin_strategy(name), pulse)
              for name in STRATEGIES for pulse in ("bs", "mirror")]
    rng = np.random.default_rng(0)
    p = rng.uniform(-0.3, 0.3, (len(pulses), 7))
    eps = rng.uniform(0.0, 0.03, p.shape)
    digest = hashlib.sha256()
    for n_max in (1, 2, 3):
        for basis in ("bare", "symmetric"):
            kw = dict(n_max=n_max, basis=basis, rtol=RTOL)
            for g, (env, protocol) in enumerate(pulses):
                u = propagate_unitaries(p[g], env, protocol, eps[g], **kw)
                digest.update(u.tobytes())
            envelopes, protocols = zip(*pulses)
            u = propagate_unitaries(p, envelopes, protocols, eps, **kw)
            digest.update(u.tobytes())
    return digest.hexdigest()


def hamiltonian_digest():
    digest = hashlib.sha256()
    for name in STRATEGIES:
        for pulse in ("bs", "mirror"):
            env, protocol = getattr(strategies.builtin_strategy(name), pulse)
            for n_max in (1, 2, 3):
                for p in (-0.9, -0.13, 0.0, 0.37):
                    for t in np.linspace(*env.support, 7):
                        for eps in (0.0, 0.05):
                            h = build_hamiltonian(n_max, p, t, env, protocol,
                                                  eps)
                            digest.update(h.tobytes())
    return digest.hexdigest()


# efficiency-scan configs: tau x omega scans, then p x epsilon scans
TAU_OMEGA = """
kind = bs
pulse.shape = gaussian
tau.min = 0.35
tau.max = 0.55
tau.points = 3
omega.min = 1.5
omega.max = 2.5
omega.points = 3
"""
ESCANS = ("model = multilevel\nsource.sigma_p = 0.05\n" + TAU_OMEGA,
          "model = multilevel\nsource.p0 = 0.05\n" + TAU_OMEGA,
          "model = tls\n" + TAU_OMEGA)
P_EPSILON = """
scan = p_epsilon
p.min = -0.2
p.max = 0.2
p.points = 9
epsilon_axis.min = 0
epsilon_axis.max = 0.1
epsilon_axis.points = 5
"""
PESCANS = ("kind = bs\npulse.omega = 2\npulse.tau = 0.47\n" + P_EPSILON,
           "kind = mirror_plus\npulse.shape = gaussian\npulse.omega = 4\n"
           "pulse.tau = 0.3\n" + P_EPSILON)


def _cli_tables(digest, command, pattern=None, texts=()):
    """Run command on every scenario matching pattern, or on each config
    text, and hash what it writes, timestamp excluded."""
    with tempfile.TemporaryDirectory() as tmp:
        configs = sorted(SCENARIOS.glob(pattern)) if pattern else []
        for i, text in enumerate(texts):
            configs.append(Path(tmp) / f"config_{i}.cfg")
            configs[-1].write_text(text)
        for cfg in configs:
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


def ideal_digest():
    digest = hashlib.sha256()
    _cli_tables(digest, "tscan", "ideal_*.cfg")
    return digest.hexdigest()


def oracle_digest():
    digest = hashlib.sha256()
    _cli_tables(digest, "oracle-compare", "oracle_*.cfg")
    for detection in ("unresolved", "resolved"):
        config = interferometer.MzConfig(
            strategy=strategies.builtin_strategy("ds_dbd"), g=0.000357,
            source=GaussianWavePacket(0.0, 0.05), n_nodes=32,
            detection=detection)
        scan = interferometer.oracle_fringe(config, [30.0, 46.0])
        for ports in (scan.p1, scan.p2, scan.p3):
            digest.update(ports.tobytes())
    return digest.hexdigest()


def escan_digest():
    digest = hashlib.sha256()
    _cli_tables(digest, "efficiency-scan", texts=ESCANS)
    return digest.hexdigest()


def pescan_digest():
    digest = hashlib.sha256()
    _cli_tables(digest, "efficiency-scan", texts=PESCANS)
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
    return _result_digest(strategies.optimize(problem, seed=1))


def polish_digest():
    problem = strategies.oct_mirror_problem(
        budget=300, momentum_samples=np.linspace(-0.2, 0.2, 3))
    return _result_digest(strategies.optimize(problem, seed=0))


def warm_digest():
    problem = strategies.oct_mirror_problem(
        budget=150, momentum_samples=strategies.packet_quantiles(3, 0.05),
        warm_starts=WARM_STARTS)
    return _result_digest(strategies.optimize(problem, seed=7))


def tls_digest():
    pulses = [(*strategies.builtin_strategy(name).bs, eps)
              for name in STRATEGIES for eps in (0.0, 0.05)]
    pulses += [(PulseEnvelope("gaussian", omega, tau), ConstantDetuning(0.0),
                0.0)
               for tau in np.linspace(0.3, 0.6, 5)
               for omega in np.linspace(1.0, 3.0, 5)]
    digest = hashlib.sha256()
    for env, protocol, eps in pulses:
        final = tls.evolve_tls(tls.TlsState(1.0, 0.0), env, protocol, eps,
                               rtol=1e-10)
        digest.update(np.array([final.c0, final.c1]).tobytes())
    return digest.hexdigest()


def _result_digest(result):
    text = [float(c).hex() for c in result.cost_history]
    text += [float(result.cost).hex()]
    text += [float(v).hex() for v in result.protocol.values]
    return hashlib.sha256(" ".join(text).encode()).hexdigest()


def main():
    for name, family in (("propagate_unitaries", unitaries_digest),
                         ("hamiltonian", hamiltonian_digest),
                         ("tscan", tscan_digest),
                         ("ideal", ideal_digest),
                         ("optimize", optimize_digest),
                         ("polish", polish_digest),
                         ("warm", warm_digest),
                         ("tls", tls_digest),
                         ("escan", escan_digest),
                         ("pescan", pescan_digest),
                         ("oracle", oracle_digest)):
        print(f"{name:20s} {family()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
