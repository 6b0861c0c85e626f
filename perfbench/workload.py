"""One benchmark process: set up, run whole rounds of one workload, check.

Started by run.py with BLAS/OpenMP threads pinned to 1.  It prints
`READY <monotonic time>` once set-up is done and `CALIBRATION <s>`, the
calibration kernel's time right after.  Then, unless --setup-only, it
runs rounds of the workload's fixed operations until the next round
would end after --seconds (at least one round), checks every output, and
prints one JSON line with its figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE / "scenarios"

# Tolerances of the correctness checks; README.md derives each one.
PSUM_TOL = 3e-3
PORT_SUM_TOL = 1e-9
CONTRAST_DS = (0.97, 0.01)
ORACLE_PORT_TOL = 1e-2
IDEAL_TOL = 1e-10
IDEAL_CONTRAST_MIN = 0.9999
COST_TOL_PER_RTOL = 100.0

# Times are reported at a reference machine speed: measured seconds x
# REFERENCE_CALIBRATION_S / the calibration kernel's time at the moment
# of measurement.  0.020 s is the kernel's median on a quiet 2-vCPU host.
REFERENCE_CALIBRATION_S = 0.020


class Run:
    """State shared by the operations of one workload process."""

    def __init__(self, out_dir, seed):
        self.out_dir = out_dir
        self.seed = seed
        self.configs = {}
        self.reference = None
        self.psum_err = 0.0
        self.oracle_gap = 0.0
        self.raised = []    # operations that raised: failed
        self.problems = []  # outputs that failed a check: failed, incorrect


def cfg_path(name):
    return str(SCENARIOS / f"{name}.cfg")


# --- operations ------------------------------------------------------
# Each returns what its check needs; checks run outside the timed span.

def run_cli(run, command, name):
    """One CLI call; a non-zero exit fails the operation."""
    from dbdsim import cli
    out = str(run.out_dir / f"{name}.csv")
    code = cli.main([command, "--config", cfg_path(name), "--out", out,
                     "--seed", str(run.seed), "--workers", "1"])
    if code != 0:
        raise RuntimeError(f"dbdsim {command} exited {code}")
    return out


def tscan(run, name):
    return run_cli(run, "tscan", name)


def oracle_compare(run, name):
    return run_cli(run, "oracle-compare", name)


def optimize(run, name):
    """`dbdsim optimize` minus its epilogue, at a budget the CLI rejects
    with exit code 4 (see README.md, pulse_design)."""
    import numpy as np
    from dbdsim import strategies
    cfg = run.configs[name]
    half = cfg.get_float("sample_halfwidth")
    samples = tuple(np.linspace(-half, half, cfg.get_int("n_samples")))
    problem = strategies.oct_mirror_problem(
        budget=cfg.get_int("budget"), delta_max=cfg.get_float("delta.max"),
        n_knots=cfg.get_int("knots"), momentum_samples=samples,
        rtol=cfg.get_float("rtol"))
    result = strategies.optimize(problem, seed=run.seed)
    knots = str(run.out_dir / f"{name}.knots.txt")
    strategies.save_knot_table(knots, result.protocol, strategy="oct_hybrid",
                               seed=run.seed)
    return problem, result, knots


# --- checks ----------------------------------------------------------

def read_table(path):
    from dbdsim.io import ResultTable
    return ResultTable.read(path)


def check_tscan(run, name, produced, scenario, indices=None):
    """Port sums and P_sum against the reference at its checked T values
    (or the given subset of them)."""
    import numpy as np
    table = read_table(produced)
    t = np.array(table.column("T"))
    p1, p2, p3 = (np.array(table.column(c)) for c in ("P1", "P2", "P3"))
    bad = []
    if np.any(p1 + p2 + p3 > 1.0 + PORT_SUM_TOL):
        bad.append("port populations sum above 1")
    ref = run.reference["scenarios"][scenario]
    for k in indices or range(len(ref["T"])):
        t_ref, psum_ref = ref["T"][k], ref["p_sum"][k]
        i = int(np.argmin(np.abs(t - t_ref)))
        if abs(t[i] - t_ref) > 1e-9 * t_ref:
            bad.append(f"T={t_ref} missing from the output")
            continue
        err = abs(p2[i] + p3[i] - psum_ref)
        run.psum_err = max(run.psum_err, err)
        if err > PSUM_TOL:
            bad.append(f"P_sum off the reference by {err:.3g} at T={t_ref}")
    return bad, table


def check_sweep(run, name, produced):
    """check_tscan, plus the ds_dbd contrast of acceptance 3 and 4."""
    bad, table = check_tscan(run, name, produced, SWEEP_REFERENCE[name])
    if name.startswith("cs_ds"):
        contrast = float(table.provenance["contrast"])
        target, tol = CONTRAST_DS
        if abs(contrast - target) > tol:
            bad.append(f"contrast {contrast} outside {target} +- {tol}")
    return bad


def check_oracle(run, name, produced):
    import numpy as np
    table = read_table(produced)
    diffs = np.array(table.column("abs_diff"))
    bad = []
    if float(np.sum(table.column("oracle"))) > 1.0 + PORT_SUM_TOL:
        bad.append("oracle ports sum above 1")
    if diffs.max() > ORACLE_PORT_TOL:
        bad.append(f"port difference {diffs.max():.3g} above "
                   f"{ORACLE_PORT_TOL}")
    run.oracle_gap = max(run.oracle_gap,
                         float(table.provenance["max_abs_diff"]))
    return bad


def check_ideal(run, name, produced):
    import numpy as np
    table = read_table(produced)
    cfg = run.configs[name]
    t = np.array(table.column("T"))
    exact = 0.5 * (1.0 - np.cos(4.0 * cfg.get_float("g") * t**2))
    err = float(np.max(np.abs(np.array(table.column("P_sum")) - exact)))
    bad = []
    if len(t) != cfg.get_int("t.points"):
        bad.append(f"{len(t)} rows, not {cfg.get_int('t.points')}")
    if err > IDEAL_TOL:
        bad.append(f"ideal fringe off the exact one by {err:.3g}")
    if float(table.provenance["contrast"]) < IDEAL_CONTRAST_MIN:
        bad.append(f"ideal contrast below {IDEAL_CONTRAST_MIN}")
    return bad


def check_optimize(run, name, produced):
    import reference
    from dbdsim import strategies
    problem, result, knots = produced
    bad = []
    back = strategies.load_knot_table(knots)
    if (back.times, back.values, back.bound) != (
            result.protocol.times, result.protocol.values,
            result.protocol.bound):
        bad.append("knot table does not parse back to the protocol")
    hist = result.cost_history
    if any(b >= a for a, b in zip(hist, hist[1:])):
        bad.append("cost history does not strictly decrease")
    if not hist or hist[-1] != result.cost:
        bad.append("cost history does not end at the reported cost")
    if result.evaluations_used > problem.budget or (
            result.budget_exhausted
            and result.evaluations_used != problem.budget):
        bad.append("evaluation count disagrees with the budget")
    recomputed = reference.mirror_cost(result.best, problem.momentum_samples,
                                       rtol=1e-10)
    if abs(recomputed - result.cost) > COST_TOL_PER_RTOL * problem.rtol:
        bad.append(f"cost {result.cost} but the reference gives "
                   f"{recomputed}")
    return bad


# Workload -> (operation, check, scenario files run once per round).
WORKLOADS = {
    "contrast_sweep": (tscan, check_sweep,
                       ("cs_ds_s050", "cs_oct_s132", "cs_ds_s050_resolved")),
    "pulse_design": (optimize, check_optimize, ("pulse_design",)),
    "oracle": (oracle_compare, check_oracle,
               ("oracle_ds_bs", "oracle_ds_mirror", "oracle_c_bs",
                "oracle_c_mirror")),
    "ideal_fringe": (tscan, check_ideal,
                     ("ideal_g357_unresolved", "ideal_g357_resolved",
                      "ideal_g714_unresolved", "ideal_g714_resolved")),
}
SWEEP_REFERENCE = {"cs_ds_s050": "ds_s050", "cs_oct_s132": "oct_s132",
                   "cs_ds_s050_resolved": "ds_s050_resolved"}


# --- accuracy probes -------------------------------------------------
# Every workload reports both accuracy figures.  Where its own
# operations produce none, a small fixed probe runs after the timed
# rounds.

def psum_probe(run):
    """The cs_ds_s050 scenario at its first and last checked T only."""
    bad, _ = check_tscan(run, "probe_psum", tscan(run, "probe_psum"),
                         "ds_s050", indices=(0, -1))
    return bad


def oracle_probe(run):
    """The ds_dbd splitter on a 1024-point grid against the ladder model."""
    import numpy as np
    from dbdsim import grid, multilevel, strategies
    from dbdsim.units import GaussianWavePacket
    env, protocol = strategies.builtin_strategy("ds_dbd").bs
    packet = GaussianWavePacket(0.0, 0.01)
    nodes, weights = packet.momentum_quadrature(64)
    mats = multilevel.propagate_unitaries(nodes, env, protocol, rtol=1e-9,
                                          atol=1e-11, basis="bare")
    model = weights @ (np.abs(mats[:, :, 0]) ** 2)
    state = grid.split_step_pulse(
        grid.prepare_wavepacket(grid.GridSpec(1024), packet), env, protocol)
    hist = grid.momentum_histogram(state, 0.0)
    oracle = np.array([hist.populations[k] for k in (0, 1, -1, 2, -2)])
    gap = float(np.max(np.abs(model - oracle)))
    run.oracle_gap = max(run.oracle_gap, gap)
    return [] if gap <= ORACLE_PORT_TOL else [f"probe port gap {gap:.3g}"]


# --- process ---------------------------------------------------------

def set_up(workload, run):
    """Everything a fresh process needs before the first timed round."""
    t0 = time.perf_counter()
    import dbdsim.cli  # noqa: F401  pulls in numpy and scipy
    t1 = time.perf_counter()
    import numpy as np
    from dbdsim import multilevel, strategies
    from dbdsim.io import ScenarioConfig
    from scipy import fft
    built = [strategies.builtin_strategy(n) for n in strategies.BUILTIN_NAMES]
    t2 = time.perf_counter()
    for name in WORKLOADS[workload][2] + ("warmup",):
        run.configs[name] = ScenarioConfig.from_file(cfg_path(name))
    run.reference = json.loads((HERE / "reference.json").read_text())
    # Lazy first-call costs (solver and einsum paths, FFT plans, the CLI
    # round trip) belong to set-up, not to the first timed round.
    env, protocol = built[0].bs
    multilevel.propagate_unitaries(np.array([0.0, 0.1]), env, protocol,
                                   window=(-0.1, 0.1))
    for n in (1024, 8192):
        fft.ifft(fft.fft(np.zeros(n, dtype=complex)))
    tscan(run, "warmup")
    return {"import_s": t1 - t0, "strategies_s": t2 - t1}


def calibrate():
    """Median of seven timings of a fixed kernel: the host's speed now.

    A mix of the instruction streams the workloads run: an interpreted
    loop, einsum on small complex batches and 8192-point FFTs.
    """
    import numpy as np
    from scipy import fft
    times = []
    for _ in range(7):
        a = np.random.default_rng(0).standard_normal((64, 5, 5)) + 0j
        x = np.zeros(8192, dtype=complex)
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(20000):
            acc += i * 0.5
        for _ in range(300):
            a = np.einsum("bij,bjk->bik", a, a) / 5.0
        for _ in range(20):
            x = fft.ifft(fft.fft(x))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_rounds(workload, run, seconds, rng, tracer=None):
    """Whole rounds until the next would end past `seconds`; >= 1 round.

    Per round it records the measured wall time, and wall and CPU time
    rescaled to the reference speed by the mean of the calibrations just
    before and after the round.  The seed only orders the operations
    within each round.
    """
    op, check, names = WORKLOADS[workload]
    out = {"raw": [], "wall": [], "cpu": [], "calibration": [],
           "attempted": 0, "failed": 0}
    start = time.perf_counter()
    before = calibrate()
    while True:
        wall = cpu = 0.0
        for i in rng.permutation(len(names)):
            name = names[i]
            out["attempted"] += 1
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                if tracer is None:
                    produced = op(run, name)
                else:
                    with tracer:
                        produced = op(run, name)
            except Exception as exc:  # an operation that raises fails
                out["failed"] += 1
                run.raised.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            wall += time.perf_counter() - w0
            cpu += time.process_time() - c0
            try:
                bad = check(run, name, produced)
            except Exception as exc:
                bad = [f"{type(exc).__name__}: {exc}"]
            if bad:
                out["failed"] += 1
                run.problems += [f"{name}: {b}" for b in bad]
        after = calibrate()
        scale = REFERENCE_CALIBRATION_S / (0.5 * (before + after))
        out["raw"].append(wall)
        out["wall"].append(wall * scale)
        out["cpu"].append(cpu * scale)
        out["calibration"].append(before)
        before = after
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(out["raw"]) > seconds:
            return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)

    run = Run(Path(args.out_dir), args.seed)
    setup = set_up(args.workload, run)
    print(f"READY {time.monotonic()!r}", flush=True)
    # The controller rescales this process's set-up time by this figure.
    setup_calibration = calibrate()
    print(f"CALIBRATION {setup_calibration!r}", flush=True)
    if args.setup_only:
        return 0
    setup = {k: v * REFERENCE_CALIBRATION_S / setup_calibration
             for k, v in setup.items()}

    import numpy as np
    rounds = timed_rounds(args.workload, run, args.seconds,
                          np.random.default_rng(args.seed))
    result = {
        "raw_walls": rounds["raw"], "wall_s": statistics.median(rounds["wall"]),
        "cpu_s": statistics.median(rounds["cpu"]),
        "calibration_s": statistics.median(rounds["calibration"]),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": rounds["attempted"], "failed": rounds["failed"],
        **setup,
    }
    if args.trace:
        from layers import Tracer
        tracer = Tracer()
        traced = timed_rounds(args.workload, run, args.seconds,
                              np.random.default_rng(args.seed), tracer)
        result["per_layer"] = tracer.metrics(
            len(traced["wall"]),
            REFERENCE_CALIBRATION_S / statistics.median(traced["calibration"]))
        result["trace_overhead_s"] = (statistics.median(traced["wall"])
                                      - result["wall_s"])
    probes = {"contrast_sweep": (oracle_probe,), "oracle": (psum_probe,)}
    for probe in probes.get(args.workload, (psum_probe, oracle_probe)):
        try:
            run.problems += probe(run)
        except Exception as exc:
            run.problems.append(f"{probe.__name__}: "
                                f"{type(exc).__name__}: {exc}")
    result.update(psum_err=run.psum_err, oracle_gap=run.oracle_gap,
                  correct=not run.problems,
                  problems=(run.raised + run.problems)[:20])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
