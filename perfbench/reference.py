"""Independent five-level reference for the benchmark's accuracy figure.

The program integrates its ladder model in the symmetric basis and the
interaction picture, and shares pulse matrices across a scan through
momentum bins of width p_bin.  This module answers the same questions a
different way, so that a speed-up bought with a coarser answer shows:

* Schroedinger picture, bare basis {p, p+2, p-2, p+4, p-4}.  From the
  Hamiltonian in the `dbdsim.multilevel` docstring, the bare-basis
  elements are <q|H|q> = q**2 and <q|H|q+-2> = Omega(t) C(t) for the
  four ladder links (p, p+-2) and (p+-2, p+-4), with
  C(t) = cos[(4 + Delta(t)) t] + epsilon.
* scipy DOP853 at rtol 1e-11, one batched solve per pulse at the exact
  momenta every node visits (no binning).
* Its own Gauss-Legendre packet quadrature, free-flight phases
  exp[-i(T q**2 + g T**2 q / 2)] and explicit path sums for the
  Mach-Zehnder B(p+gT) U M(p+gT/2) U B(p).

Only pulse definitions (envelopes, detuning protocols) come from the
package; nothing is imported from `dbdsim.multilevel` or
`dbdsim.interferometer`.

    python3 perfbench/reference.py          # check reference.json
    python3 perfbench/reference.py --write  # recompute and rewrite it
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
RTOL = 1e-11
ATOL = 1e-13

# Bare-basis diffraction orders k (momentum p + 2k) in the program's
# port order, and the ladder links the lattice drive couples.
ORDERS = np.array([0, 1, -1, 2, -2])
LINKS = ((0, 1), (0, 2), (1, 3), (2, 4))
# (after first splitter, after mirror) port pairs that stay spatially
# closed; resolved detection keeps only these paths.
RESOLVED_PAIRS = ((0, 0), (1, 2), (2, 1), (3, 4), (4, 3))
ALL_PAIRS = tuple((k, l) for k in range(5) for l in range(5))


def pulse_unitaries(p, pulse, epsilon=0.0, rtol=RTOL, atol=ATOL):
    """(B, 5, 5) bare-basis propagators of one pulse at momenta p.

    Integrates dU/dt = -i H(t) U over the envelope support in the
    Schroedinger picture.  The common phase exp(-i p**2 t) is kept; it is
    global at fixed p and drops out of every population.
    """
    envelope, protocol = pulse
    p = np.atleast_1d(np.asarray(p, dtype=float))
    nsys = p.size
    energy = (p[:, None] + 2.0 * ORDERS[None, :]) ** 2
    t0, t1 = envelope.support

    def rhs(t, y):
        u = y.view(complex).reshape(nsys, 5, 5)
        delta = float(protocol.evaluate(t, check=False))
        drive = float(envelope.evaluate(t)) * (
            math.cos((4.0 + delta) * t) + epsilon)
        hu = energy[:, :, None] * u
        for i, j in LINKS:
            hu[:, i] += drive * u[:, j]
            hu[:, j] += drive * u[:, i]
        return (-1j * hu).reshape(-1).view(float)

    y0 = np.ascontiguousarray(
        np.broadcast_to(np.eye(5, dtype=complex), (nsys, 5, 5)))
    sol = solve_ivp(rhs, (t0, t1), y0.reshape(-1).view(float),
                    method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"reference pulse failed: {sol.message}")
    return sol.y[:, -1].copy().view(complex).reshape(nsys, 5, 5)


def packet_quadrature(p0, sigma_p, n_nodes):
    """Gauss-Legendre nodes on p0 +- 6 sigma_p, |psi|**2 in the weights."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    half = 6.0 * sigma_p
    p = p0 + half * x
    weights = half * w * np.exp(-((p - p0) ** 2) / (2.0 * sigma_p**2))
    return p, weights / weights.sum()


def free_phases(q_center, g, T):
    """Free-flight phases for the five orders around q_center, (N, 5)."""
    q = np.asarray(q_center, dtype=float)[:, None] + 2.0 * ORDERS[None, :]
    return np.exp(-1j * (T * q**2 + 0.5 * g * T**2 * q))


def mz_output(b1_col, mirror, b3, p, g, T, resolved):
    """(N, 5) output amplitudes for input port 0 as a sum over paths.

    b1_col is the first splitter's column for input port 0 at p, mirror
    the mirror at p + gT/2 and b3 the final splitter at p + gT.
    """
    u1 = free_phases(p, g, T)
    u2 = free_phases(p + 0.5 * g * T, g, T)
    out = np.zeros((p.size, 5), dtype=complex)
    for k, l in (RESOLVED_PAIRS if resolved else ALL_PAIRS):
        out += b3[:, :, l] * (u2[:, l] * mirror[:, l, k] * u1[:, k]
                              * b1_col[:, k])[:, None]
    return out


def mz_populations(strategy, g, p0, sigma_p, t_values, resolved,
                   epsilon=0.0, n_nodes=64, rtol=RTOL):
    """(nT, 3) packet-averaged central, +2 and -2 port populations."""
    t_values = np.asarray(t_values, dtype=float)
    p, w = packet_quadrature(p0, sigma_p, n_nodes)
    b1_col = pulse_unitaries(p, strategy.bs, epsilon, rtol)[:, :, 0]
    p2 = (p[None, :] + 0.5 * g * t_values[:, None]).ravel()
    p3 = (p[None, :] + g * t_values[:, None]).ravel()
    mirrors = pulse_unitaries(p2, strategy.mirror, epsilon, rtol)
    finals = pulse_unitaries(p3, strategy.bs, epsilon, rtol)
    n = p.size
    out = np.empty((t_values.size, 3))
    for i, T in enumerate(t_values):
        sl = slice(i * n, (i + 1) * n)
        amps = mz_output(b1_col, mirrors[sl], finals[sl], p, g, T, resolved)
        out[i] = w @ (np.abs(amps[:, :3]) ** 2)
    return out


def mirror_cost(pulse, momentum_samples, rtol=RTOL):
    """<|1 - F_plus| + |1 - F_minus|> over the samples (bare ports 1, 2)."""
    u = pulse_unitaries(momentum_samples, pulse, 0.0, rtol)
    f_plus = np.abs(u[:, 2, 1]) ** 2
    f_minus = np.abs(u[:, 1, 2]) ** 2
    return float(np.mean(np.abs(1.0 - f_plus) + np.abs(1.0 - f_minus)))


def default_t_grid(g):
    """T uniform in x = 4|g|T**2 over [0.05 pi, 2.6 pi], step <= pi/40.

    The fringe grid `tscan` uses when a scenario gives no t.* keys.
    """
    x_lo, x_hi = 0.05 * math.pi, 2.6 * math.pi
    n = math.ceil((x_hi - x_lo) / (math.pi / 40.0)) + 1
    return np.sqrt(np.linspace(x_lo, x_hi, n) / (4.0 * abs(g)))


# Scenarios checked against the reference: the contrast_sweep scans at
# six T values of their default 103-point grid.  The psum probe that
# other workloads run reads the first and last of the ds_dbd set.
CHECKED_INDICES = (0, 20, 41, 61, 82, 102)
SCENARIOS = {
    "ds_s050": dict(strategy="ds_dbd", g=0.000357, sigma_p=0.05,
                    resolved=False),
    "oct_s132": dict(strategy="oct_hybrid", g=0.000357, sigma_p=0.132,
                     resolved=False),
    "ds_s050_resolved": dict(strategy="ds_dbd", g=0.000714, sigma_p=0.05,
                             resolved=True),
}


def compute_reference():
    from dbdsim.strategies import builtin_strategy

    out = {"rtol": RTOL, "n_nodes": 64, "scenarios": {}}
    for name, sc in SCENARIOS.items():
        t_values = default_t_grid(sc["g"])[list(CHECKED_INDICES)]
        pops = mz_populations(builtin_strategy(sc["strategy"]), sc["g"], 0.0,
                              sc["sigma_p"], t_values, sc["resolved"])
        out["scenarios"][name] = {
            **sc, "T": [float(t) for t in t_values],
            "p_sum": [float(v) for v in pops[:, 1] + pops[:, 2]]}
    return out


def load_reference():
    return json.loads(REFERENCE_FILE.read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="recompute and rewrite reference.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    fresh = compute_reference()
    if args.write:
        REFERENCE_FILE.write_text(json.dumps(fresh, indent=1) + "\n")
        print(f"wrote {REFERENCE_FILE}")
        return 0
    stored = load_reference()
    worst = 0.0
    for name, sc in fresh["scenarios"].items():
        diff = np.abs(np.subtract(sc["p_sum"],
                                  stored["scenarios"][name]["p_sum"]))
        worst = max(worst, float(diff.max()))
    print(f"max |fresh - stored| = {worst:.3e}")
    return 0 if worst <= 1e-9 else 1


if __name__ == "__main__":
    sys.exit(main())
