"""Doppler-aware (2n+1)-level model of a double Bragg pulse.

The truncated momentum ladder couples |p> to the symmetric and
antisymmetric combinations |n,+-> = (|p+2n> +- |p-2n>)/sqrt(2) of the
first n_max diffraction orders.  With the drive factor
C(t) = cos[(4 + Delta(t)) t] + epsilon the non-zero matrix elements are

    <p|H|p>        = p**2            <n,s|H|n,s>     = p**2 + 4 n**2
    <p|H|1,+>      = sqrt(2) Omega C <n,s|H|n+1,s>   = Omega C
    <n,+|H|n,->    = 4 n p

(all in recoil units).  Integration runs in the interaction picture with
the diagonal kinetic part removed, which leaves slow coupling phases
exp(-i 4 t) and exp(-i 4 (2n+1) t) and keeps adaptive steps large.  A
common phase exp(-i p**2 dt) on all channels is dropped; it is global at
fixed quasi-momentum and cancels from every population and from every
relative phase the interferometer module consumes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import util

import numpy as np
import scipy

from .exceptions import IntegratorFailure
from .units import _require_finite, carrier_factor

try:  # what np.einsum calls without `optimize`, minus about 3 us of wrapper
    from numpy._core.einsumfunc import c_einsum as _einsum
except ImportError:  # numpy < 2
    _einsum = np.einsum

DEFAULT_RTOL = 1e-10


# Efficiency kind -> the bare-basis (output, input) elements whose
# squared moduli sum to its transfer F.  Mirror momenta are deviations
# from the +-2 hbar k_L carrier.
EFFICIENCY_ELEMENTS = {
    "beam_splitter": ((1, 0), (2, 0)),  # |p> -> |p+2> or |p-2>
    "mirror_plus": ((2, 1),),           # |p+2> -> |p-2>
    "mirror_minus": ((1, 2),),          # |p-2> -> |p+2>
}


def transfer_efficiency(u, kind):
    """F of one efficiency kind from bare-basis pulse matrices (..., d, d)."""
    if kind not in EFFICIENCY_ELEMENTS:
        raise ValueError(f"unknown efficiency kind {kind!r}")
    return sum(np.abs(u[..., i, j]) ** 2 for i, j in EFFICIENCY_ELEMENTS[kind])


def port_offsets(n_max):
    """Bare-basis momentum offsets {0, +2, -2, ..., +2n, -2n}; squared,
    the kinetic offsets 4 n**2 of both bases (p**2 removed)."""
    n = np.arange(1, n_max + 1, dtype=float)
    return np.concatenate(([0.0], np.stack((2 * n, -2 * n), axis=1).ravel()))


def bare_transform(n_max):
    """Unitary V with columns = symmetric-basis states in bare order.

    Bare ordering is {|p>, |p+2>, |p-2>, ..., |p+2n>, |p-2n>}; amplitudes
    map as a_bare = V a_sym.
    """
    v = np.eye(2 * n_max + 1)
    s = 1.0 / np.sqrt(2.0)
    for i in range(1, 2 * n_max, 2):  # rows <p+2n|, <p-2n|; columns |n,+->
        v[i:i + 2, i:i + 2] = [[s, s], [s, -s]]
    return v


def build_hamiltonian(n_max, p, t, envelope, protocol, epsilon=0.0):
    """Full Schroedinger-picture matrix at time t, symmetric basis
    {|p>, |1,+>, |1,->, ..., |n_max,+>, |n_max,->}.

    Assembled from _bands, the table propagate_unitaries integrates.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    _require_finite("quasi-momentum, time and epsilon", p, t, epsilon)
    if abs(p) >= 1.0:
        raise ValueError("quasi-momentum must satisfy |p| < 1")
    h = np.diag(p**2 + port_offsets(n_max) ** 2)
    t = float(t)
    omega = envelope.evaluate(t)
    c = carrier_factor(t, protocol.evaluate(t, check=False), epsilon)
    drive, doppler = _bands(n_max)
    for i, j, wgt, _ in drive:
        h[i, j] = h[j, i] = wgt * omega * c
    for i, j, rate in doppler:
        h[i, j] = h[j, i] = rate * p
    return h


def _bands(n_max):
    """Upper-triangle couplings of the symmetric basis.

    drive holds (row, col, weight, phase_rate): the element is
    weight * Omega C(t), and it turns at exp(-i phase_rate t) once the
    kinetic offsets are removed.  doppler holds (row, col, rate): the
    constant element rate * p between |n,+> and |n,->.
    """
    drive = [(0, 1, np.sqrt(2.0), 4.0)]
    for n in range(1, n_max):
        rate = 4.0 * (2 * n + 1)
        drive.append((2 * n - 1, 2 * n + 1, 1.0, rate))
        drive.append((2 * n, 2 * n + 2, 1.0, rate))
    doppler = [(2 * n - 1, 2 * n, 4.0 * n) for n in range(1, n_max + 1)]
    return drive, doppler


def _load_dop853_tableau():
    """scipy's DOP853 tableau module, run from its file: importing it
    through scipy.integrate would import scipy.optimize, linalg and
    sparse too, which took most of the package's start-up time."""
    path = os.path.join(os.path.dirname(scipy.__file__), "integrate", "_ivp",
                        "dop853_coefficients.py")
    spec = util.spec_from_file_location("_dop853_coefficients", path)
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# scipy's DOP853 (scipy.integrate._ivp.rk): its tableau and step control
_dop853 = _load_dop853_tableau()
_STAGES = _dop853.N_STAGES
_A = [np.ascontiguousarray(_dop853.A[s, :s]) for s in range(_STAGES)]
_B = _dop853.B
_C = np.append(_dop853.C[1:_STAGES], 1.0)[:, None]  # stages 1 to 11; t + h
_E3, _E5 = _dop853.E3, _dop853.E5
_EXPONENT = -1 / 8  # -1 / (error estimator order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_LOCKSTEP_SYSTEMS = 128  # momenta per lockstep solve, summed over groups


@dataclass(frozen=True)
class GroupSolution:
    """What solve_ivp returns: the final state of every group."""

    y: np.ndarray  # (G, n): row g is group g's state at its t1
    nfev: int      # rhs calls, each over every group still running
    failed: int | None = None  # the group whose failure stopped the solve
    message: str = ""


def _norms(x):
    """np.linalg.norm of every row: numpy makes the same BLAS dot per row."""
    return np.sqrt(np.matmul(x[..., None, :], x[..., None])[..., 0, 0])


def solve_ivp(fun, t0, t1, y0, rtol, atol=None):
    """DOP853 over G independent groups of equations, in lockstep.

    Row g of y0 is the state of group g, integrated from t0[g] to
    t1[g] > t0[g].  Every group takes exactly the steps that
    scipy.integrate.solve_ivp(method="DOP853") takes on it alone: its
    own initial step, minimum step, RMS error norm, accept/reject
    decision and next step size.  A group drops out once it reaches its
    t1.  Its final state is (y_new - y_old) + y_old, which is what
    scipy's dense output returns at t_eval=[t1]: every other term of
    the interpolant is multiplied by 1 - x = 0.

    fun(times, live) prepares the right-hand side of the running groups
    at the rows of times, an (m, len(live)) array whose column i belongs
    to group live[i].  It returns deriv(j, y, out), which writes the
    derivatives at times[j] of the states y of the running groups into
    out.  A step prepares all its stage times at once, since they do not
    depend on y.

    All work, the step control too, runs on arrays over the running
    groups, and three rules keep scipy's scalar bits.  Norms and sums
    are the BLAS dots scipy's np.dot makes per group, which np.matmul
    over the stack of groups makes too (concatenated groups would not
    do: a dot rounds differently with the length of its vectors).
    Powers go through np.float_power, libm pow per element as scipy's
    scalar ** is (np.power and x * x differ from it in the last bit).
    Python's min(a, b) keeps a NaN a and skips a NaN b: it becomes
    np.fmin where a cannot be NaN, np.minimum where b cannot and
    np.where(b < a, b, a) where both can; max likewise.  Divisions and
    powers run only where scipy's branches take them, so they warn only
    where scipy's would.  The solve stops at the first group whose step
    falls below scipy's minimum step; GroupSolution.failed names it.

    rtol and atol must be positive and finite; atol defaults to rtol *
    1e-2, the rule of every solve in the package, taken before scipy
    raises rtol to its floor of 100 machine epsilons.
    """
    if atol is None:
        atol = rtol * 1e-2
    for name, tol in (("rtol", rtol), ("atol", atol)):
        if not 0 < tol < np.inf:
            raise ValueError(f"{name} must be positive and finite, "
                             f"got {tol:g}")
    t = np.array(t0, dtype=float)
    bounds = np.array(t1, dtype=float)
    y = np.array(y0, dtype=float)
    if not np.all(bounds > t):
        raise ValueError("every group needs t1 > t0")
    rtol = max(rtol, 100 * np.finfo(float).eps)
    n_groups, n = y.shape
    live = np.arange(n_groups)
    out = np.empty_like(y)

    # select_initial_step, each group with its own norms
    f = np.empty_like(y)
    fun(t[None], live)(0, y, f)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _norms(y / scale) / n ** 0.5, _norms(f / scale) / n ** 0.5
    h0 = np.minimum(np.divide(0.01 * d0, d1, out=np.full_like(t, 1e-6),
                              where=~((d0 < 1e-5) | (d1 < 1e-5))), bounds - t)
    f1 = np.empty_like(y)
    fun((t + h0)[None], live)(0, y + h0[:, None] * f, f1)
    d2 = _norms((f1 - f) / scale) / n ** 0.5 / h0
    steep = ~((d1 <= 1e-15) & (d2 <= 1e-15))
    top = np.where(d2 > d1, d2, d1)  # Python's max(d1, d2)
    h1 = np.float_power(np.divide(0.01, top, out=top, where=steep), 1 / 8,
                        out=np.fmax(1e-6, h0 * 1e-3), where=steep)
    h_abs = np.minimum(100 * h0, np.fmin(h1, bounds - t))
    nfev = 2

    k = np.empty((n_groups, _STAGES + 1, n))  # k[g] is scipy's K of group g
    k[:, 0] = f
    del f, f1
    y_new = np.empty_like(y)
    accept = np.ones(n_groups, dtype=bool)  # each group's last step
    all_accepted = True
    err = np.zeros(n_groups)
    while live.size:
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        if not all_accepted:  # a NaN step after a rejection fails too
            ok = accept | (h_abs >= min_step)
            if np.count_nonzero(ok) < live.size:
                i = ok.argmin()
                message = _TOO_SMALL_STEP
                if not np.isfinite(err[i]):
                    message += " The error estimate was not finite."
                return GroupSolution(out, nfev, int(live[i]), message)
        h_abs = np.maximum(h_abs, min_step)  # a rejected h_abs stays
        t_new = np.minimum(t + h_abs, bounds)
        h = t_new - t  # > 0, so scipy's abs(h) is h
        h_col = h[:, None]
        deriv = fun(t + _C * h, live)  # 1.0 * h is h
        k_t = k.transpose(0, 2, 1)  # k_t[g, :, :s] is scipy's K[:s].T
        dy = y_new  # scratch until the solution is formed
        for s in range(1, _STAGES):
            np.matmul(k_t[:, :, :s], _A[s], out=dy)
            np.add(y, np.multiply(dy, h_col, out=dy), out=dy)
            deriv(s - 1, dy, k[:, s])
        np.matmul(k_t[:, :, :_STAGES], _B, out=dy)
        np.add(y, np.multiply(h_col, dy, out=dy), out=y_new)
        deriv(_STAGES - 1, y_new, k[:, _STAGES])
        nfev += _STAGES

        # scipy's error norm, scale = atol + max(|y|, |y_new|) * rtol
        scale = np.abs(y)
        np.maximum(scale, np.abs(y_new), out=scale)
        scale *= rtol
        scale += atol
        errs = np.empty((2,) + y.shape)
        np.matmul(k_t, _E5, out=errs[0])
        np.matmul(k_t, _E3, out=errs[1])
        errs /= scale
        e5, e3 = np.float_power(_norms(errs), 2)
        err = np.zeros(live.size)  # where both norms are 0, as in scipy
        np.divide(h * e5, np.sqrt((e5 + 0.01 * e3) * n), out=err,
                  where=e5 + e3 != 0)

        # a zero error grows the step by the cap, 1 after a rejection
        cap = _MAX_FACTOR if all_accepted else np.where(accept, _MAX_FACTOR,
                                                         1.0)
        accept = err < 1
        grow = _SAFETY * np.float_power(err, _EXPONENT, where=err != 0,
                                        out=np.full_like(err, np.inf))
        factor = np.fmax(_MIN_FACTOR, grow)
        h_abs = h * np.fmin(cap, grow, out=factor, where=accept)
        t = np.where(accept, t_new, t)
        finished = accept & (t_new - bounds >= 0)
        done = np.count_nonzero(finished)
        if done:
            out[live[finished]] = (y_new[finished] - y[finished]) \
                + y[finished]
        all_accepted = np.count_nonzero(accept) == live.size
        if all_accepted:
            y, y_new = y_new, y
            k[:, 0] = k[:, _STAGES]
        else:
            y[accept] = y_new[accept]
            k[accept, 0] = k[accept, _STAGES]
        if done:
            live, t, bounds, h_abs, accept, err, k, y, y_new = (
                x[~finished] for x in (live, t, bounds, h_abs, accept, err,
                                       k, y, y_new))
    return GroupSolution(out, nfev)


def _ladder_product(a, groups):
    """product(u, out) that writes -1j a u for every system into out.

    a holds the momentum batch innermost, (d, d, B); u and out are
    (groups, B / groups, d, d) in scipy's component order, and out may
    be strided.  u is copied into a (d, d, B) buffer, so that einsum
    runs its inner loop over the batch instead of over rows of length d.
    The bits are those of -1j * np.einsum("bij,bjk->bik", a_b, u) with
    the batch outermost: einsum adds the products of each output element
    in ascending j whatever loop nest its iterator picks, and its complex
    sum-of-products is the same formula in the contiguous and the
    strided kernels.
    """
    d = a.shape[0]
    u_t, prod = np.empty_like(a), np.empty_like(a)
    u_in = u_t.reshape(d, d, groups, -1)
    prod_out = prod.reshape(d, d, groups, -1).transpose(2, 3, 0, 1)

    def product(u, out):
        np.copyto(u_in, u.transpose(2, 3, 0, 1))
        _einsum("ijb,jkb->ikb", a, u_t, out=prod)
        np.multiply(-1j, prod_out, out=out)
    return product


def propagate_unitaries(p, envelope, protocol, epsilon=0.0, n_max=2,
                        rtol=DEFAULT_RTOL, atol=None, basis="bare",
                        window=None):
    """Pulse propagators for one or G groups of quasi-momenta.

    Integrates the interaction-picture matrix equation dU/dt = -i Hbar U
    over the envelope support and reattaches the kinetic ladder phases,
    so the returned matrices are Schroedinger-picture pulse unitaries
    (modulo the common exp(-i p**2 dt) phase, see module docstring).

    A group is one ODE system: its momenta share one time grid, which
    DOP853 steps with one step size and one RMS error norm, bit for bit
    as scipy's solve_ivp(method="DOP853", t_eval=[t1]) would.  So a
    unitary can move at the rtol level with the other momenta of its
    group.  One group per momentum would remove that but is less
    accurate: measured on the contrast_sweep scenarios with t_scan's
    first-zone surrogates, the packet-summed port population error rose
    from 7.25e-11 to 3.26e-10 (1.78e-11 to 1.45e-10 on the probe) and the
    surrogate Chebyshev tails from about 6e-16 to 5e-12 - 1.5e-10.  A
    2-D p asks for G groups, one row and one pulse each; they advance in
    lockstep through solve_ivp, and group g comes out bit for bit as it
    does alone, whatever the other groups of the call.

    The right-hand side keeps the momentum batch innermost in its work
    matrix, (d, d, B), and copies the states into that layout for the
    product (_ladder_product says why the bits do not change); the
    states, stage sums and norms stay in scipy's order, whose BLAS bits
    depend on it.  On one core, copies included, the 5 x 5 product went
    from 76 to 47 us at B = 65, 149 to 82 us at B = 129 and 926 to
    504 us at B = 837, and stayed at about 15 us at B = 9.

    Parameters
    ----------
    p : float, (B,) or (G, B) array
        Quasi-momenta: one group, or one row per group.
    envelope, protocol : PulseEnvelope, DetuningProtocol
        The pulse; for a 2-D p, sequences of G, one per group.
    epsilon : float, (B,) or (G, B) array
        Polarization imbalance per system.
    rtol, atol : float
        DOP853 tolerances, as solve_ivp takes them: rtol > 0, and atol
        defaults to rtol * 1e-2.
    basis : {'bare', 'symmetric'}
        Bare ordering is {|p>, |p+2>, |p-2>, ...}; columns are evolved
        input states either way.
    window : (t0, t1), optional
        Integration window override, for a 2-D p a sequence of G;
        defaults to the envelope support.

    Returns
    -------
    (B, d, d) complex array, (d, d) if p was scalar, (G, B, d, d) if
    p was 2-D.
    """
    if basis not in ("bare", "symmetric"):
        raise ValueError(f"unknown basis {basis!r}")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    p_arr = np.asarray(p, dtype=float)
    grouped = p_arr.ndim == 2
    if grouped:
        if not len(envelope) == len(protocol) == len(p_arr):
            raise ValueError("a 2-D p needs one pulse per row")
        pulses = list(zip(envelope, protocol))
        windows = window
    else:
        p_arr = p_arr.reshape(1, -1)
        pulses = [(envelope, protocol)]
        windows = None if window is None else [window]
    n_groups, n_sys = p_arr.shape
    d = 2 * n_max + 1
    eps = np.broadcast_to(np.asarray(epsilon, float), p_arr.shape)
    if windows is None:
        windows = [env.support for env, _ in pulses]
    t0, t1 = (np.array(x, dtype=float) for x in zip(*windows))

    # One bound check per window, and the early refusal of non-finite
    # input, naming its group, before any solve.
    for g, (env, prot) in enumerate(pulses):
        grid = np.linspace(t0[g], t1[g], 257)
        given = (grid, env.evaluate(grid), prot.evaluate(grid), p_arr[g],
                 eps[g])
        if not all(np.isfinite(x).all() for x in given):
            raise IntegratorFailure(
                f"non-finite momentum, epsilon or drive in group {g}")

    bands, doppler = _bands(n_max)
    flat = np.array([i * d + j for i, j, *_ in bands]
                    + [j * d + i for i, j, *_ in bands])
    weights = np.array([w for _, _, w, _ in bands] * 2)
    turn = -1j * np.array([rate for *_, rate in bands])

    def rhs(rows):
        """prepare(times, live) for solve_ivp over the groups rows."""
        work = {"size": None}

        def prepare(times, live):
            """deriv(j, y, out) of the running groups at the rows of times.

            The drive of every row is formed at once: one evaluate() of
            each group's envelope and detuning over its own times, then
            the carrier and band phases of all rows in one array each.
            The work matrix holds the momentum batch innermost, (d, d, B);
            its constant Doppler couplings go in once per set of running
            groups, and the drive entries, every band's upper element and
            then its mirror image, are written with one put() at fixed
            indices.
            """
            if work["size"] != live.size:
                groups = rows[live]
                p_live = p_arr[groups].ravel()
                a = np.zeros((d, d, p_live.size), dtype=complex)
                for i, j, rate in doppler:
                    a[i, j] = a[j, i] = rate * p_live
                work.update(size=live.size, a=a, eps=eps[groups],
                            product=_ladder_product(a, live.size),
                            slots=(np.arange(p_live.size)[:, None]
                                   + flat * p_live.size).ravel(),
                            pulses=[pulses[g] for g in groups.tolist()])
            a, slots, product = work["a"], work["slots"], work["product"]
            cols = np.ascontiguousarray(times.T)  # [i, j]: group i, row j
            amp, delta = np.empty_like(cols), np.empty_like(cols)
            for i, (env, prot) in enumerate(work["pulses"]):
                amp[i] = env.evaluate(cols[i])
                delta[i] = prot.evaluate(cols[i], check=False)
            drive = amp[:, :, None] * carrier_factor(
                cols[:, :, None], delta[:, :, None], work["eps"][:, None])
            ph = np.exp(turn * times[:, :, None])
            ph = np.concatenate((ph, ph.conj()), axis=2)  # [j, i]
            # (G, B, d, d) keeps the strided out a view; (-1, d, d) copies
            per_group = (live.size, -1, d, d)

            def deriv(j, y, out):
                a.put(slots,
                      (drive[:, j, :, None] * weights) * ph[j, :, None])
                product(y.view(complex).reshape(per_group),
                        out.view(complex).reshape(per_group))
            return deriv
        return prepare

    # At most _LOCKSTEP_SYSTEMS momenta in one lockstep solve, which
    # bounds the stage matrices held at once; groups are independent,
    # so the split changes no result.
    y0 = np.tile(np.eye(d, dtype=complex), (n_sys, 1, 1)).ravel().view(float)
    u_int = np.empty((n_groups, n_sys, d, d), dtype=complex)
    per_solve = max(1, _LOCKSTEP_SYSTEMS // n_sys)
    for first in range(0, n_groups, per_solve):
        rows = np.arange(first, min(first + per_solve, n_groups))
        sol = solve_ivp(rhs(rows), t0[rows], t1[rows],
                        np.tile(y0, (rows.size, 1)), rtol, atol)
        if sol.failed is not None:
            g = int(rows[sol.failed])
            raise IntegratorFailure(
                f"pulse integration failed in group {g} (p in "
                f"[{p_arr[g].min():.6g}, {p_arr[g].max():.6g}]): "
                f"{sol.message}")
        u_int[rows] = sol.y.view(complex).reshape(rows.size, n_sys, d, d)

    # U_S = exp(-i E t1) U_I exp(+i E t0) with E the ladder offsets.
    offsets = port_offsets(n_max) ** 2
    v = bare_transform(n_max)
    t0, t1 = (x[:, None, None, None] for x in (t0, t1))
    out = np.exp(-1j * offsets[:, None] * t1) * u_int \
        * np.exp(1j * offsets * t0)
    if basis == "bare":
        out = v @ out @ v.T
    if grouped:
        return out
    return out[0, 0] if np.ndim(p) == 0 else out[0]


def integrated_efficiency(packet, kind, envelope, protocol, epsilon=0.0,
                          n_max=2, n_nodes=64, **kw):
    """eta = integral |psi(p)|**2 F(p) dp over the packet support.

    kind is a key of EFFICIENCY_ELEMENTS; mirror kinds measure p relative
    to the +-2 carrier.
    """
    p, w = packet.momentum_quadrature(n_nodes)
    u = propagate_unitaries(p, envelope, protocol, epsilon, n_max=n_max, **kw)
    return float(np.sum(w * transfer_efficiency(u, kind)))
