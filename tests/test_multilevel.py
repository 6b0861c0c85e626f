import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from dbdsim import multilevel, strategies
from dbdsim.exceptions import BoundViolation, IntegratorFailure
from dbdsim.multilevel import (
    bare_transform,
    build_hamiltonian,
    integrated_efficiency,
    port_offsets,
    propagate_unitaries,
)
from dbdsim.strategies import builtin_strategy
from dbdsim.units import (ConstantDetuning, GaussianWavePacket, KnotDetuning,
                          LinearDetuning, PulseEnvelope, carrier_factor)
from pulse_efficiency import bs_efficiency, bs_transfer, mirror_efficiency

FLAT = ConstantDetuning(0.0)


def box(omega, tau):
    return PulseEnvelope("box", omega, tau)


class TestBasis:
    """The ladder layout: port_offsets and build_hamiltonian's basis."""

    def test_dimension(self):
        for n_max in (1, 2, 3):
            h = build_hamiltonian(n_max, 0.0, 0.0, box(1.0, 1.0), FLAT)
            assert h.shape == (2 * n_max + 1, 2 * n_max + 1)

    def test_kinetic_energies(self):
        h = build_hamiltonian(2, 0.3, 5.0, box(1.0, 1.0), FLAT)
        assert np.array_equal(np.diag(h), 0.3**2 + np.array(
            [0.0, 4.0, 4.0, 16.0, 16.0]))

    def test_offsets(self):
        assert np.array_equal(port_offsets(2) ** 2, [0, 4, 4, 16, 16])
        for n_max in range(1, 8):  # the 4 n**2 of both bases, exactly
            n = np.arange(1, n_max + 1)
            assert np.array_equal(port_offsets(n_max) ** 2, np.concatenate(
                ([0.0], np.repeat(4.0 * n * n, 2))))

    def test_validation(self):
        for n_max, p, message in (
                (0, 0.0, "n_max must be at least 1"),
                (2, 1.0, "quasi-momentum must satisfy |p| < 1"),
                (2, -1.0, "quasi-momentum must satisfy |p| < 1")):
            with pytest.raises(ValueError) as err:
                build_hamiltonian(n_max, p, 0.0, box(1.0, 1.0), FLAT)
            assert str(err.value) == message


class TestBareTransform:
    def test_orthogonal(self):
        for n_max in (1, 2, 3):
            v = bare_transform(n_max)
            assert np.max(np.abs(v @ v.T - np.eye(v.shape[0]))) < 1e-15

    def test_symmetric_state_maps_to_equal_weights(self):
        v = bare_transform(2)
        bare = v @ np.array([0, 1, 0, 0, 0], dtype=complex)
        # |1,+> = (|p+2> + |p-2>)/sqrt(2)
        assert bare[1] == pytest.approx(1 / np.sqrt(2))
        assert bare[2] == pytest.approx(1 / np.sqrt(2))


class TestHamiltonian:
    @given(st.floats(0.0, 5.0), st.floats(0.0, 3.0), st.floats(-3.0, 3.0),
           st.floats(0.0, 0.3), st.floats(-0.9, 0.9), st.integers(1, 3))
    @settings(max_examples=80)
    def test_hermitian(self, t, omega, delta, eps, p, n_max):
        h = build_hamiltonian(n_max, p, t, box(omega, 10.0),
                              ConstantDetuning(delta), eps)
        assert np.max(np.abs(h - h.T)) <= 1e-14

    def test_elements(self):
        h = build_hamiltonian(2, 0.25, 0.0, box(1.7, 1.0),
                              ConstantDetuning(0.3), 0.1)
        c = np.cos(0.0) + 0.1
        assert h[0, 1] == pytest.approx(np.sqrt(2) * 1.7 * c)
        assert h[1, 3] == pytest.approx(1.7 * c)
        assert h[1, 2] == pytest.approx(4 * 0.25)   # Doppler, n=1
        assert h[3, 4] == pytest.approx(8 * 0.25)   # Doppler, n=2
        assert h[0, 2] == 0.0
        assert np.allclose(np.diag(h), 0.25**2 + port_offsets(2) ** 2)


    @pytest.mark.parametrize("n_max", [2, 3])
    @pytest.mark.parametrize("name,pulse", [("ds_dbd", "bs"),
                                            ("oct_hybrid", "mirror")])
    def test_solver_integrates_the_hamiltonian(self, name, pulse, n_max):
        # propagate_unitaries drops the common phase exp(-i p^2 (t1 - t0))
        env, protocol = getattr(builtin_strategy(name), pulse)
        p, eps = 0.13, 0.05
        d = 2 * n_max + 1
        t0, t1 = env.support

        def rhs(t, y):
            h = build_hamiltonian(n_max, p, t, env, protocol, eps)
            return (-1j * h @ y.reshape(d, d)).ravel()

        sol = solve_ivp(rhs, (t0, t1), np.eye(d, dtype=complex).ravel(),
                        method="DOP853", rtol=1e-12, atol=1e-14)
        u_ref = sol.y[:, -1].reshape(d, d) * np.exp(1j * p**2 * (t1 - t0))
        u = propagate_unitaries(p, env, protocol, eps, n_max=n_max,
                                rtol=1e-12, atol=1e-14, basis="symmetric")
        assert np.max(np.abs(u - u_ref)) <= 1e-8


class TestPropagation:
    def test_unitarity(self):
        u = propagate_unitaries(np.array([-0.2, 0.0, 0.15]),
                                box(2.0, 0.6), FLAT)
        eye = np.eye(5)
        for m in u:
            assert np.max(np.abs(m.conj().T @ m - eye)) < 1e-8

    def test_parity_confinement_at_p_zero(self):
        # with no Doppler coupling the antisymmetric ladder is dark
        u = propagate_unitaries(0.0, box(2.0, 0.8), FLAT, epsilon=0.2,
                                basis="symmetric")
        assert abs(u[2, 0]) <= 1e-12
        assert abs(u[4, 0]) <= 1e-12

    def test_mirror_parity(self):
        env = PulseEnvelope("gaussian", 2.89, 0.64)
        for p in (0.07, -0.13, 0.2):
            fp = mirror_efficiency(-p, env, FLAT).value
            fm = mirror_efficiency(p, env, FLAT, direction="minus").value
            assert fm == pytest.approx(fp, abs=1e-6)

    def test_truncation_convergence_weak_drive(self):
        env = PulseEnvelope("gaussian", 1.5, 0.47)
        for p in (0.0, 0.1):
            f2 = bs_efficiency(p, env, FLAT, n_max=2).value
            f3 = bs_efficiency(p, env, FLAT, n_max=3).value
            assert abs(f2 - f3) <= 1e-4

    def test_truncation_scale_published_drives(self):
        # at the published drive strengths the +-4 edge states shift the
        # main ports at the few-1e-4 to 2e-3 scale; pin that ceiling
        for omega, tau in ((2.0, 0.47), (2.89, 0.64)):
            env = PulseEnvelope("gaussian", omega, tau)
            for p in (0.0, 0.2):
                u2 = propagate_unitaries(p, env, FLAT, n_max=2)
                u3 = propagate_unitaries(p, env, FLAT, n_max=3)
                d = np.abs(np.abs(u2[:3, :3]) ** 2
                           - np.abs(u3[:3, :3]) ** 2).max()
                assert d <= 3e-3

    def test_batch_matches_scalar(self):
        ps = np.array([-0.1, 0.05, 0.3])
        batch = propagate_unitaries(ps, box(1.5, 0.7), FLAT)
        for p, m in zip(ps, batch):
            single = propagate_unitaries(float(p), box(1.5, 0.7), FLAT)
            assert np.max(np.abs(single - m)) < 1e-7

    def test_single_node_matches_large_batch(self):
        # solve_ivp controls the error of the whole batch, so a node
        # solved alone differs from it at the tolerance level
        env, protocol = builtin_strategy("c_dbd").mirror
        nodes = 0.3 * np.cos(np.pi * np.arange(129) / 128)
        rtol = 1e-9
        batch = propagate_unitaries(nodes, env, protocol, rtol=rtol,
                                    atol=rtol * 1e-2)
        for i in (0, 40, 64):
            single = propagate_unitaries(nodes[i], env, protocol, rtol=rtol,
                                         atol=rtol * 1e-2)
            assert np.max(np.abs(single - batch[i])) <= 100 * rtol

    def test_bare_basis_is_conjugated_symmetric(self):
        u_sym = propagate_unitaries(0.12, box(2.0, 0.5), FLAT,
                                    basis="symmetric")
        u_bare = propagate_unitaries(0.12, box(2.0, 0.5), FLAT, basis="bare")
        v = bare_transform(2)
        assert np.max(np.abs(v @ u_sym @ v.T - u_bare)) < 1e-12

    def test_solver_keeps_only_the_final_state(self, monkeypatch):
        # one state per group comes back, no trajectory of accepted steps
        stored = []
        solve_ivp = multilevel.solve_ivp

        def spy(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            stored.append((sol.y.shape, sol.nfev))
            return sol

        monkeypatch.setattr(multilevel, "solve_ivp", spy)
        propagate_unitaries(np.array([0.0, 0.1]), box(2.0, 0.6), FLAT)
        [(shape, nfev)] = stored
        assert shape == (1, 2 * 2 * 5 * 5)  # two 5x5 complex unitaries
        assert isinstance(nfev, int) and nfev > 0

    def test_unknown_basis(self):
        with pytest.raises(ValueError):
            propagate_unitaries(0.0, box(1.0, 0.5), FLAT, basis="momentum")

    def test_protocol_bound_trips_before_integration(self):
        sweep = LinearDetuning(40.0, 0.0, width=0.5)  # reaches +-20
        with pytest.raises(BoundViolation):
            propagate_unitaries(0.0, box(1.0, 0.5), sweep)


def reference_unitaries(p, envelope, protocol, epsilon=0.0, n_max=2,
                        rtol=1e-10, atol=1e-12, basis="bare", window=None):
    """propagate_unitaries written plainly on scipy's solve_ivp: the rhs
    calls evaluate() and carrier_factor() at one 0-d time and takes one
    exp per band, where the package reads the drive in columns of stage
    times."""
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    nsys, d = p_arr.size, 2 * n_max + 1
    eps = np.broadcast_to(np.asarray(epsilon, dtype=float), (nsys,))
    t0, t1 = window if window is not None else envelope.support
    bands, doppler = multilevel._bands(n_max)
    a = np.zeros((nsys, d, d), dtype=complex)
    for i, j, rate in doppler:
        a[:, i, j] = a[:, j, i] = rate * p_arr

    def rhs(t, y):
        u = y.view(complex).reshape(nsys, d, d)
        c = carrier_factor(t, protocol.evaluate(t, check=False), eps)
        drive = envelope.evaluate(t) * c
        for (i, j, wgt, rate) in bands:
            ph = np.exp(-1j * rate * t)
            a[:, i, j] = wgt * drive * ph
            a[:, j, i] = wgt * drive * np.conj(ph)
        du = -1j * np.einsum("bij,bjk->bik", a, u)
        return du.reshape(-1).view(float)

    y0 = np.ascontiguousarray(np.broadcast_to(np.eye(d, dtype=complex),
                                              (nsys, d, d)))
    sol = solve_ivp(rhs, (t0, t1), y0.reshape(-1).view(float),
                    method="DOP853", t_eval=[t1], rtol=rtol, atol=atol)
    u_int = sol.y[:, -1].copy().view(complex).reshape(nsys, d, d)
    offsets = port_offsets(n_max) ** 2
    u_s = np.exp(-1j * offsets[:, None] * t1) * u_int \
        * np.exp(1j * offsets[None, :] * t0)
    if basis == "bare":
        v = bare_transform(n_max)
        u_s = v @ u_s @ v.T
    return u_s[0] if np.ndim(p) == 0 else u_s


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("pulse", ["bs", "mirror"])
@pytest.mark.parametrize("name", ["ds_dbd", "c_dbd", "oct_hybrid"])
def test_scalar_drive_matches_the_array_reference(name, pulse, n_max):
    env, protocol = getattr(builtin_strategy(name), pulse)
    lo, hi = env.support
    p = np.array([-0.17, 0.02, 0.11])
    cases = [
        dict(p=p, epsilon=np.array([0.0, 0.03, -0.02])),
        dict(p=p, epsilon=0.01),
        dict(p=0.07, window=(lo + 0.1 * (hi - lo), hi - 0.05 * (hi - lo))),
    ]
    for basis in ("bare", "symmetric"):
        for kw in cases:
            kw.update(envelope=env, protocol=protocol, n_max=n_max,
                      basis=basis)
            u = propagate_unitaries(rtol=1e-6, atol=1e-8, **kw)
            ref = reference_unitaries(rtol=1e-6, atol=1e-8, **kw)
            assert np.array_equal(u, ref), kw


def test_atol_defaults_to_a_hundredth_of_rtol():
    env, protocol = builtin_strategy("ds_dbd").bs
    p = np.array([-0.1, 0.0, 0.1])
    derived = propagate_unitaries(p, env, protocol, 0.02, rtol=1e-6)
    given = propagate_unitaries(p, env, protocol, 0.02, rtol=1e-6, atol=1e-8)
    assert np.array_equal(derived, given)


class TestTolerances:
    """solve_ivp holds the one tolerance rule of every solve."""

    @staticmethod
    def prepare(times, live):
        raise AssertionError("a refused tolerance must stop the solve first")

    @pytest.mark.parametrize("rtol", [0.0, -1e-9, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("atol", [None, -1.0])  # before the atol check
    def test_rtol_refused_before_any_rhs_call(self, rtol, atol):
        with pytest.raises(ValueError, match="rtol must be positive"):
            multilevel.solve_ivp(self.prepare, [0.0], [1.0], np.ones((1, 2)),
                                 rtol, atol)

    def test_negative_atol_refused(self):
        with pytest.raises(ValueError, match="atol must be positive"):
            multilevel.solve_ivp(self.prepare, [0.0], [1.0], np.ones((1, 2)),
                                 1e-6, -1e-9)

    @pytest.mark.parametrize("atol", [0.0, np.nan, np.inf])
    def test_zero_or_non_finite_atol_refused(self, atol):
        # every client state holds zeros, which atol = 0 divides by
        with pytest.raises(ValueError,
                           match="atol must be positive and finite"):
            multilevel.solve_ivp(self.prepare, [0.0], [1.0], np.zeros((1, 2)),
                                 1e-6, atol)

    def test_atol_derived_from_the_rtol_as_given(self):
        def prepare(times, live):
            def deriv(j, y, out):
                out[:] = -y * np.cos(times[j][:, None])
            return deriv

        def solve(*tolerances):
            return multilevel.solve_ivp(prepare, [0.0, 0.2], [1.0, 2.5],
                                        [[1.0, -2.0], [0.5, 3.0]],
                                        *tolerances)

        for rtol in (1e-6, 1e-20):  # 1e-20 lies below scipy's rtol floor
            derived, given = solve(rtol), solve(rtol, rtol * 1e-2)
            assert derived.nfev == given.nfev
            assert np.array_equal(derived.y, given.y)
        floor = 100 * np.finfo(float).eps
        assert not np.array_equal(solve(1e-20).y, solve(1e-20, floor * 1e-2).y)


class TestNonFiniteDrive:
    """NaN in the drive used to keep DOP853 stepping without end."""

    def test_inputs(self):
        env = box(2.0, 0.5)
        for kw in (dict(p=[0.0, np.nan]), dict(epsilon=np.inf)):
            kw = {"p": [0.0, 0.1], **kw}
            with pytest.raises(IntegratorFailure, match="non-finite"):
                propagate_unitaries(envelope=env, protocol=FLAT, **kw)

    def test_drive(self):
        class NanEnvelope:
            support = (0.0, 0.1)

            def evaluate(self, t):
                return np.full(np.shape(t), np.nan)

        with pytest.raises(IntegratorFailure, match="non-finite"):
            propagate_unitaries([0.0, 0.1], NanEnvelope(), FLAT)


class TestEfficiencies:
    def test_bs_transfer_symmetric_at_p_zero(self):
        pp, pm = bs_transfer(0.0, PulseEnvelope("gaussian", 2.0, 0.47), FLAT)
        assert pp == pytest.approx(pm, abs=1e-10)

    def test_efficiency_record_fields(self):
        eff = bs_efficiency(0.1, box(2.0, 0.5), FLAT, epsilon=0.05)
        assert eff.kind == "beam_splitter"
        assert eff.p == 0.1 and eff.epsilon == 0.05
        assert 0.0 <= eff.value <= 1.0

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            mirror_efficiency(0.0, box(1.0, 0.5), FLAT, direction="sideways")

    def test_integrated_matches_quadrature(self):
        packet = GaussianWavePacket(0.0, 0.05)
        env = box(2.0, 0.6)
        eta = integrated_efficiency(packet, "beam_splitter", env, FLAT,
                                    n_nodes=32)
        p, w = packet.momentum_quadrature(32)
        pp, pm = bs_transfer(p, env, FLAT)
        assert eta == pytest.approx(float(np.sum(w * (pp + pm))), abs=1e-12)

    def test_integrated_bad_kind(self):
        with pytest.raises(ValueError):
            integrated_efficiency(GaussianWavePacket(0.0, 0.05), "phase",
                                  box(1.0, 0.5), FLAT)


def builtin_pulses():
    return [getattr(builtin_strategy(name), pulse)
            for name in ("c_dbd", "ds_dbd", "oct_hybrid")
            for pulse in ("bs", "mirror")]


def grouped(p, pulses, epsilon=0.0, **kw):
    """propagate_unitaries with one group per pulse; p is shared or 2-D."""
    p = np.asarray(p, dtype=float)
    envelopes, protocols = zip(*pulses)
    return multilevel.propagate_unitaries(
        np.broadcast_to(p, (len(pulses), p.shape[-1])), envelopes,
        protocols, epsilon, **kw)


class TestGroups:
    """A 2-D p solves each group as scipy's DOP853 would solve it alone."""

    def test_tableau_is_scipys(self):
        from scipy.integrate._ivp import dop853_coefficients as scipy_tab
        loaded = multilevel._dop853
        assert loaded is not scipy_tab
        for name in ("A", "B", "C", "E3", "E5", "N_STAGES"):
            assert np.array_equal(getattr(loaded, name),
                                  getattr(scipy_tab, name)), name

    @pytest.mark.parametrize("rtol", [1e-6, 1e-9])
    def test_each_group_is_scipy_dop853(self, rtol):
        pulses = builtin_pulses()
        rng = np.random.default_rng(3)
        p = rng.uniform(-0.3, 0.3, (len(pulses), 3))
        eps = rng.uniform(0.0, 0.05, (len(pulses), 3))
        windows = []
        for g, (env, _) in enumerate(pulses):
            lo, hi = env.support
            windows.append(env.support if g % 2 else
                           (lo + 0.1 * (hi - lo), hi - 0.05 * (hi - lo)))
        u = grouped(p, pulses, eps, rtol=rtol, atol=rtol * 1e-2,
                    window=windows)
        for g, (env, protocol) in enumerate(pulses):
            ref = reference_unitaries(p[g], env, protocol, eps[g],
                                      rtol=rtol, atol=rtol * 1e-2,
                                      window=windows[g])
            assert np.array_equal(u[g], ref), g

    def test_integrator_is_scipy_dop853_on_any_system(self):
        # real linear systems with a time factor, on mixed intervals; the
        # fast rotation makes components cross zero within the last step
        rng = np.random.default_rng(5)
        mats = [rng.normal(0.0, 8.0, (4, 4)) for _ in range(5)]
        t0 = np.array([0.0, -1.0, 0.3, 2.0, 0.0])
        t1 = np.array([1.0, 0.5, 2.9, 2.1, 3.0])
        y0 = rng.normal(size=(5, 4))

        def prepare(times, live):
            def deriv(j, y, out):
                for i, g in enumerate(live):
                    out[i] = (mats[g] @ y[i]) * np.cos(times[j, i])
            return deriv

        for rtol in (1e-6, 1e-9):
            sol = multilevel.solve_ivp(prepare, t0, t1, y0, rtol, rtol * 1e-2)
            assert sol.failed is None
            for g in range(5):
                ref = solve_ivp(lambda t, y: (mats[g] @ y) * np.cos(t),
                                (t0[g], t1[g]), y0[g], method="DOP853",
                                t_eval=[t1[g]], rtol=rtol, atol=rtol * 1e-2)
                assert np.array_equal(sol.y[g], ref.y[:, -1]), (rtol, g)

    @pytest.mark.filterwarnings("error")  # scipy's branches do not warn
    @pytest.mark.parametrize("rtol", [1e-6, 1e-9])
    def test_integrator_is_scipy_dop853_on_every_branch(self, rtol):
        rng = np.random.default_rng(11)
        mats = rng.normal(0.0, 2.0, (6, 3, 3))
        push = rng.normal(size=(6, 3))
        rest = rng.normal(size=3)
        systems = [
            # zero state, driven from t0 on: d0 < 1e-5
            lambda t, y: mats[0] @ y * np.cos(t) + push[0] * np.cos(3 * t),
            # at rest at t0 and driven as t**6: d1 and d2 <= 1e-15
            lambda t, y: mats[1] @ (y - rest) * np.cos(t) + push[1] * t ** 6,
            # a kick at t = 0.6 that grown steps run into: rejections
            lambda t, y: -0.5 * y + push[2] * np.exp(-((t - 0.6) / 0.05) ** 2),
            # smooth and long
            lambda t, y: mats[3] @ y * 0.1 * np.cos(t),
            # zero state, no drive: every error norm is 0
            lambda t, y: mats[4] @ y * np.cos(t),
            # at rest at t0 and driven as sin(t): d1 = 0 < d2
            lambda t, y: (mats[5] @ (y - rest) * np.cos(t)
                          + push[5] * np.sin(t)),
        ]
        t0 = np.array([0.0, 0.0, 0.0, 0.0, -1.0, 0.0])
        t1 = np.array([1.5, 1.2, 1.0, 14.0, 0.5, 0.7])
        y0 = np.array([np.zeros(3), rest, rng.normal(size=3),
                       rng.normal(size=3), np.zeros(3), rest])
        assert not systems[1](t0[1], y0[1]).any()
        assert not systems[5](t0[5], y0[5]).any()

        def prepare(times, live):
            def deriv(j, y, out):
                for i, g in enumerate(live):
                    out[i] = systems[g](times[j, i], y[i])
            return deriv

        sol = multilevel.solve_ivp(prepare, t0, t1, y0, rtol, rtol * 1e-2)
        assert sol.failed is None
        attempts, rejections = [], []
        for g, fun in enumerate(systems):
            kw = dict(method="DOP853", rtol=rtol, atol=rtol * 1e-2)
            ref = solve_ivp(fun, (t0[g], t1[g]), y0[g], t_eval=[t1[g]], **kw)
            assert np.array_equal(sol.y[g], ref.y[:, -1]), g
            # without t_eval, nfev is 2 + 12 per tried step
            steps = solve_ivp(fun, (t0[g], t1[g]), y0[g], **kw)
            attempts.append((steps.nfev - 2) // 12)
            rejections.append(attempts[-1] - (steps.t.size - 1))
        # one lockstep step per step of the longest group, and some group
        # rejects while a group that never rejects is still running
        assert sol.nfev == 2 + 12 * max(attempts)
        assert any(rejections[a] and not rejections[b]
                   and attempts[b] >= attempts[a]
                   for a in range(6) for b in range(6))

    def test_shared_momenta_and_scalar_epsilon(self):
        pulses = builtin_pulses()[:3]
        p = np.array([-0.1, 0.05])
        u = grouped(p, pulses, 0.02, rtol=1e-6, atol=1e-8,
                    basis="symmetric")
        assert u.shape == (3, 2, 5, 5)
        for g, (env, protocol) in enumerate(pulses):
            ref = reference_unitaries(p, env, protocol, 0.02, rtol=1e-6,
                                      atol=1e-8, basis="symmetric")
            assert np.array_equal(u[g], ref), g

    def test_invariant_to_the_number_of_groups(self):
        # the 93 candidates of a budget-100 mirror prescan, 3 momenta each
        problem = strategies.oct_mirror_problem(
            budget=100, momentum_samples=(-0.1, 0.0, 0.1))
        times = np.asarray(problem.knot_times)
        knots = strategies._structured_knots(times, problem.delta_max)
        rng = np.random.default_rng(0)
        knots += [rng.uniform(-4.0, 4.0, times.size) for _ in range(12)]
        pulses = [(problem.envelope, KnotDetuning(tuple(times), tuple(k)))
                  for k in knots]
        p = np.array(problem.momentum_samples)
        kw = dict(rtol=1e-6, atol=1e-8)
        every = grouped(p, pulses, **kw)
        assert every.shape[0] == 93
        for picks in ([40], [92, 0], [5, 61, 17], list(range(3, 88, 5))):
            some = grouped(p, [pulses[g] for g in picks], **kw)
            assert np.array_equal(some, every[picks]), picks

    def test_split_into_lockstep_solves_changes_nothing(self, monkeypatch):
        pulses = builtin_pulses()
        p = np.random.default_rng(4).uniform(-0.2, 0.2, (len(pulses), 4))
        kw = dict(rtol=1e-6, atol=1e-8)
        whole = grouped(p, pulses, **kw)
        calls = []
        solve = multilevel.solve_ivp
        monkeypatch.setattr(multilevel, "solve_ivp", lambda fun, t0, *a:
                            calls.append(len(t0)) or solve(fun, t0, *a))
        for cap, sizes in ((9, [2, 2, 2]), (3, [1] * 6)):
            calls.clear()
            monkeypatch.setattr(multilevel, "_LOCKSTEP_SYSTEMS", cap)
            assert np.array_equal(grouped(p, pulses, **kw), whole), cap
            assert calls == sizes

    def test_one_pulse_per_row(self):
        env, protocol = builtin_pulses()[0]
        with pytest.raises(ValueError, match="one pulse per row"):
            multilevel.propagate_unitaries(np.zeros((2, 3)), [env, env],
                                           [protocol], rtol=1e-6)
        with pytest.raises(ValueError, match="one pulse per row"):
            multilevel.propagate_unitaries(np.zeros((3, 3)), [env, env],
                                           [protocol, protocol], rtol=1e-6)

    def test_too_small_step_names_the_group(self):
        # at t = 1e15 the float spacing is 0.125, so scipy's minimum step
        # of ten spacings is far above the steps this drive needs
        late = PulseEnvelope("box", 2.0, 5.0, center=1e15)
        pulses = [(box(2.0, 0.5), FLAT), (late, FLAT)]
        p = np.array([[0.0, 0.1], [-0.2, 0.15]])
        with pytest.raises(IntegratorFailure,
                           match=r"group 1 \(p in \[-0.2, 0.15\]\).*"
                                 r"step size"):
            grouped(p, pulses, rtol=1e-6, atol=1e-8)

    def test_non_finite_drive_names_the_group(self):
        class LateNan:
            """Finite on the check grid, NaN inside the integration."""
            support = (0.0, 0.5)
            check_grid = np.linspace(0.0, 0.5, 257)

            def evaluate(self, t):
                late = (np.asarray(t) > 0.2) & ~np.isin(t, self.check_grid)
                return np.where(late, np.nan, 1.0)

        pulses = [(box(2.0, 0.5), FLAT), (LateNan(), FLAT)]
        with pytest.raises(IntegratorFailure,
                           match=r"group 1 \(p in \[0, 0.1\]\).*not finite"):
            grouped(np.array([0.0, 0.1]), pulses, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("n_max", [1, 3])
    def test_groups_dropping_out_rebuild_the_work_arrays(self, n_max):
        # four groups whose windows end at four different times: each
        # finish compacts the running groups and rebuilds the (d, d, B)
        # work arrays, and every stage row of k is a strided view
        pulses = builtin_pulses()[:4]
        rng = np.random.default_rng(n_max)
        p = rng.uniform(-0.3, 0.3, (len(pulses), 5))
        windows = []
        for g, (env, _) in enumerate(pulses):
            lo, hi = env.support
            windows.append((lo, hi - 0.1 * g * (hi - lo)))
        kw = dict(n_max=n_max, rtol=1e-7, atol=1e-9)
        u = grouped(p, pulses, 0.01, window=windows, **kw)
        for g, (env, protocol) in enumerate(pulses):
            ref = reference_unitaries(p[g], env, protocol, 0.01,
                                      window=windows[g], **kw)
            assert np.array_equal(u[g], ref), g


class TestLadderProduct:
    """The batch-innermost product is the batch-outermost einsum."""

    @pytest.mark.parametrize("n_max", [1, 2, 3])
    @pytest.mark.parametrize("batch", [1, 2, 9, 64, 65, 128, 129, 837])
    def test_matches_the_batch_outermost_einsum(self, batch, n_max):
        d = 2 * n_max + 1
        rng = np.random.default_rng(10 * batch + n_max)

        def draw(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        bands, doppler = multilevel._bands(n_max)
        banded = np.zeros((batch, d, d), dtype=complex)
        for i, j, *_ in bands + doppler:
            banded[:, i, j], banded[:, j, i] = draw(batch), draw(batch)
        u = draw(batch, d, d)
        for a in (banded, draw(batch, d, d)):
            expected = -1j * np.einsum("bij,bjk->bik", a, u)
            a_t = np.ascontiguousarray(a.transpose(1, 2, 0))
            for groups in (1, 3):
                if batch % groups:
                    continue
                shape = (groups, batch // groups, d, d)
                # out strided as a stage row of solve_ivp's k
                k = np.zeros((groups, 3, 2 * u[0].size * shape[1]))
                out = k[:, 1].view(complex).reshape(shape)
                product = multilevel._ladder_product(a_t, groups)
                product(u.reshape(shape), out)
                assert np.array_equal(out.reshape(u.shape), expected), groups
                assert not k[:, 0].any() and not k[:, 2].any()
