import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dbdsim.exceptions import BoundViolation
from dbdsim.interferometer import MzConfig
from dbdsim.strategies import builtin_strategy, load_knot_table
from dbdsim.units import (
    ConstantDetuning,
    GaussianWavePacket,
    KnotDetuning,
    LinearDetuning,
    PulseEnvelope,
    _natural_spline,
    carrier_factor,
)


def test_carrier_on_resonance_at_zero():
    assert carrier_factor(0.0, 0.0) == 1.0


def test_carrier_epsilon_offset():
    # the polarization error rides on top of the oscillation
    t = 0.3
    base = carrier_factor(t, 0.1)
    assert carrier_factor(t, 0.1, 0.05) == pytest.approx(base + 0.05)


def test_carrier_detuning_changes_frequency():
    t = np.linspace(0, 10, 1001)
    on = carrier_factor(t, 0.0)
    off = carrier_factor(t, 0.5)
    assert np.max(np.abs(on - off)) > 0.5


class TestPulseEnvelope:
    def test_box_area(self):
        env = PulseEnvelope("box", 2.0, 0.47)
        assert env.area() == pytest.approx(2.0 * 0.47, rel=1e-12)

    def test_gaussian_area(self):
        env = PulseEnvelope("gaussian", 1.5, 0.8)
        # full integral of a gaussian, support covers +-6 tau
        assert env.area() == pytest.approx(1.5 * 0.8 * math.sqrt(2 * math.pi),
                                           rel=1e-6)

    def test_box_support_and_values(self):
        env = PulseEnvelope("box", 2.0, 0.5, center=1.0)
        assert env.support == (1.0, 1.5)
        assert env.evaluate(1.25) == 2.0
        assert env.evaluate(0.99) == 0.0

    def test_gaussian_peak_at_center(self):
        env = PulseEnvelope("gaussian", 2.502, 1.829, 3.879)
        assert env.evaluate(3.879) == pytest.approx(2.502)

    def test_scaled(self):
        env = PulseEnvelope("box", 2.0, 0.47)
        assert env.scaled(1.5).evaluate(0.2) == pytest.approx(3.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PulseEnvelope("triangle", 1.0, 1.0)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            PulseEnvelope("box", 1.0, 0.0)

    def test_rejects_empty_support(self):
        # grid.split_step_pulse steps over the support and relies on this
        with pytest.raises(ValueError, match="positive duration"):
            PulseEnvelope("box", 1.0, 0.5, support=(1.0, 1.0))

    @given(st.floats(0.1, 5.0), st.floats(0.1, 3.0), st.floats(0.1, 4.0))
    def test_scaling_is_linear(self, peak, width, factor):
        env = PulseEnvelope("gaussian", peak, width)
        t = 0.3 * width
        assert env.scaled(factor).evaluate(t) == pytest.approx(
            factor * env.evaluate(t), rel=1e-12)


class TestProtocols:
    def test_constant_value(self):
        assert ConstantDetuning(0.27).evaluate(12.3) == 0.27

    def test_constant_over_bound_raises(self):
        with pytest.raises(BoundViolation):
            ConstantDetuning(5.0)

    def test_linear_sweep_shape(self):
        # delta(t) = (alpha/width) (t - center) + beta
        prot = LinearDetuning(0.37, 0.315, width=4.0, center=2.0)
        assert prot.evaluate(2.0) == pytest.approx(0.315)
        assert prot.evaluate(4.0) == pytest.approx(0.37 / 4.0 * 2.0 + 0.315)

    def test_linear_bound_checked(self):
        # the documented mirror sweep leaves the default band at its start
        prot = LinearDetuning(0.75, -4.0, width=7.68, center=3.84)
        with pytest.raises(BoundViolation):
            prot.evaluate(0.0)

    def test_ds_mirror_sweep_fits_wider_bound(self):
        prot = LinearDetuning(0.75, -4.0, width=7.68, center=3.84, bound=16.0)
        lo = prot.evaluate(0.0)
        hi = prot.evaluate(7.68)
        assert abs(lo) <= 16 and abs(hi) <= 16

    def test_knot_protocol_interpolates(self):
        times = (0.0, 1.0, 2.0)
        prot = KnotDetuning(times, (0.0, 1.0, 0.0))
        assert prot.evaluate(1.0) == pytest.approx(1.0)
        assert prot.evaluate(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_knot_protocol_clamps_overshoot(self):
        # spline overshoot between knots is clipped, never raised
        prot = KnotDetuning((0, 1, 2, 3), (4.0, -4.0, 4.0, -4.0))
        t = np.linspace(0, 3, 301)
        vals = np.array([prot.evaluate(x) for x in t])
        assert np.all(np.abs(vals) <= 4.0 + 1e-12)

    def test_knot_validation(self):
        with pytest.raises(ValueError):
            KnotDetuning((0.0, 0.0, 1.0), (1, 2, 3))


def knot_sets(count):
    """Seeded knot sets of 2 to 11 knots: uniform, random and, with
    spacings over six decades, ones whose first pivot dgtsv swaps."""
    rng = np.random.default_rng(5)
    for k in range(count):
        n = 2 + k % 10
        if k % 3 == 0:
            times = np.linspace(0.0, rng.uniform(0.1, 8.0), n)
        elif k % 3 == 1:
            times = np.cumsum(rng.uniform(0.01, 3.0, n)) - 4.0
        else:
            times = np.cumsum(10.0 ** rng.uniform(-3.0, 3.0, n))
        yield tuple(times.tolist()), tuple(rng.uniform(-4.0, 4.0, n).tolist())


class TestNaturalSpline:
    """The in-package spline is scipy's natural CubicSpline, bit for bit."""

    @staticmethod
    def scipy_spline(times, values):
        from scipy.interpolate import CubicSpline
        return CubicSpline(times, values, bc_type="natural")

    def test_coefficients_are_scipys(self):
        table = load_knot_table()
        sets = [*knot_sets(2400), (table.times, table.values)]
        swapped = 0
        for times, values in sets:
            want = self.scipy_spline(times, values).c.T[:, ::-1]
            got = np.array(_natural_spline(times, values))
            assert got.tobytes() == want.tobytes(), (times, values)
            swapped += (len(times) > 2
                        and times[2] - times[1] > 2 * (times[1] - times[0]))
        assert min(map(len, sets[:10])) == 2
        assert swapped > 200  # the row-interchange branch is covered

    @pytest.mark.parametrize("k", range(12))
    def test_evaluate_is_at_and_the_old_spline(self, k):
        times, values = list(knot_sets(12))[k]
        if k % 2:  # band-edge knots overshoot, so the clamp acts
            values = tuple(np.resize([4.0, -4.0, 0.0, 3.9], len(times)))
        prot = KnotDetuning(times, values)
        span = times[-1] - times[0]
        t = np.concatenate([times, times, np.random.default_rng(k).uniform(
            times[0] - span, times[-1] + span, 400)]).reshape(2, -1)
        got = prot.evaluate(t)
        want = np.clip(self.scipy_spline(times, values)(t), -4.0, 4.0)
        assert got.shape == t.shape
        assert got.tobytes() == want.tobytes()
        for x in (times[0], times[-1], times[0] - span, times[-1] + span):
            zero_d = prot.evaluate(np.float64(x))
            assert np.ndim(zero_d) == 0
            assert zero_d == np.clip(self.scipy_spline(times, values)(x),
                                     -4.0, 4.0)


class TestWavePacket:
    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            GaussianWavePacket(0.0, 0.0)

    def test_first_zone(self):
        with pytest.raises(ValueError):
            GaussianWavePacket(1.2, 0.05)

    def test_quadrature_normalized(self):
        p, w = GaussianWavePacket(0.1, 0.05).momentum_quadrature()
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        assert p.min() > -0.21 and p.max() < 0.41

    def test_quadrature_moments(self):
        p, w = GaussianWavePacket(0.1, 0.05).momentum_quadrature()
        assert np.sum(w * p) == pytest.approx(0.1, abs=1e-8)
        assert np.sum(w * (p - 0.1) ** 2) == pytest.approx(0.05**2,
                                                           rel=1e-6)

    @pytest.mark.parametrize("n_nodes", [0, -3])
    def test_quadrature_needs_a_node(self, n_nodes):
        with pytest.raises(ValueError, match="n_nodes must be at least 1"):
            GaussianWavePacket(0.1, 0.05).momentum_quadrature(n_nodes)

    @given(st.floats(-0.3, 0.3), st.floats(0.01, 0.1))
    def test_density_integrates_to_one(self, p0, sigma):
        _, w = GaussianWavePacket(p0, sigma).momentum_quadrature()
        assert abs(w.sum() - 1.0) < 1e-12


def test_polarization_error_range():
    # an interferometer scenario holds epsilon in [0, 1]
    def config(epsilon):
        return MzConfig(builtin_strategy("c_dbd"), 0.000357,
                        GaussianWavePacket(0.0, 0.05), epsilon=epsilon)

    assert config(0.2).epsilon == 0.2
    for bad in (-0.1, 1.5, 5.0, math.nan):
        with pytest.raises(ValueError):
            config(bad)


@pytest.mark.parametrize("make", [
    lambda: PulseEnvelope("gaussian", math.nan, 0.5),
    lambda: PulseEnvelope("box", 1.0, math.inf),
    lambda: PulseEnvelope("gaussian", 1.0, 0.5, support=(0.0, math.nan)),
    lambda: ConstantDetuning(math.nan),
    lambda: LinearDetuning(math.nan, 0.0, 0.47),
    lambda: KnotDetuning((0.0, 1.0), (0.0, math.nan)),
])
def test_constructors_refuse_non_finite_parameters(make):
    with pytest.raises(ValueError, match="finite"):
        make()


class TestScalarEvaluation:
    """evaluate() of one time alone, 0-d or a float, gives bit for bit
    that time's element in a 1-D and in a 2-D array of times: the ladder
    solver reads the drive in short columns, the grid in long rows."""

    @staticmethod
    def times(window, extra=()):
        lo, hi = window
        span = hi - lo
        rng = np.random.default_rng(11)
        return [lo, hi, lo - 0.2 * span, hi + 0.2 * span, *extra,
                *rng.uniform(lo - 0.05 * span, hi + 0.05 * span, 1000)]

    @staticmethod
    def assert_bitwise(evaluate, times):
        times = np.array(times[:len(times) // 2 * 2])
        alone = []
        for t in times:
            zero_d = evaluate(t)
            assert np.ndim(zero_d) == 0
            assert np.float64(evaluate(float(t))).tobytes() == \
                zero_d.tobytes(), t
            alone.append(zero_d)
        alone = np.array(alone)
        # a row, a 2-D array and its strided transpose
        for shape in (lambda x: x, lambda x: x.reshape(2, -1),
                      lambda x: x.reshape(2, -1).T):
            got, want = evaluate(shape(times)), shape(alone)
            assert got.shape == want.shape
            bad = got.view(np.int64) != want.view(np.int64)
            assert not bad.any(), shape(times)[bad]

    @pytest.mark.parametrize("env", [
        PulseEnvelope("gaussian", 2.0, 0.47),
        PulseEnvelope("gaussian", 3.1, 0.9, 1.2, support=(0.0, 2.4)),
        PulseEnvelope("box", 2.0, 1.1, 0.2),
        PulseEnvelope("box", 1.5, 2.0, 0.0, support=(0.5, 3.0)),
    ])
    def test_envelopes(self, env):
        # squared as x * x inside an array, this time would round 1 ulp
        # away from its pow square alone on the first envelope
        edges = (env.center, env.center + env.width, -0.9894197700229684)
        self.assert_bitwise(env.evaluate, self.times(env.support, edges))

    @pytest.mark.parametrize("name,pulse", [
        ("c_dbd", "bs"), ("cd_dbd", "bs"), ("ds_dbd", "bs"),
        ("ds_dbd", "mirror"), ("oct_hybrid", "mirror")])
    def test_builtin_protocols(self, name, pulse):
        env, protocol = getattr(builtin_strategy(name), pulse)
        knots = getattr(protocol, "times", ())
        self.assert_bitwise(lambda t: protocol.evaluate(t, check=False),
                            self.times(env.support, knots))

    def test_clamped_spline(self):
        # knots at the band edge make the spline overshoot, so the clamp
        # is exercised as well as every interval and both extrapolations
        rng = np.random.default_rng(3)
        times = tuple(np.sort(rng.uniform(0.0, 3.0, 9)))
        values = tuple(rng.choice([-4.0, 4.0, 0.0, 3.9], 9))
        prot = KnotDetuning(times, values)
        self.assert_bitwise(prot.evaluate, self.times(
            (0.0, 3.0), (*times, times[0] - 5.0, times[-1] + 5.0)))

    def test_linear_sweep_outside_its_band(self):
        sweep = LinearDetuning(30.0, 0.2, 0.5)
        self.assert_bitwise(lambda t: sweep.evaluate(t, False),
                            self.times((-1.0, 1.0)))
