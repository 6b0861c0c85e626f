import numpy as np
import pytest

from dbdsim import strategies
from dbdsim.exceptions import BoundViolation
from dbdsim.strategies import (
    BS_OMEGA,
    BS_TAU,
    CD_BS_DELTA,
    MIRROR_OMEGA,
    MIRROR_TAU,
    OptimizationProblem,
    bs_cost,
    builtin_strategy,
    integrated_mirror_efficiency,
    load_knot_table,
    mirror_cost,
    oct_mirror_envelope,
    oct_mirror_problem,
    optimize,
    parse_knot_table,
    save_knot_table,
)
from dbdsim.units import (
    ConstantDetuning,
    KnotDetuning,
    LinearDetuning,
    PulseEnvelope,
)

from checks import bs_envelope, bs_protocol, mirror_envelope, mirror_protocol

NULL = (PulseEnvelope("box", 0.0, 0.5), ConstantDetuning(0.0))
# the CLI's uniform mirror samples: n_samples = 17, sample_halfwidth = 0.2
UNIFORM = tuple(np.linspace(-0.2, 0.2, 17))


class TestBuiltins:
    def test_shared_beam_splitter_envelope(self):
        for name in ("c_dbd", "cd_dbd", "ds_dbd"):
            env = bs_envelope(builtin_strategy(name))
            assert env.shape == "gaussian"
            assert env.peak == BS_OMEGA
            assert env.width == BS_TAU

    def test_c_dbd_is_resonant(self):
        spec = builtin_strategy("c_dbd")
        assert bs_protocol(spec).evaluate(0.3) == 0.0
        assert mirror_protocol(spec).evaluate(-0.5) == 0.0
        assert mirror_envelope(spec).peak == MIRROR_OMEGA
        assert mirror_envelope(spec).width == MIRROR_TAU

    def test_cd_dbd_offsets_only_the_splitter(self):
        spec = builtin_strategy("cd_dbd")
        assert bs_protocol(spec).evaluate(0.0) == CD_BS_DELTA
        assert mirror_protocol(spec).evaluate(0.0) == 0.0

    def test_ds_dbd_sweeps(self):
        spec = builtin_strategy("ds_dbd")
        assert bs_protocol(spec).evaluate(0.0) == pytest.approx(0.315)
        # mirror sweep spans far outside the first band and needs the
        # wide bound: the same ramp under the default bound must refuse
        assert mirror_protocol(spec).evaluate(-3.84) == pytest.approx(-8.5)
        tight = LinearDetuning(0.75, -4.0, width=MIRROR_TAU)
        with pytest.raises(BoundViolation):
            tight.evaluate(-3.84)

    def test_oct_mirror_window(self):
        env = oct_mirror_envelope()
        assert env.support == (0.0, 2.0 * env.center)
        assert env.evaluate(env.center) == pytest.approx(env.peak)
        edge = env.evaluate(env.support[1] - 1e-12)
        assert edge == pytest.approx(0.1054 * env.peak, rel=1e-2)

    def test_oct_hybrid_uses_packaged_knots(self):
        spec = builtin_strategy("oct_hybrid")
        table = load_knot_table()
        assert isinstance(mirror_protocol(spec), KnotDetuning)
        assert mirror_protocol(spec).values == table.values
        assert np.all(np.abs(table.values) <= table.bound)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_strategy("adiabatic")


class TestCosts:
    def test_null_pulse_scores(self):
        assert bs_cost(NULL, (0.0,)) == pytest.approx(1.0, abs=1e-12)
        assert mirror_cost(NULL, (0.0,)) == pytest.approx(2.0, abs=1e-12)

    def test_published_splitter_is_nearly_balanced(self):
        spec = builtin_strategy("ds_dbd")
        assert bs_cost(spec.bs, (0.0,)) < 0.05

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            bs_cost(NULL, ())
        with pytest.raises(ValueError):
            mirror_cost(NULL, ())


class TestProblem:
    def test_target_validation(self):
        with pytest.raises(ValueError):
            OptimizationProblem("phase_gate", NULL[0], (0.0, 1.0), (0.0,))

    def test_budget_floor(self):
        with pytest.raises(ValueError):
            OptimizationProblem("bs_balanced", NULL[0], (0.0, 1.0), (0.0,),
                                budget=50)

    @pytest.mark.parametrize("warm", [(1.0,), (1.0, 2.0, 3.0)])
    def test_warm_start_length_refused_when_built(self, warm):
        # refused by the problem itself, before any optimize call
        with pytest.raises(ValueError, match="2 knot values"):
            OptimizationProblem("bs_balanced", NULL[0], (0.0, 1.0), (0.0,),
                                warm_starts=((0.5, -0.5), warm))

    @pytest.mark.parametrize("times", [(), (0.5,)])
    def test_two_knots_at_least(self, times):
        with pytest.raises(ValueError, match="at least two knots"):
            OptimizationProblem("bs_balanced", NULL[0], times, (0.0,))
        with pytest.raises(ValueError, match="at least two knots"):
            oct_mirror_problem(n_knots=len(times), momentum_samples=UNIFORM)

    @pytest.mark.parametrize("samples", [(0.0, 1.0), (-1.5, 0.0), (np.nan,)])
    def test_momenta_in_the_first_zone(self, samples):
        with pytest.raises(ValueError, match="first zone"):
            OptimizationProblem("bs_balanced", NULL[0], (0.0, 1.0), samples)

    def test_mirror_problem_defaults(self):
        prob = oct_mirror_problem(momentum_samples=UNIFORM)
        assert prob.target == "mirror_bidirectional"
        assert prob.momentum_samples == UNIFORM
        assert len(prob.knot_times) == 8
        assert prob.knot_times[0] == 0.0
        assert prob.knot_times[-1] == pytest.approx(7.758)
        assert prob.delta_max == 4.0


def tiny_bs_problem(**kw):
    env = PulseEnvelope("gaussian", 2.0, 0.47)
    times = tuple(np.linspace(-1.41, 1.41, 4))
    defaults = dict(momentum_samples=(0.0,), budget=150, rtol=1e-5)
    defaults.update(kw)
    return OptimizationProblem("bs_balanced", env, times, **defaults)


class TestOptimizer:
    def test_deterministic_per_seed(self):
        a = optimize(tiny_bs_problem(), seed=3)
        b = optimize(tiny_bs_problem(), seed=3)
        assert a.cost == b.cost
        assert a.protocol.values == b.protocol.values
        assert a.evaluations_used == b.evaluations_used

    def test_budget_charged_and_flagged(self):
        res = optimize(tiny_bs_problem(budget=150), seed=0)
        assert res.budget_exhausted
        assert res.evaluations_used == 150

    def test_history_strictly_improves(self):
        res = optimize(tiny_bs_problem(), seed=1)
        hist = np.asarray(res.cost_history)
        assert hist.size >= 1
        assert np.all(np.diff(hist) < 0.0)
        assert hist[-1] == res.cost

    def test_finds_a_balanced_splitter(self):
        # the prescan alone contains the resonant profile, which is
        # already close to 50/50 at this drive
        res = optimize(tiny_bs_problem(budget=400), seed=0)
        assert res.cost < 0.1
        assert res.best == (res.envelope, res.protocol)

    def test_result_respects_band(self):
        res = optimize(tiny_bs_problem(
            warm_starts=((9.0, -9.0, 9.0, -9.0),)), seed=0)
        assert np.all(np.abs(res.protocol.values) <= 4.0)

    def test_bad_warm_start_size(self):
        with pytest.raises(ValueError):
            optimize(tiny_bs_problem(warm_starts=((1.0, 2.0),)), seed=0)

    def test_budget_300_polishes_and_flags_truthfully(self, monkeypatch):
        # a cheap quadratic in the knot values stands in for the solver
        target = np.sin(np.arange(8.0))
        rtols = []

        def quadratic(candidate, momentum_samples, rtol=1e-9):
            rtols.append(rtol)
            return float(np.sum((candidate[1].values - target) ** 2))

        def each(target, candidates, samples, eps, rtol):
            return [quadratic(c, samples, rtol) for c in candidates]

        # the prescan scores its candidates together, the rest one by one
        monkeypatch.setattr(strategies, "candidate_costs", each)
        problem = oct_mirror_problem(budget=300, momentum_samples=UNIFORM)
        res = optimize(problem, seed=0)
        prescan = 81 + 300 // 8
        polish = [r for r in rtols[prescan:] if r == problem.rtol]
        assert len(polish) >= 4 * 10
        assert res.evaluations_used == len(rtols)
        # the touch-up runs into the budget, and the flag says so
        assert res.evaluations_used == 300
        assert res.budget_exhausted

    def test_fused_prescan_matches_sequential_evaluation(self, monkeypatch):
        problem = oct_mirror_problem(budget=100,
                                     momentum_samples=(-0.1, 0.0, 0.1))
        grouped = strategies.candidate_costs
        sizes = []

        def spy(target, candidates, *args):
            sizes.append(len(candidates))
            return grouped(target, candidates, *args)

        def one_by_one(target, candidates, *args):
            return [grouped(target, [c], *args)[0] for c in candidates]

        monkeypatch.setattr(strategies, "candidate_costs", spy)
        fused = optimize(problem, seed=0)
        # the prescan in one call, then the touch-up one point at a time
        assert sizes == [81 + 100 // 8] + [1] * (len(sizes) - 1)
        monkeypatch.setattr(strategies, "candidate_costs", one_by_one)
        assert optimize(problem, seed=0) == fused


def stand_in_costs(monkeypatch):
    """Replace candidate_costs by a cheap quadratic in the knot values;
    returns the (batch size, rtol) of every call."""
    target = np.sin(np.arange(8.0))
    calls = []

    def quadratic(target_name, candidates, samples, eps, rtol):
        calls.append((len(candidates), rtol))
        return [float(np.sum((c[1].values - target) ** 2))
                for c in candidates]

    monkeypatch.setattr(strategies, "candidate_costs", quadratic)
    return calls


class TestLedger:
    def test_warm_starts_past_the_budget(self, monkeypatch):
        calls = stand_in_costs(monkeypatch)
        warm = tuple(tuple(np.full(8, v)) for v in np.linspace(-1, 1, 10))
        problem = oct_mirror_problem(budget=100, momentum_samples=UNIFORM,
                                     warm_starts=warm)
        res = optimize(problem, seed=0)
        # 10 warm starts + 81 structured + 12 random draws: the prescan
        # is cut to the budget in one call, and nothing is scored after
        assert calls == [(100, problem.rtol)]
        assert res.evaluations_used == 100
        assert res.budget_exhausted

    def test_skipped_polish_is_flagged(self, monkeypatch):
        # a flat cost from a zero start: the touch-up converges inside
        # the 30 evaluations the prescan leaves, too few for the polish
        rtols = []

        def flat(target_name, candidates, samples, eps, rtol):
            rtols.append(rtol)
            return [1.0] * len(candidates)

        monkeypatch.setattr(strategies, "candidate_costs", flat)
        problem = oct_mirror_problem(budget=127, n_knots=2,
                                     momentum_samples=UNIFORM,
                                     warm_starts=((0.0, 0.0),))
        res = optimize(problem, seed=0)
        assert rtols[1:] and set(rtols[1:]) == {1e-8}  # touch-up only
        assert res.evaluations_used < 127  # the ledger refused nothing
        assert res.budget_exhausted

    @pytest.mark.parametrize("budget", [100, 150, 300, 5000])
    def test_ledger_is_truthful(self, monkeypatch, budget):
        calls = stand_in_costs(monkeypatch)
        refused = []

        class Refused(strategies._OutOfBudget):
            def __init__(self):
                refused.append(budget)

        monkeypatch.setattr(strategies, "_OutOfBudget", Refused)
        problem = oct_mirror_problem(budget=budget, momentum_samples=UNIFORM)
        res = optimize(problem, seed=0)
        assert sum(n for n, _ in calls) == res.evaluations_used <= budget
        hist = np.asarray(res.cost_history)
        assert np.all(np.diff(hist) < 0.0)
        assert hist[-1] == res.cost
        # polish points are scored at the problem's rtol, the touch-up's
        # at min(rtol, 1e-8)
        polished = any(rtol == problem.rtol for _, rtol in calls[1:])
        assert res.budget_exhausted == (not polished or bool(refused))


class TestKnotTables:
    def test_save_parse_round_trip(self, tmp_path):
        proto = KnotDetuning((0.0, 0.7, 1.9), (0.5, -1.25, 3.0), bound=6.0)
        path = tmp_path / "knots.txt"
        save_knot_table(str(path), proto, "test_run", 42)
        text = path.read_text()
        assert text.startswith("# strategy=test_run seed=42 bound=6")
        back = parse_knot_table(text)
        assert back.times == proto.times
        assert back.values == proto.values
        assert back.bound == 6.0

    def test_parse_defaults_bound(self):
        back = parse_knot_table("0 1\n2 -1\n")
        assert back.bound == 4.0

    def test_parse_needs_two_rows(self):
        with pytest.raises(ValueError):
            parse_knot_table("# nothing\n0.0 1.0\n")

    def test_load_from_explicit_path(self, tmp_path):
        proto = KnotDetuning((0.0, 1.0), (1.0, -1.0))
        path = tmp_path / "knots.txt"
        save_knot_table(str(path), proto, "x", 0)
        assert load_knot_table(str(path)).values == proto.values


class TestIntegratedEfficiency:
    def test_published_mirror_scale(self):
        spec = builtin_strategy("c_dbd")
        eta = integrated_mirror_efficiency(spec.mirror, sigma_p=0.05)
        assert 0.95 < eta < 0.98
