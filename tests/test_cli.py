import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dbdsim
from dbdsim import cli, interferometer
from dbdsim.cli import main
from dbdsim.io import ResultTable
from dbdsim.units import ConstantDetuning, PulseEnvelope

IDEAL_TSCAN = """
strategy = ideal
g = 0.000357
source.sigma_p = 0.05
t.min = 10
t.max = 80
t.points = 41
"""

SOLVED_TSCAN = """
strategy = ds_dbd
g = 0.000357
source.sigma_p = 0.05
n_nodes = 8
t.min = 10
t.max = 80
t.points = 9
"""


def refuse_to_run(*args, **kwargs):
    raise AssertionError("a config error must stop the command first")


def run(tmp_path, command, config_text, name="run", fmt="csv", extra=()):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(config_text)
    out = tmp_path / f"{name}.{fmt}"
    code = main([command, "--config", str(cfg), "--out", str(out),
                 "--format", fmt, *extra])
    return code, out


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["tscan", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_strategy(self, tmp_path, capsys):
        code, _ = run(tmp_path, "tscan",
                      IDEAL_TSCAN.replace("ideal", "adiabatic"))
        assert code == 2
        assert "strategy" in capsys.readouterr().err

    def test_bad_epsilon(self, tmp_path, capsys):
        code, _ = run(tmp_path, "tscan", IDEAL_TSCAN + "epsilon = 1.5\n")
        assert code == 2

    def test_non_finite_number(self, tmp_path, capsys):
        code, out = run(tmp_path, "tscan",
                        IDEAL_TSCAN.replace("0.000357", "nan"))
        assert code == 2
        assert "g: expected a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_time_grid(self, tmp_path):
        bad = IDEAL_TSCAN.replace("t.points = 41", "t.points = 1")
        code, _ = run(tmp_path, "tscan", bad)
        assert code == 2

    def test_bounds_without_points(self, tmp_path, capsys):
        partial = IDEAL_TSCAN.replace("t.points = 41\n", "")
        code, out = run(tmp_path, "tscan", partial)
        assert code == 2
        assert "t.points" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_failure_is_distinct(self, tmp_path, capsys):
        # valid source, but g*T walks the packet out of the first zone
        fast = IDEAL_TSCAN.replace("g = 0.000357", "g = 0.01")
        code, _ = run(tmp_path, "tscan", fast)
        assert code == 3
        assert "OutOfZone" in capsys.readouterr().err

    def test_unconverged_surrogate_is_numerical(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setattr(interferometer, "_FIRST_DEGREE", 8)
        monkeypatch.setattr(interferometer, "_MAX_DEGREE", 16)
        code, _ = run(tmp_path, "tscan", SOLVED_TSCAN)
        assert code == 3
        assert "IntegratorFailure" in capsys.readouterr().err

    def test_workers_below_one(self, tmp_path, capsys):
        code, out = run(tmp_path, "tscan", IDEAL_TSCAN,
                        extra=("--workers", "0"))
        assert code == 2
        assert "workers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,config", [
        ("tscan", SOLVED_TSCAN),
        ("efficiency-scan", "model = multilevel\ntau.min = 0.47\n"
         "tau.max = 0.47\ntau.points = 1\nomega.min = 2\nomega.max = 2\n"
         "omega.points = 1\n")], ids=["tscan", "efficiency-scan"])
    def test_n_max_below_one(self, tmp_path, capsys, command, config):
        code, out = run(tmp_path, command, config + "n_max = 0\n")
        assert code == 2
        assert "n_max must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestTscan:
    def test_writes_fringe_table(self, tmp_path):
        code, out = run(tmp_path, "tscan", IDEAL_TSCAN)
        assert code == 0
        table = ResultTable.read(str(out))
        assert table.columns == ("T", "P1", "P2", "P3", "P_sum")
        assert len(table.rows) == 41
        assert table.provenance["command"] == "tscan"
        assert table.provenance["strategy"] == "ideal"
        assert float(table.provenance["contrast"]) == pytest.approx(1.0,
                                                                    abs=5e-3)

    def test_deterministic_payload(self, tmp_path):
        _, out_a = run(tmp_path, "tscan", IDEAL_TSCAN, name="a")
        _, out_b = run(tmp_path, "tscan", IDEAL_TSCAN, name="b")
        a = ResultTable.read(str(out_a))
        b = ResultTable.read(str(out_b))
        assert a.equal_payload(b)

    def test_seed_flag_overrides_config(self, tmp_path):
        code, out = run(tmp_path, "tscan", IDEAL_TSCAN + "seed = 3\n",
                        extra=("--seed", "11"))
        assert code == 0
        assert ResultTable.read(str(out)).provenance["seed"] == "11"

    def test_surrogate_diagnostics_in_provenance(self, tmp_path):
        _, out_a = run(tmp_path, "tscan", SOLVED_TSCAN, name="a")
        _, out_b = run(tmp_path, "tscan", SOLVED_TSCAN, name="b")
        a = ResultTable.read(str(out_a))
        assert a.equal_payload(ResultTable.read(str(out_b)))
        for pulse in ("splitter", "mirror"):
            assert int(a.provenance[f"{pulse}_nodes"]) >= 65
            assert 0.0 <= float(a.provenance[f"{pulse}_tail"]) <= 1e-9
            assert 0.0 < float(a.provenance[f"{pulse}_unitarity"]) <= 1e-7
        ideal = ResultTable.read(str(run(tmp_path, "tscan", IDEAL_TSCAN)[1]))
        assert "splitter_nodes" not in ideal.provenance

    def test_fit_residual_in_provenance(self, tmp_path):
        table = ResultTable.read(str(run(tmp_path, "tscan", IDEAL_TSCAN)[1]))
        assert 0.0 <= float(table.provenance["fit_residual"]) < 1e-10

    def test_json_output(self, tmp_path):
        code, out = run(tmp_path, "tscan", IDEAL_TSCAN, fmt="json")
        assert code == 0
        table = json.loads(out.read_text())
        assert table["columns"] == ["T", "P1", "P2", "P3", "P_sum"]
        assert len(table["rows"]) == 41


SWEEP = """
strategies = ideal
axis = sigma_p
values = 0.03 0.05
g = 0.000357
t.min = 10
t.max = 80
t.points = 9
"""


class TestContrastSweep:
    def test_sweep_table(self, tmp_path):
        code, out = run(tmp_path, "contrast-sweep", SWEEP)
        assert code == 0
        table = ResultTable.read(str(out))
        assert table.columns == ("sigma_p", "contrast_ideal")
        assert table.column("sigma_p") == [0.03, 0.05]

    def test_worker_count_does_not_change_payload(self, tmp_path):
        _, serial = run(tmp_path, "contrast-sweep", SWEEP, name="serial")
        _, pooled = run(tmp_path, "contrast-sweep", SWEEP, name="pooled",
                        extra=("--workers", "2"))
        a = ResultTable.read(str(serial))
        b = ResultTable.read(str(pooled))
        assert a.equal_payload(b)

    def test_solved_strategies_cross_the_pool(self, tmp_path):
        # oct_hybrid's mirror carries a KnotDetuning spline to the workers
        solved = SWEEP.replace("strategies = ideal",
                               "strategies = ds_dbd, oct_hybrid\nn_nodes = 8")
        code, serial = run(tmp_path, "contrast-sweep", solved, name="serial")
        assert code == 0
        code, pooled = run(tmp_path, "contrast-sweep", solved, name="pooled",
                           extra=("--workers", "2"))
        assert code == 0
        a = ResultTable.read(str(serial))
        assert a.columns == ("sigma_p", "contrast_ds_dbd",
                             "contrast_oct_hybrid")
        assert a.equal_payload(ResultTable.read(str(pooled)))

    def test_crest_before_the_scan_start(self, tmp_path):
        # x = 4gT^2 from 5.0 to 11.5: the first crest in the scan is 3 pi
        late = (SWEEP.replace("values = 0.03 0.05", "values = 0.05")
                .replace("t.min = 10", "t.min = 59.2")
                .replace("t.max = 80", "t.max = 89.7")
                .replace("t.points = 9", "t.points = 200"))
        code, out = run(tmp_path, "contrast-sweep", late)
        assert code == 0
        contrast = ResultTable.read(str(out)).column("contrast_ideal")
        assert contrast == pytest.approx([1.0], abs=1e-6)

    def test_empty_strategy_list(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(interferometer, "t_scan", refuse_to_run)
        code, out = run(tmp_path, "contrast-sweep",
                        SWEEP.replace("strategies = ideal", "strategies = ,"))
        assert code == 2
        assert "strategies" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_axis(self, tmp_path):
        code, _ = run(tmp_path, "contrast-sweep",
                      SWEEP.replace("axis = sigma_p", "axis = tau"))
        assert code == 2

    def test_swept_epsilon_outside_the_unit_interval(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(interferometer, "t_scan", refuse_to_run)
        config = (SWEEP.replace("axis = sigma_p", "axis = epsilon")
                  .replace("values = 0.03 0.05", "values = 0 1.5"))
        code, out = run(tmp_path, "contrast-sweep", config)
        assert code == 2
        assert "epsilon" in capsys.readouterr().err
        assert not out.exists()


FLUCTUATION = """
strategy = ds_dbd
g = 0.000357
source.sigma_p = 0.05
n_nodes = 8
sigma_r = 0
n_shots = 5
t.min = 10
t.max = 80
t.points = 9
"""


class TestFluctuation:
    def test_zero_noise_has_exact_zero_spread(self, tmp_path):
        code, out = run(tmp_path, "fluctuation", FLUCTUATION, fmt="json")
        assert code == 0
        table = json.loads(out.read_text())
        assert table["columns"] == ["shot", "contrast"]
        assert float(table["provenance"]["std_contrast"]) == 0.0
        mean = float(table["provenance"]["mean_contrast"])
        assert [row[1] for row in table["rows"]] == [mean] * 5

    def test_non_positive_drive_scale_names_sigma_r(self, tmp_path, capsys,
                                                    monkeypatch):
        # seed 0 draws a splitter or mirror scale <= 0 in shot 6 of 10
        monkeypatch.setattr(interferometer, "t_scan", refuse_to_run)
        config = FLUCTUATION.replace("ds_dbd", "c_dbd").replace(
            "sigma_r = 0\n", "sigma_r = 0.5\n").replace(
            "n_shots = 5", "n_shots = 10")
        code, out = run(tmp_path, "fluctuation", config, extra=("--seed", "0"))
        assert code == 2
        assert "sigma_r = 0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_ideal_has_no_pulses_to_perturb(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setattr(interferometer, "t_scan", refuse_to_run)
        config = FLUCTUATION.replace("ds_dbd", "ideal").replace(
            "sigma_r = 0\n", "sigma_r = 0.05\n")
        code, out = run(tmp_path, "fluctuation", config)
        assert code == 2
        assert "ideal has no pulses" in capsys.readouterr().err
        assert not out.exists()


def refuse_to_solve(*args, **kwargs):
    raise AssertionError("the ideal strategy has no pulses to solve")


@pytest.mark.parametrize("command, config", [
    ("tscan", IDEAL_TSCAN), ("contrast-sweep", SWEEP)],
    ids=["tscan", "contrast-sweep"])
def test_ideal_runs_no_pulse(tmp_path, monkeypatch, command, config):
    # the ideal strategy composes lossless matrices; neither engine runs
    monkeypatch.setattr(interferometer, "propagate_unitaries",
                        refuse_to_solve)
    monkeypatch.setattr(cli.multilevel, "propagate_unitaries",
                        refuse_to_solve)
    monkeypatch.setattr(interferometer.grid_mod, "split_step_pulse",
                        refuse_to_solve)
    code, _ = run(tmp_path, command, config)
    assert code == 0


TLS_SCAN = """
model = tls
kind = bs
tau.min = 0.3
tau.max = 0.6
tau.points = 3
omega.min = 2
omega.max = 2
omega.points = 1
"""


P_EPSILON_SCAN = """
scan = p_epsilon
pulse.omega = 2
pulse.tau = 0.47
p.min = -0.1
p.max = 0.1
p.points = 3
epsilon_axis.min = 0
epsilon_axis.max = 0.1
epsilon_axis.points = 2
"""


class TestEfficiencyScan:
    def test_tls_grid(self, tmp_path):
        code, out = run(tmp_path, "efficiency-scan", TLS_SCAN)
        assert code == 0
        table = ResultTable.read(str(out))
        assert table.columns == ("tau", "omega", "efficiency")
        assert len(table.rows) == 3
        assert all(0.0 <= row[2] <= 1.0 for row in table.rows)

    def test_epsilon_axis_outside_the_unit_interval(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(cli.multilevel, "propagate_unitaries",
                            refuse_to_run)
        config = P_EPSILON_SCAN.replace("epsilon_axis.max = 0.1",
                                        "epsilon_axis.max = 1.5")
        code, out = run(tmp_path, "efficiency-scan", config)
        assert code == 2
        assert "epsilon" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, config", [
        ("source.p0", TLS_SCAN.replace("model = tls", "model = multilevel")
         + "source.p0 = 1.5\n"),
        ("p.min/p.max", P_EPSILON_SCAN.replace("p.min = -0.1", "p.min = 0.5")
         .replace("p.max = 0.1", "p.max = 1.5")),
    ], ids=["multilevel", "p_epsilon"])
    def test_plane_wave_outside_the_zone(self, tmp_path, capsys, monkeypatch,
                                         key, config):
        monkeypatch.setattr(cli.multilevel, "propagate_unitaries",
                            refuse_to_run)
        code, out = run(tmp_path, "efficiency-scan", config)
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_p_epsilon_scan(self, tmp_path):
        code, out = run(tmp_path, "efficiency-scan", P_EPSILON_SCAN)
        assert code == 0
        table = ResultTable.read(str(out))
        assert table.columns == ("p", "epsilon", "efficiency")
        p, eps = np.linspace(-0.1, 0.1, 3), np.linspace(0.0, 0.1, 2)
        # p-major rows: epsilon runs fastest
        assert table.column("p") == list(np.repeat(p, 2))
        assert table.column("epsilon") == list(np.tile(eps, 3))
        values = np.reshape(table.column("efficiency"), (3, 2))
        assert np.all((values >= 0) & (values <= 1))
        # the scan is p-symmetric at epsilon = 0
        assert values[0, 0] == pytest.approx(values[2, 0], abs=1e-8)
        # one grouped solve, one group per epsilon column
        u = cli.multilevel.propagate_unitaries(
            np.tile(p, (2, 1)), [PulseEnvelope("box", 2.0, 0.47)] * 2,
            [ConstantDetuning(0.0, 4.0)] * 2, np.repeat(eps[:, None], 3, 1),
            rtol=1e-9)
        assert np.array_equal(
            values, cli.multilevel.transfer_efficiency(u, "beam_splitter").T)

    def test_p_epsilon_failure_exits_3(self, tmp_path, capsys):
        # a pulse at t = 1e15 leaves DOP853 no representable step
        config = P_EPSILON_SCAN.replace("pulse.tau = 0.47",
                                        "pulse.tau = 5\npulse.center = 1e15")
        code, out = run(tmp_path, "efficiency-scan", config)
        assert code == 3
        assert "IntegratorFailure" in capsys.readouterr().err
        assert not out.exists()

    def test_tls_reads_rtol(self, tmp_path):
        tables = []
        for rtol in ("1e-4", "1e-12"):
            code, out = run(tmp_path, "efficiency-scan",
                            TLS_SCAN + f"rtol = {rtol}\n", name=rtol)
            assert code == 0
            tables.append(ResultTable.read(str(out)).column("efficiency"))
        assert tables[0] != tables[1]
        assert np.max(np.abs(np.subtract(*tables))) < 1e-3

    def test_tls_rejects_mirror_kind(self, tmp_path):
        code, _ = run(tmp_path, "efficiency-scan",
                      TLS_SCAN.replace("kind = bs", "kind = mirror_plus"))
        assert code == 2

    def test_multilevel_packet_matches_grid_oracle(self, tmp_path):
        base = """
kind = bs
pulse.shape = gaussian
source.sigma_p = 0.05
tau.min = 0.44
tau.max = 0.5
tau.points = 2
omega.min = 2
omega.max = 2
omega.points = 1
"""
        code_m, out_m = run(tmp_path, "efficiency-scan",
                            "model = multilevel\n" + base, name="model")
        code_g, out_g = run(tmp_path, "efficiency-scan",
                            "model = grid_oracle\n" + base, name="oracle")
        assert code_m == 0 and code_g == 0
        eff_m = ResultTable.read(str(out_m)).column("efficiency")
        eff_g = ResultTable.read(str(out_g)).column("efficiency")
        assert np.max(np.abs(np.array(eff_m) - eff_g)) < 1e-2
        assert min(eff_m) > 0.9


class TestOptimize:
    def test_exhausted_budget_exit_code(self, tmp_path):
        config = """
budget = 150
knots = 4
n_samples = 3
seed = 2
"""
        code, out = run(tmp_path, "optimize", config)
        assert code == 4
        table = ResultTable.read(str(out))
        assert table.provenance["budget_exhausted"] == "true"
        assert table.provenance["evaluations_used"] == "150"
        knots = out.parent / (out.name + ".knots.txt")
        assert knots.exists()
        header = knots.read_text().splitlines()[0]
        assert "strategy=oct_hybrid" in header and "seed=2" in header


class TestOracleCompare:
    def test_pulse_ports_agree(self, tmp_path):
        config = """
scenario = pulse
pulse.shape = box
pulse.omega = 1.0
pulse.tau = 0.3
source.sigma_p = 0.05
"""
        code, out = run(tmp_path, "oracle-compare", config)
        assert code == 0
        table = ResultTable.read(str(out))
        assert table.columns == ("port", "model", "oracle", "abs_diff")
        assert float(table.provenance["max_abs_diff"]) < 1e-2

    def test_mz_points_without_bounds(self, tmp_path, monkeypatch):
        # t.points alone spaces the points over the default grid's span;
        # the grid oracle is replaced by the model scan to keep this fast
        seen = []

        def oracle(config, t_grid, workers=1):
            seen.append(t_grid)
            return interferometer.t_scan(config, t_grid)

        monkeypatch.setattr(interferometer, "oracle_fringe", oracle)
        config = SOLVED_TSCAN.replace("t.min = 10\nt.max = 80\n", "")
        config = config.replace("t.points = 9", "t.points = 3")
        code, out = run(tmp_path, "oracle-compare",
                        "scenario = mz\n" + config)
        assert code == 0
        full = interferometer.default_t_grid(0.000357)
        expected = np.linspace(full[0], full[-1], 3)
        assert np.array_equal(seen[0], expected)
        table = ResultTable.read(str(out))
        assert table.column("T") == list(expected)
        assert float(table.provenance["max_abs_diff"]) == 0.0

    def test_mz_bounds_without_points(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(interferometer, "oracle_fringe",
                            lambda *args, **kwargs: seen.append(args))
        config = SOLVED_TSCAN.replace("t.points = 9\n", "")
        code, _ = run(tmp_path, "oracle-compare", "scenario = mz\n" + config)
        assert code == 2
        assert seen == []

    def test_mz_ideal_is_refused(self, tmp_path, capsys, monkeypatch):
        # the grid has no ideal pulses to run against the ideal fringe
        monkeypatch.setattr(interferometer, "t_scan", refuse_to_run)
        monkeypatch.setattr(interferometer, "oracle_fringe", refuse_to_run)
        config = IDEAL_TSCAN.replace("t.min = 10\nt.max = 80\n", "")
        code, out = run(tmp_path, "oracle-compare", "scenario = mz\n"
                        + config.replace("t.points = 41", "t.points = 3"))
        assert code == 2
        assert "ideal" in capsys.readouterr().err
        assert not out.exists()

    def test_mz_resolved_agrees_for_any_worker_count(self, tmp_path):
        # both engines count only the mirror's port-reversing paths
        config = """
scenario = mz
strategy = ds_dbd
g = 0.000357
source.sigma_p = 0.05
detection = resolved
n_nodes = 8
t.points = 2
"""
        code, serial = run(tmp_path, "oracle-compare", config, name="serial")
        assert code == 0
        a = ResultTable.read(str(serial))
        assert float(a.provenance["max_abs_diff"]) <= 1e-3
        code, pooled = run(tmp_path, "oracle-compare", config, name="pooled",
                           extra=("--workers", "2"))
        assert code == 0
        assert a.equal_payload(ResultTable.read(str(pooled)))

    def test_narrow_packet_on_quadrature_nodes(self, tmp_path):
        # sigma_p = 0.005 is below the 2/L a box-sampled packet needs
        config = """
scenario = pulse
strategy = ds_dbd
pulse = mirror
source.sigma_p = 0.005
n_nodes = 16
"""
        code, out = run(tmp_path, "oracle-compare", config)
        assert code == 0
        table = ResultTable.read(str(out))
        assert float(table.provenance["max_abs_diff"]) < 1e-2

    def test_pulse_reports_oracle_residual(self, tmp_path):
        config = """
scenario = pulse
strategy = ds_dbd
pulse = mirror
source.sigma_p = 0.01
n_nodes = 16
"""
        code, out = run(tmp_path, "oracle-compare", config)
        assert code == 0
        table = ResultTable.read(str(out))
        assert table.column("port") == [0.0, 2.0, -2.0, 4.0, -4.0]
        assert abs(float(table.provenance["oracle_residual"])) < 1e-12
        # the mirror sends the boosted input from port +1 to port -1
        assert table.column("oracle")[2] > 0.9

    def test_pulse_ports_follow_n_max(self, tmp_path):
        config = """
scenario = pulse
strategy = ds_dbd
pulse = mirror
source.sigma_p = 0.01
n_nodes = 16
n_max = 3
"""
        code, out = run(tmp_path, "oracle-compare", config)
        assert code == 0
        table = ResultTable.read(str(out))
        assert table.column("port") == [0.0, 2.0, -2.0, 4.0, -4.0, 6.0, -6.0]
        diffs = table.column("abs_diff")
        assert float(table.provenance["max_abs_diff"]) == max(diffs)
        assert max(diffs) < 1e-2

    @pytest.mark.parametrize("n_max", [0, 6])
    def test_pulse_n_max_outside_the_histogram_refused(self, tmp_path,
                                                       monkeypatch, n_max):
        # the grid histogram resolves ports |k| <= 5
        monkeypatch.setattr(cli.multilevel, "propagate_unitaries",
                            refuse_to_run)
        config = f"""
scenario = pulse
strategy = ds_dbd
pulse = mirror
n_max = {n_max}
"""
        code, _ = run(tmp_path, "oracle-compare", config)
        assert code == 2


OPTIMIZE = "budget = 150\nknots = 4\nn_samples = 3\n"
# |p0| + 6 sigma_p = 1.2: the packet itself leaves the first zone
WIDE = "source.sigma_p = 0.2\n"
OUT_OF_ZONE = {
    "tscan": IDEAL_TSCAN.replace("source.sigma_p = 0.05\n", ""),
    "fluctuation": FLUCTUATION.replace("source.sigma_p = 0.05\n", ""),
    "contrast-sweep": SWEEP.replace("axis = sigma_p", "axis = epsilon")
    .replace("values = 0.03 0.05", "values = 0 0.1"),
    "efficiency-scan": TLS_SCAN.replace("model = tls", "model = multilevel"),
    "optimize": OPTIMIZE,
    "oracle-compare": "scenario = pulse\nstrategy = ds_dbd\n",
}


@pytest.mark.parametrize("command", OUT_OF_ZONE)
def test_packet_outside_the_zone_is_a_config_error(tmp_path, capsys,
                                                   command):
    code, out = run(tmp_path, command, OUT_OF_ZONE[command] + WIDE)
    assert code == 2
    assert "source" in capsys.readouterr().err
    assert not out.exists()
    assert not (out.parent / (out.name + ".knots.txt")).exists()


# t.points alone spaces over the default grid, with its own count check
MZ_POINTS_ALONE = "scenario = mz\n" + SOLVED_TSCAN.replace(
    "t.min = 10\nt.max = 80\n", "")
REFUSALS = {
    **{f"{command}-rtol={rtol}": (command, config + f"rtol = {rtol}\n",
                                  "rtol must be positive")
       for rtol in ("0", "-1e-9")
       for command, config in (("tscan", SOLVED_TSCAN),
                               ("optimize", OPTIMIZE),
                               ("efficiency-scan", TLS_SCAN))},
    **{f"knots={k}": ("optimize",
                      OPTIMIZE.replace("knots = 4", f"knots = {k}"),
                      "need at least two knots")
       for k in (-1, 0, 1)},
    **{f"delta.max={d}": ("optimize", OPTIMIZE + f"delta.max = {d}\n",
                          "delta_max must be positive")
       for d in (-1, 0)},
    "sample_halfwidth": ("optimize", OPTIMIZE + "sample_halfwidth = 1.5\n",
                         "sample_halfwidth: momentum must lie in the first"),
    "duplicate-strategy": ("contrast-sweep", SWEEP.replace(
        "strategies = ideal", "strategies = ideal, ideal"),
        "strategies: 'ideal' is named twice"),
    "n_nodes=0": ("tscan", SOLVED_TSCAN.replace("n_nodes = 8", "n_nodes = 0"),
                  "n_nodes must be at least 1"),
    **{f"mz-t.points={n}": ("oracle-compare", MZ_POINTS_ALONE.replace(
        "t.points = 9", f"t.points = {n}"), "t.points: need t.points >= 1")
       for n in (-1, 0)},
    "tau.min=0": ("efficiency-scan", TLS_SCAN.replace(
        "tau.min = 0.3", "tau.min = 0"),
        "tau/omega: envelope width must be positive"),
    "pulse.tau=0": ("efficiency-scan", P_EPSILON_SCAN.replace(
        "pulse.tau = 0.47", "pulse.tau = 0"),
        "pulse.omega/pulse.tau: envelope width must be positive"),
    "omega.min=-1": ("efficiency-scan", TLS_SCAN.replace(
        "omega.min = 2", "omega.min = -1"),
        "tau/omega: peak Rabi frequency must be non-negative"),
    **{f"pulse.delta=5-{name}": (command, config + "pulse.delta = 5\n",
                                 "pulse.delta: constant detuning 5.0 "
                                 "exceeds bound 4.0")
       for name, command, config in (
           ("tau_omega", "efficiency-scan", TLS_SCAN),
           ("p_epsilon", "efficiency-scan", P_EPSILON_SCAN),
           ("oracle", "oracle-compare",
            "scenario = pulse\npulse.omega = 2\npulse.tau = 0.47\n"))},
    "budget=0": ("optimize", OPTIMIZE.replace("budget = 150", "budget = 0"),
                 "budget must be at least 100 evaluations"),
    "sigma_r=-1": ("fluctuation", FLUCTUATION.replace(
        "sigma_r = 0\n", "sigma_r = -1\n"),
        "sigma_r must be finite and non-negative"),
    "n_shots=1": ("fluctuation", FLUCTUATION.replace(
        "n_shots = 5", "n_shots = 1"), "n_shots must be at least 2"),
}


@pytest.mark.filterwarnings("error")  # no RuntimeWarning on the way out
@pytest.mark.parametrize("command, config, message", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_refused_config_names_its_key(tmp_path, capsys, command, config,
                                      message):
    code, out = run(tmp_path, command, config)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()
    assert not (out.parent / (out.name + ".knots.txt")).exists()


def loaded_after(code, modules):
    """The modules of the list that a fresh interpreter has loaded after
    running code with the package on its path."""
    src = str(Path(dbdsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probe = (f"import sys; {code}; "
             f"print(*[m for m in {modules!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_leaves_heavy_scipy_out():
    # numpy is all a start needs; these are slow to import, so only the
    # code that uses them imports them (strategies.optimize, packet
    # sampling), and numpy.fft stands in for scipy.fft
    heavy = ["scipy." + name for name in ("optimize", "interpolate",
             "integrate", "linalg", "sparse", "stats", "fft", "special")]
    assert loaded_after("import dbdsim, dbdsim.cli", heavy) == []


def test_tls_scan_leaves_heavy_scipy_out(tmp_path):
    # the two-level model runs on the package's own DOP853
    cfg = tmp_path / "tls.cfg"
    cfg.write_text(TLS_SCAN)
    argv = ["efficiency-scan", "--config", str(cfg), "--out",
            str(tmp_path / "tls.csv")]
    heavy = ["scipy." + name for name in ("integrate", "optimize", "sparse",
                                          "linalg")]
    code = f"from dbdsim.cli import main; assert main({argv!r}) == 0"
    assert loaded_after(code, heavy) == []
