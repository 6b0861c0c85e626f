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

    def test_bad_worker_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DBD_SIM_WORKERS", "many")
        code, _ = run(tmp_path, "tscan", IDEAL_TSCAN)
        assert code == 2


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
        assert out.read_text().lstrip().startswith("{")
        assert len(ResultTable.read(str(out)).rows) == 41


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

    def test_worker_count_does_not_change_payload(self, tmp_path,
                                                  monkeypatch):
        _, serial = run(tmp_path, "contrast-sweep", SWEEP, name="serial")
        monkeypatch.setenv("DBD_SIM_WORKERS", "2")
        _, pooled = run(tmp_path, "contrast-sweep", SWEEP, name="pooled")
        a = ResultTable.read(str(serial))
        b = ResultTable.read(str(pooled))
        assert a.equal_payload(b)

    def test_solved_strategies_cross_the_pool(self, tmp_path, monkeypatch):
        # oct_hybrid's mirror carries a KnotDetuning spline to the workers
        solved = SWEEP.replace("strategies = ideal",
                               "strategies = ds_dbd, oct_hybrid\nn_nodes = 8")
        code, serial = run(tmp_path, "contrast-sweep", solved, name="serial")
        assert code == 0
        monkeypatch.setenv("DBD_SIM_WORKERS", "2")
        code, pooled = run(tmp_path, "contrast-sweep", solved, name="pooled")
        assert code == 0
        a = ResultTable.read(str(serial))
        assert a.columns == ("sigma_p", "contrast_ds_dbd",
                             "contrast_oct_hybrid")
        assert a.equal_payload(ResultTable.read(str(pooled)))

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
        table = ResultTable.read(str(out))
        assert table.columns == ("shot", "contrast")
        assert float(table.provenance["std_contrast"]) == 0.0
        mean = float(table.provenance["mean_contrast"])
        assert table.column("contrast") == [mean] * 5


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
        monkeypatch.setattr(cli.multilevel, "efficiency_landscape",
                            refuse_to_run)
        config = """
scan = p_epsilon
pulse.omega = 2
pulse.tau = 0.47
p.min = 0
p.max = 0.1
p.points = 2
epsilon_axis.min = 0
epsilon_axis.max = 1.5
epsilon_axis.points = 2
"""
        code, out = run(tmp_path, "efficiency-scan", config)
        assert code == 2
        assert "epsilon" in capsys.readouterr().err
        assert not out.exists()

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
problem = oct_mirror
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

    def test_bad_budget(self, tmp_path):
        code, _ = run(tmp_path, "optimize", "budget = 0\n")
        assert code == 2


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
        config = IDEAL_TSCAN.replace("t.min = 10\nt.max = 80\n", "")
        config = config.replace("t.points = 41", "t.points = 3")
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
        config = IDEAL_TSCAN.replace("t.points = 41\n", "")
        code, _ = run(tmp_path, "oracle-compare", "scenario = mz\n" + config)
        assert code == 2
        assert seen == []

    def test_mz_resolved_agrees_for_any_worker_count(self, tmp_path,
                                                     monkeypatch):
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
        monkeypatch.setenv("DBD_SIM_WORKERS", "2")
        code, pooled = run(tmp_path, "oracle-compare", config, name="pooled")
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


# |p0| + 6 sigma_p = 1.2: the packet itself leaves the first zone
WIDE = "source.sigma_p = 0.2\n"
OUT_OF_ZONE = {
    "tscan": IDEAL_TSCAN.replace("source.sigma_p = 0.05\n", ""),
    "fluctuation": FLUCTUATION.replace("source.sigma_p = 0.05\n", ""),
    "contrast-sweep": SWEEP.replace("axis = sigma_p", "axis = epsilon")
    .replace("values = 0.03 0.05", "values = 0 0.1"),
    "efficiency-scan": TLS_SCAN.replace("model = tls", "model = multilevel"),
    "optimize": "budget = 150\nknots = 4\nn_samples = 3\n",
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


def test_import_leaves_scipy_stats_out():
    # scipy.stats takes a third of a second or more to import, so only
    # `optimize` with packet sampling imports it
    src = str(Path(dbdsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probe = "import sys, dbdsim.cli; sys.exit('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
