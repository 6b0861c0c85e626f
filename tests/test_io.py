import json
import math

import pytest

from dbdsim.exceptions import ConfigError
from dbdsim.io import ResultTable, ScenarioConfig, parse_config_text

SAMPLE = """
# interferometer scenario
strategy = ds_dbd
g = 0.000357          # trailing comment
source.sigma_p = 0.05
n_nodes = 48
resolved = false
values = 0.01, 0.05 0.1
"""


class TestConfigParsing:
    def test_comments_and_blanks_ignored(self):
        values = parse_config_text(SAMPLE)
        assert values["strategy"] == "ds_dbd"
        assert values["g"] == "0.000357"
        assert "# interferometer scenario" not in values

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("a = 1\nnot a pair\n")

    def test_empty_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("= 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("x = 1\nx = 2\n")


class TestTypedGetters:
    def setup_method(self):
        self.cfg = ScenarioConfig.from_text(SAMPLE)

    def test_required_missing(self):
        with pytest.raises(ConfigError, match="missing"):
            self.cfg.get_str("detection")

    def test_defaults_pass_through(self):
        assert self.cfg.get_float("epsilon", 0.0) == 0.0
        assert self.cfg.get_str("mode", "auto") == "auto"

    def test_choices(self):
        with pytest.raises(ConfigError, match="expected one of"):
            self.cfg.get_str("strategy", choices=("a", "b"))

    def test_float(self):
        assert self.cfg.get_float("g") == 0.000357
        with pytest.raises(ConfigError, match="number"):
            self.cfg.get_float("strategy")

    def test_int(self):
        assert self.cfg.get_int("n_nodes") == 48
        with pytest.raises(ConfigError, match="integer"):
            self.cfg.get_int("g")

    def test_float_list(self):
        assert self.cfg.get_float_list("values") == [0.01, 0.05, 0.1]
        with pytest.raises(ConfigError):
            ScenarioConfig.from_text("v = a b").get_float_list("v")

    def test_non_finite_numbers_refused(self):
        for text in ("nan", "inf", "-inf", "1e400"):
            with pytest.raises(ConfigError, match="finite"):
                ScenarioConfig.from_text(f"x = {text}").get_float("x")
            with pytest.raises(ConfigError, match="finite"):
                ScenarioConfig.from_text(f"v = 0.1 {text}").get_float_list("v")

    def test_hash_ignores_order_not_values(self):
        a = ScenarioConfig.from_text("x = 1\ny = 2\n")
        b = ScenarioConfig.from_text("y = 2\nx = 1\n")
        c = ScenarioConfig.from_text("x = 1\ny = 3\n")
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()


def sample_table():
    table = ResultTable(("T", "P_sum"),
                        rows=[(1.0, 1.0 / 3.0), (2.5, math.pi)],
                        provenance={"command": "tscan", "seed": "0"})
    return table


class TestResultTable:
    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            sample_table().append((1.0,))

    def test_column_access(self):
        assert sample_table().column("T") == [1.0, 2.5]
        with pytest.raises(ValueError):
            sample_table().column("missing")

    def test_csv_round_trip_is_byte_identical(self):
        table = sample_table()
        text = table.to_csv()
        again = ResultTable.from_csv(text).to_csv()
        assert text == again

    def test_floats_survive_exactly(self):
        table = sample_table()
        back = ResultTable.from_csv(table.to_csv())
        assert back.rows[1][1] == math.pi
        assert back.rows[0][1] == 1.0 / 3.0

    def test_nan_round_trip(self):
        table = ResultTable(("x",), rows=[(float("nan"),)])
        back = ResultTable.from_csv(table.to_csv())
        assert math.isnan(back.rows[0][0])
        assert table.equal_payload(back)
        assert math.isnan(json.loads(table.to_json())["rows"][0][0])

    def test_json_round_trip(self):
        # JSON is written for other tools; the standard parser reads it
        table = sample_table()
        back = json.loads(table.to_json())
        assert back["columns"] == list(table.columns)
        assert back["rows"] == [list(row) for row in table.rows]
        assert back["provenance"] == table.provenance

    def test_read_parses_csv_only(self, tmp_path):
        table = sample_table()
        csv_path = tmp_path / "t.csv"
        json_path = tmp_path / "t.json"
        table.write(str(csv_path))
        table.write(str(json_path), fmt="json")
        assert table.equal_payload(ResultTable.read(str(csv_path)))
        with pytest.raises(ConfigError, match="malformed data row"):
            ResultTable.read(str(json_path))

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            sample_table().write(str(tmp_path / "x"), fmt="yaml")

    def test_malformed_rows(self):
        with pytest.raises(ConfigError, match="malformed"):
            ResultTable.from_csv("a,b\n1.0,oops\n")
        with pytest.raises(ConfigError, match="header"):
            ResultTable.from_csv("# only = provenance\n")

    def test_equal_payload_ignores_timestamp(self):
        a = sample_table()
        b = sample_table()
        a.set_provenance("timestamp", "2026-01-01T00:00:00Z")
        b.set_provenance("timestamp", "2026-01-02T12:34:56Z")
        assert a.equal_payload(b)
        b.set_provenance("seed", "1")
        assert not a.equal_payload(b)

    def test_float_provenance_formatted(self):
        table = sample_table()
        table.set_provenance("contrast", 0.1 + 0.2)
        assert table.provenance["contrast"] == format(0.1 + 0.2, ".17g")
