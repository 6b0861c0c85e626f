"""Scenario configs and deterministic result tables.

Config files are flat `key = value` text with dotted key names, e.g.

    strategy = ds_dbd
    g = 0.000357
    source.sigma_p = 0.05

Blank lines and `#` comments are ignored.  Typed getters raise
ConfigError naming the offending key, so CLI validation messages stay
actionable.

Result tables serialize to CSV (provenance as `#` header lines) or JSON
(same schema as an object); only CSV is read back.  All CSV numerics
use 17 significant digits, which round-trips 64-bit floats exactly;
re-serializing a parsed table reproduces the file byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .exceptions import ConfigError

_REQUIRED = object()


def _fmt(value):
    """Lossless text form for a float (17 significant digits)."""
    return format(float(value), ".17g")


def parse_config_text(text):
    """Flat dotted-key config text -> ordered {key: raw string}."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in values:
            raise ConfigError(f"{key}: duplicate assignment (line {lineno})")
        values[key] = value
    return values


@dataclass
class ScenarioConfig:
    """Typed view over a parsed config with fail-early getters."""

    values: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls(parse_config_text(fh.read()))

    @classmethod
    def from_text(cls, text):
        return cls(parse_config_text(text))

    def config_hash(self):
        """Short digest of the canonicalized key-value content."""
        canon = "\n".join(f"{k}={self.values[k]}"
                          for k in sorted(self.values))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def has(self, key):
        return key in self.values

    def get_str(self, key, default=_REQUIRED, choices=None):
        if key not in self.values:
            if default is _REQUIRED:
                raise ConfigError(f"{key}: required key is missing")
            return default
        value = self.values[key]
        if choices is not None and value not in choices:
            raise ConfigError(f"{key}: expected one of "
                              f"{', '.join(choices)}; got {value!r}")
        return value

    def get_float(self, key, default=_REQUIRED):
        raw = self.get_str(key, default)
        if raw is default and key not in self.values:
            return default
        return _finite_floats(key, raw, [raw], "a finite number")[0]

    def get_int(self, key, default=_REQUIRED):
        raw = self.get_str(key, default)
        if raw is default and key not in self.values:
            return default
        try:
            return int(str(raw), 10)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") \
                from None

    def get_float_list(self, key):
        raw = self.get_str(key)
        parts = [p for p in str(raw).replace(",", " ").split() if p]
        if not parts:
            raise ConfigError(f"{key}: expected a list of numbers")
        return _finite_floats(key, raw, parts, "finite numbers")


def _finite_floats(key, raw, parts, expected):
    """float() of each part; nan and inf are refused like non-numbers."""
    try:
        values = [float(p) for p in parts]
    except (TypeError, ValueError):
        values = [math.nan]
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{key}: expected {expected}, got {raw!r}")
    return values


class ResultTable:
    """Columns + homogeneous numeric rows + ordered provenance strings.

    Provenance values are stored as already-formatted strings so that a
    parse/serialize cycle is byte-identical; only the timestamp line is
    expected to differ between fresh runs.
    """

    def __init__(self, columns, rows=None, provenance=None):
        self.columns = tuple(columns)
        self.rows = []
        self.provenance = dict(provenance or {})
        for row in rows or []:
            self.append(row)

    def append(self, row):
        row = tuple(float(v) for v in row)
        if len(row) != len(self.columns):
            raise ValueError(f"row width {len(row)} != "
                             f"{len(self.columns)} columns")
        self.rows.append(row)

    def set_provenance(self, key, value):
        if isinstance(value, float):
            value = _fmt(value)
        self.provenance[str(key)] = str(value)

    def column(self, name):
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    # -- CSV ----------------------------------------------------------

    def to_csv(self):
        lines = ["# dbdsim result v1"]
        for key, value in self.provenance.items():
            lines.append(f"# {key} = {value}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text):
        provenance = {}
        columns = None
        rows = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    provenance[key.strip()] = value.strip()
                continue
            if columns is None:
                columns = [c.strip() for c in line.split(",")]
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError:
                raise ConfigError(f"malformed data row: {line!r}") from None
        if columns is None:
            raise ConfigError("no column header found")
        return cls(columns, rows, provenance)

    # -- JSON ---------------------------------------------------------

    def to_json(self):
        payload = {
            "format": "dbdsim result v1",
            "provenance": dict(self.provenance),
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
        }
        return json.dumps(payload, indent=2, allow_nan=True) + "\n"

    # -- dispatch -----------------------------------------------------

    def write(self, path, fmt="csv"):
        if fmt == "csv":
            text = self.to_csv()
        elif fmt == "json":
            text = self.to_json()
        else:
            raise ConfigError(f"format: expected csv or json, got {fmt!r}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    @classmethod
    def read(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_csv(fh.read())

    def equal_payload(self, other):
        """Same columns, rows and provenance, timestamp excluded."""
        if self.columns != other.columns or len(self.rows) != len(other.rows):
            return False
        for a, b in zip(self.rows, other.rows):
            for x, y in zip(a, b):
                if x != y and not (math.isnan(x) and math.isnan(y)):
                    return False
        return ({**self.provenance, "timestamp": None}
                == {**other.provenance, "timestamp": None})
