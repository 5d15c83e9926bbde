"""Audit-report assembly and emission.

A report is a hierarchical document: tool version, an echo of the run
configuration, named result blocks, and collected warnings.  The
structured format is JSON with sorted keys and no timestamps, so a rerun
with the same seed produces byte-identical output.  The tabular format
flattens each block into its own CSV file.
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import asdict, dataclass, field, is_dataclass

import numpy as np

from .data import csv_text, encoded, write_bytes, write_csv
from .errors import AnalysisError, DataError

TOOL_VERSION = "0.1.0"


def _plain(value):
    """Convert nested results into JSON-serializable plain data."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _plain(v) for k, v in asdict(value).items()}
    if isinstance(value, dict):
        return {_key(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float):
        if not math.isfinite(value):
            raise AnalysisError(f"non-finite value {value} in report")
        return value
    return value


def _key(k):
    if isinstance(k, tuple):
        return ",".join(str(_plain(x)) for x in k)
    if isinstance(k, enum.Enum):
        return k.value
    return str(k)


@dataclass
class AuditReport:
    config: dict
    version: str = TOOL_VERSION
    results: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def add(self, name: str, block) -> None:
        self.results[name] = _plain(block)

    def warn(self, message: str) -> None:
        if message not in self.warnings:
            self.warnings.append(message)

    def to_json(self) -> str:
        doc = {
            "version": self.version,
            "config": _plain(self.config),
            "results": self.results,
            "warnings": self.warnings,
            "errors": self.errors,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "AuditReport":
        """The report of JSON ``text``; every number in it must be finite,
        as ``to_json`` writes only finite ones."""
        try:
            doc = json.loads(
                text, parse_float=_finite_float, parse_constant=_finite_float
            )
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid report JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise DataError("invalid report JSON: not an object")
        # Each field the document gives, by the JSON type it must have.
        report = AuditReport(config={})
        for name, (kind, json_type) in {
            "version": (str, "a string"), "config": (dict, "an object"),
            "results": (dict, "an object"), "warnings": (list, "an array"),
            "errors": (list, "an array"),
        }.items():
            value = doc.get(name, getattr(report, name))
            if not isinstance(value, kind):
                raise DataError(
                    f"invalid report JSON: {name!r} is not {json_type}"
                )
            setattr(report, name, value)
        return report


def _finite_float(text: str) -> float:
    """A JSON number literal, or ``NaN``/``Infinity``/``-Infinity``, as a
    float; raises unless it is finite (``1e400`` overflows to inf)."""
    value = float(text)
    if not math.isfinite(value):
        raise DataError(f"invalid report JSON: non-finite number {text}")
    return value


def _flatten(prefix: str, value):
    """The (field, value) rows of a nested block, fields under ``prefix``."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _flatten(f"{prefix}.{k}" if prefix else str(k), value[k])
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _flatten(f"{prefix}[{i}]", v)
    else:
        yield prefix, value


def emit_report(report: AuditReport, out_dir, fmt: str = "json") -> list:
    """Write the report; returns the list of files written.  In CSV form
    each result block goes to the file it names, so a block name that is
    no plain file name is refused before anything is written.  Every file
    is rendered and encoded before ``out_dir`` or any file is created, so
    a report that cannot be written leaves nothing behind."""
    if fmt not in ("json", "csv"):
        raise DataError(f"unknown report format {fmt!r}")
    for name in report.results:
        if fmt == "csv" and (name in ("", ".", "..")
                             or any(c in name for c in "/\\\0")):
            raise DataError(f"report block name {name!r} is not a file name")
    if fmt == "json":
        what = "report"
        texts = [("report.json", report.to_json())]
    else:
        what = "report table"
        tables = [(f"{name}.csv", _flatten("", block))
                  for name, block in sorted(report.results.items())]
        tables.append(("meta.csv", [
            *_flatten("config", _plain(report.config)),
            *((f"warning[{i}]", w) for i, w in enumerate(report.warnings)),
        ]))
        texts = [(file_name, csv_text(["field", "value"], rows))
                 for file_name, rows in tables]
    files = []
    for file_name, text in texts:
        path = os.path.join(out_dir, file_name)
        files.append((path, encoded(path, what, text)))
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write report under {out_dir}: {exc}") from exc
    for path, data in files:
        write_bytes(path, what, data)
    return [path for path, _ in files]


def write_curve_table(path, rows) -> None:
    """Plot-data export: n,group,cost_kind,mean,stderr,fitted_value.

    Creates the file's directory if it does not exist."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write curve table {path}: {exc}") from exc
    write_csv(
        path, "curve table",
        ["n", "group", "cost_kind", "mean", "stderr", "fitted_value"], rows,
    )
