"""Audit-report assembly and emission.

A report is a hierarchical document: tool version, an echo of the run
configuration, named result blocks, and collected warnings.  The
structured format is JSON with sorted keys and no timestamps, so a rerun
with the same seed produces byte-identical output.  The tabular format
flattens each block into its own CSV file.
"""

from __future__ import annotations

import csv
import enum
import json
import math
import os
from dataclasses import asdict, dataclass, field, is_dataclass

import numpy as np

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
        try:
            doc = json.loads(text)
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


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, value))


def emit_report(report: AuditReport, out_dir, fmt: str = "json") -> list:
    """Write the report; returns the list of files written."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        written = []
        if fmt == "json":
            path = os.path.join(out_dir, "report.json")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(report.to_json())
            written.append(path)
        elif fmt == "csv":
            for name, block in sorted(report.results.items()):
                rows: list = []
                _flatten("", block, rows)
                path = os.path.join(out_dir, f"{name}.csv")
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["field", "value"])
                    writer.writerows(rows)
                written.append(path)
            path = os.path.join(out_dir, "meta.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["field", "value"])
                rows = []
                _flatten("config", _plain(report.config), rows)
                writer.writerows(rows)
                for i, w in enumerate(report.warnings):
                    writer.writerow([f"warning[{i}]", w])
            written.append(path)
        else:
            raise DataError(f"unknown report format {fmt!r}")
    except OSError as exc:
        raise DataError(f"cannot write report under {out_dir}: {exc}") from exc
    return written


def write_curve_table(path, rows) -> None:
    """Plot-data export: n,group,cost_kind,mean,stderr,fitted_value.

    Creates the file's directory if it does not exist."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["n", "group", "cost_kind", "mean", "stderr", "fitted_value"]
            )
            for row in rows:
                writer.writerow(row)
    except OSError as exc:
        raise DataError(f"cannot write curve table {path}: {exc}") from exc
