"""Converter for the UCI Adult census file into the canonical CSV schema.

The raw file (``adult.data``; optionally concatenated with ``adult.test``
minus its banner line) has no header and 15 comma-separated fields.  Rows
containing '?' are dropped: the loader rejects missing values rather than
imputing.  The protected group is sex (Female -> 0, Male -> 1), the
outcome is income > 50K, and ``fnlwgt`` is discarded.  Categorical
attributes are dichotomized by the standard loader.

The acceptance tests look for a prepared file at the path given by the
``FAIRAUDIT_ADULT_CSV`` environment variable.
"""

from __future__ import annotations

import io
import os

from .data import (
    Dataset, Schema, Task, load_dataset, read_text, write_csv, write_text,
)
from .errors import DataError

RAW_COLUMNS = (
    "age",
    "workclass",
    "fnlwgt",
    "education",
    "education_num",
    "marital_status",
    "occupation",
    "relationship",
    "race",
    "sex",
    "capital_gain",
    "capital_loss",
    "hours_per_week",
    "native_country",
    "income",
)

ADULT_ENV_VAR = "FAIRAUDIT_ADULT_CSV"


def convert_adult(raw_path, out_csv_path, out_schema_path) -> int:
    """Convert a raw UCI adult file to canonical CSV + schema.

    Returns the number of rows written (rows with missing fields are
    dropped).  Nothing is written when the raw file cannot be read or has
    no usable row.
    """
    text = read_text(raw_path, "raw Adult file")
    header = [c for c in RAW_COLUMNS if c not in ("fnlwgt", "income")]
    rows = []
    for line in io.StringIO(text, newline=None):
        line = line.strip()
        if not line or line.startswith("|"):
            continue
        fields = [f.strip().rstrip(".") for f in line.split(",")]
        if len(fields) != len(RAW_COLUMNS):
            continue
        if "?" in fields:
            continue
        record = dict(zip(RAW_COLUMNS, fields))
        outcome = "1" if record["income"] == ">50K" else "0"
        rows.append([record[c] for c in header] + [outcome])
    if not rows:
        raise DataError(f"{raw_path}: no usable rows")
    write_csv(out_csv_path, "dataset", header + ["outcome"], rows)
    write_text(out_schema_path, "schema file",
               "group=sex\noutcome=outcome\ntask=binary\n")
    return len(rows)


def adult_schema() -> Schema:
    return Schema(group="sex", outcome="outcome", task=Task.BINARY)


def load_adult() -> Dataset:
    """Load the prepared Adult CSV (from convert_adult) named by
    FAIRAUDIT_ADULT_CSV.

    Group 0 is Female, group 1 is Male (lexicographic category order).
    """
    csv_path = os.environ.get(ADULT_ENV_VAR)
    if not csv_path:
        raise DataError(
            f"{ADULT_ENV_VAR} is unset; run `fairaudit prepare-adult` on "
            "the raw UCI file first"
        )
    return load_dataset(csv_path, adult_schema())
