"""Tabular datasets with protected-group and outcome columns.

Loading, validation, splitting, subsampling, and bootstrap resampling.
All stochastic operations are pure functions of (inputs, seed).
"""

from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import ConfigError, DataError


class Task(enum.Enum):
    BINARY = "binary"
    REGRESSION = "regression"


def read_key_values(path, what: str) -> list[tuple[str, str]]:
    """The stripped (key, value) pairs of a UTF-8 file of ``key=value``
    lines, in file order, skipping blank and ``#`` lines and a leading
    byte-order mark.  Errors name the file as a ``what`` file."""
    pairs = []
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected key=value, got {line!r}"
                    )
                key, _, value = line.partition("=")
                pairs.append((key.strip(), value.strip()))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    return pairs


@dataclass(frozen=True)
class Schema:
    """Column-role mapping for a CSV file.

    Any column not named as group/outcome/score and not listed in
    ``ignore`` is treated as a feature.
    """

    group: str
    outcome: str
    task: Task
    score: str | None = None
    ignore: tuple[str, ...] = ()

    @staticmethod
    def from_file(path) -> "Schema":
        """Parse a key=value schema file (see ``read_key_values``)."""
        keys = dict(read_key_values(path, "schema"))
        for required in ("group", "outcome", "task"):
            if required not in keys:
                raise ConfigError(f"schema {path} is missing '{required}='")
        try:
            task = Task(keys["task"])
        except ValueError:
            raise ConfigError(
                f"schema {path}: task must be 'binary' or 'regression', "
                f"got {keys['task']!r}"
            ) from None
        ignore = tuple(
            c.strip() for c in keys.get("ignore", "").split(",") if c.strip()
        )
        return Schema(
            group=keys["group"],
            outcome=keys["outcome"],
            task=task,
            score=keys.get("score") or None,
            ignore=ignore,
        )


@dataclass(frozen=True)
class Dataset:
    """An immutable audit dataset: features X, protected group A, outcome Y.

    Group labels are integers 0..G-1 and ``group_names`` maps them back to
    their source values.  The names declare the groups: G is their number
    (by default ``group.max() + 1``), and a row subset keeps all G even
    when it lacks the rows of some.  ``score`` optionally carries
    externally supplied model scores aligned with the rows.
    """

    features: np.ndarray
    group: np.ndarray
    outcome: np.ndarray
    task: Task
    column_names: tuple[str, ...]
    group_names: tuple[str, ...] = ()
    score: np.ndarray | None = None

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        group = np.ascontiguousarray(self.group, dtype=np.int64)
        outcome = np.ascontiguousarray(self.outcome, dtype=np.float64)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "outcome", outcome)
        if features.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        n = features.shape[0]
        if group.shape != (n,) or outcome.shape != (n,):
            raise DataError("group/outcome length does not match feature rows")
        if n == 0:
            raise DataError("dataset has no rows")
        if not np.all(np.isfinite(features)):
            raise DataError("non-finite feature value")
        if not np.all(np.isfinite(outcome)):
            raise DataError("non-finite outcome value")
        if group.min() < 0:
            raise DataError("negative group index")
        # Row subsets (subsampling, bootstrap) may lose a group entirely;
        # emptiness is checked at load time and by the consuming operation.
        if self.task is Task.BINARY and not np.all(np.isin(outcome, (0.0, 1.0))):
            bad = outcome[~np.isin(outcome, (0.0, 1.0))][0]
            raise DataError(f"binary task but outcome value {bad!r} not in {{0,1}}")
        if not self.group_names:
            object.__setattr__(
                self, "group_names", tuple(str(g) for g in range(group.max() + 1))
            )
        elif group.max() >= len(self.group_names):
            raise DataError(f"group index {group.max()} has no group name")
        if self.score is not None:
            score = np.ascontiguousarray(self.score, dtype=np.float64)
            if score.shape != (n,):
                raise DataError("score length does not match feature rows")
            if not np.all(np.isfinite(score)):
                raise DataError("non-finite score value")
            object.__setattr__(self, "score", score)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def k(self) -> int:
        return self.features.shape[1]

    @property
    def n_groups(self) -> int:
        """The number of declared groups, with rows here or not."""
        return len(self.group_names)

    def group_indices(self, a: int) -> np.ndarray:
        return np.flatnonzero(self.group == a)

    def take(self, indices: np.ndarray) -> "Dataset":
        """Row subset/reordering.  Groups are not relabeled: the subset
        keeps every declared group, even one it has no rows of.

        The rows of a validated Dataset are valid, so the subset skips the
        whole-matrix checks of ``__post_init__``; ``indices`` must be a
        non-empty 1-D array.  ``task``, ``column_names`` and
        ``group_names`` carry over.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 1:
            raise DataError("row indices must be a 1-D array")
        if indices.size == 0:
            raise DataError("dataset has no rows")
        sub = object.__new__(type(self))
        vars(sub).update(
            vars(self),
            features=self.features[indices],
            group=self.group[indices],
            outcome=self.outcome[indices],
            score=None if self.score is None else self.score[indices],
        )
        return sub


@dataclass(frozen=True)
class DataSplit:
    train: Dataset
    test: Dataset
    seed: int
    train_indices: np.ndarray = field(repr=False, default=None)
    test_indices: np.ndarray = field(repr=False, default=None)


def _floats(cells: list) -> np.ndarray | None:
    """The cells as float64 through Python ``float()``, or None when some
    cell is not numeric."""
    try:
        return np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:
        return None


def _categories(cells: list) -> tuple[list, np.ndarray]:
    """The distinct cells sorted by code point, and each cell's index
    among them."""
    cats = sorted(set(cells))
    index = {cat: i for i, cat in enumerate(cats)}
    codes = np.fromiter(map(index.__getitem__, cells), dtype=np.int64, count=len(cells))
    return cats, codes


# Records are transposed into columns in chunks of this many rows, so that
# the csv module's per-row lists die young: with ten thousand live lists
# the cyclic garbage collector took about a fifth of a load's time.
_CHUNK_ROWS = 512


def _append_columns(columns: list, rows: list) -> None:
    """Append the stripped cells of equal-width records to their columns."""
    for column, cells in zip(columns, zip(*rows)):
        column.extend(map(str.strip, cells))


def _check_missing(columns: list, linenos: list, origin: str) -> None:
    """Raise ``missing value`` for the first record with an empty cell;
    ``linenos`` holds each record's line number in the file."""
    first = min((cells.index("") for cells in columns if "" in cells), default=None)
    if first is not None:
        raise DataError(f"{origin}:{linenos[first]}: missing value")


def _numeric_column(
    cells: list, linenos: list, origin: str, role: str
) -> np.ndarray:
    """The ``role`` column's cells as finite floats.  Raises for the first
    record whose cell is not a number, else for the first nan or infinite
    one, naming the record's line."""
    values = _floats(cells)
    if values is None:
        i = next(i for i, cell in enumerate(cells) if _floats([cell]) is None)
        raise DataError(
            f"{origin}:{linenos[i]}: non-numeric {role} value {cells[i]!r}"
        )
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        raise DataError(
            f"{origin}:{linenos[i]}: non-finite {role} value {cells[i]!r}"
        )
    return values


def load_dataset(path, schema: Schema) -> Dataset:
    """Load a CSV file under a column-role schema.

    Categorical feature columns (any non-numeric cell) are one-hot expanded
    with categories in code-point order; column names become
    ``<col>=<category>``.  Missing cells are rejected outright.  A UTF-8
    byte-order mark at the start of the file is dropped.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    return _load_csv_text(text, schema, origin=str(path))


def _split_quote_free(text: str) -> tuple[list, list, range] | None:
    r"""The header cells, stripped cell columns and record line numbers of
    CSV text that needs no csv parsing, or None when it may.

    Text qualifies when it has no ``"``, every ``\r`` is part of a
    ``\r\n``, no line is longer than ``csv.field_size_limit()``, and
    every record after the header holds as many cells as the header.  Its
    records are then its lines, ended by ``\n`` only (``str.splitlines``
    would also end one at ``\x0b``, ``\x1c`` or ``\u2028``, which the
    csv module keeps in a cell), and its cells the text between commas:
    what ``csv.reader`` returns, and with every record the same width, no
    blank record to skip and no error to report.
    """
    if '"' in text or text.count("\r") != text.count("\r\n"):
        return None
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2 or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = lines[0].split(",")
    width = len(header)
    body = lines[1:]
    # With two columns or more a blank record has too few commas.
    if width < 2 or set(map(str.count, body, repeat(","))) != {width - 1}:
        return None
    flat = ",".join(body).split(",")
    columns = [list(map(str.strip, flat[j::width])) for j in range(width)]
    return header, columns, range(2, len(body) + 2)


def _read_csv_records(reader, width: int, origin: str) -> tuple[list, list]:
    """The stripped cell columns and record line numbers of the records
    left in ``reader``, skipping blank ones; see ``_load_csv_text`` for the
    errors."""
    columns = [[] for _ in range(width)]
    linenos = []
    chunk = []
    lineno = 1
    try:
        for lineno, row in enumerate(reader, 2):
            # The header has at least two columns, so a blank record (no
            # cell, or one blank cell) always fails the width test first.
            if len(row) != width:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                # A missing cell in an earlier record is reported first.
                _append_columns(columns, chunk)
                _check_missing(columns, linenos, origin)
                raise DataError(
                    f"{origin}:{lineno}: expected {width} cells, got {len(row)}"
                )
            chunk.append(row)
            linenos.append(lineno)
            if len(chunk) == _CHUNK_ROWS:
                _append_columns(columns, chunk)
                chunk.clear()
    except csv.Error as exc:
        _append_columns(columns, chunk)
        _check_missing(columns, linenos, origin)
        raise DataError(f"{origin}:{lineno + 1}: unreadable record: {exc}") from None
    _append_columns(columns, chunk)
    if not linenos:
        raise DataError(f"{origin}: no data rows")
    return columns, linenos


def _load_csv_text(text: str, schema: Schema, origin: str = "<memory>") -> Dataset:
    """Parse CSV text into a Dataset, one column at a time.

    Cells are stripped of surrounding whitespace.  Blank records are
    skipped but still count in the ``origin:lineno:`` of an error, which
    names the first ragged or unparsable record or record with an empty
    cell.  A column is numeric when Python ``float()`` accepts every cell
    (so ``1_000``, ``1e3``, ``nan`` and ``inf`` are numbers); otherwise its
    distinct values, sorted by code point, become one-hot columns.  The
    outcome and score must be numeric, and they and every numeric feature
    finite.  A group column of non-negative integers keeps their numeric
    order; any other group column is categorical.

    Text that ``_split_quote_free`` accepts is split in bulk; any other
    goes through ``csv.reader``, which alone skips blank records and
    raises record errors.
    """
    records = _split_quote_free(text)
    if records is None:
        # Header errors come before record errors.
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{origin}: empty file") from None
        except csv.Error as exc:
            raise DataError(f"{origin}:1: unreadable record: {exc}") from None
    else:
        header, columns, linenos = records
    header = [h.strip() for h in header]
    if len(set(header)) != len(header):
        raise DataError(f"{origin}: duplicate column names in header")
    for needed in (schema.group, schema.outcome):
        if needed not in header:
            raise DataError(f"{origin}: schema column {needed!r} not in header")
    if schema.score is not None and schema.score not in header:
        raise DataError(f"{origin}: score column {schema.score!r} not in header")
    special = {schema.group, schema.outcome, schema.score} | set(schema.ignore)
    feature_cols = [h for h in header if h not in special]
    if not feature_cols:
        raise DataError(f"{origin}: no feature columns left under schema")

    if records is None:
        columns, linenos = _read_csv_records(reader, len(header), origin)
    _check_missing(columns, linenos, origin)
    n = len(linenos)
    col = dict(zip(header, columns))

    outcome = _numeric_column(col[schema.outcome], linenos, origin, "outcome")
    if schema.task is Task.BINARY and not np.all(np.isin(outcome, (0.0, 1.0))):
        i = np.flatnonzero(~np.isin(outcome, (0.0, 1.0)))[0]
        raise DataError(f"{origin}:{linenos[i]}: binary outcome value "
                        f"{outcome[i]} not in {{0,1}}")

    # Group column: non-negative integers map to 0..G-1 in numeric order,
    # anything else is categorical.
    values = _floats(col[schema.group])
    if values is not None and np.all(
        np.isfinite(values) & (values >= 0) & (values == np.floor(values))
    ):
        present, group = np.unique(values, return_inverse=True)
        group_names = tuple(str(int(v)) for v in present.tolist())
    else:
        cats, group = _categories(col[schema.group])
        group_names = tuple(cats)

    # Features: numeric columns pass through, categorical are one-hot.
    blocks: list[np.ndarray] = []
    names: list[str] = []
    for name in feature_cols:
        values = _floats(col[name])
        if values is not None:
            names.append(name)
            blocks.append(values[:, None])
        else:
            cats, codes = _categories(col[name])
            names.extend(f"{name}={cat}" for cat in cats)
            blocks.append(codes[:, None] == np.arange(len(cats)))
    features = np.empty((n, len(names)))
    j = 0
    for block in blocks:
        features[:, j:j + block.shape[1]] = block
        j += block.shape[1]

    score = None
    if schema.score is not None:
        score = _numeric_column(col[schema.score], linenos, origin, "score")
    # Only a numeric column can hold nan or inf; report its first record.
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        i, j = bad[0]
        raise DataError(
            f"{origin}:{linenos[i]}: non-finite feature value "
            f"{col[names[j]][i]!r} in column {names[j]!r}"
        )

    return Dataset(
        features=features,
        group=group,
        outcome=outcome,
        task=schema.task,
        column_names=tuple(names),
        group_names=group_names,
        score=score,
    )


def write_dataset(d: Dataset, path) -> None:
    """Write a Dataset to CSV in the canonical schema (group, outcome,
    then feature columns).  load(write(d)) reproduces d."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            header = ["group", "outcome"] + list(d.column_names)
            if d.score is not None:
                header.append("score")
            writer.writerow(header)
            for i in range(d.n):
                row = [str(int(d.group[i])), repr(float(d.outcome[i]))]
                row += [repr(float(v)) for v in d.features[i]]
                if d.score is not None:
                    row.append(repr(float(d.score[i])))
                writer.writerow(row)
    except OSError as exc:
        raise DataError(f"cannot write dataset {path}: {exc}") from exc


def canonical_schema(d: Dataset) -> Schema:
    return Schema(
        group="group",
        outcome="outcome",
        task=d.task,
        score="score" if d.score is not None else None,
    )


def split(
    d: Dataset,
    test_fraction: float,
    seed: int,
    stratify_by_group: bool = False,
) -> DataSplit:
    """Deterministic train/test split.

    Stratified mode preserves per-group proportions within +-1 row.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction {test_fraction} not in (0,1)")
    n_test = int(round(d.n * test_fraction))
    n_test = min(max(n_test, 1), d.n - 1)
    rng = np.random.default_rng(seed)
    if stratify_by_group:
        test_parts = []
        train_parts = []
        for a in range(d.n_groups):
            rows = d.group_indices(a)
            if rows.size < 2:
                raise DataError(
                    f"group {a} has {rows.size} row(s); cannot stratify"
                )
            t = int(round(rows.size * test_fraction))
            t = min(max(t, 1), rows.size - 1)
            perm = rng.permutation(rows.size)
            test_parts.append(rows[perm[:t]])
            train_parts.append(rows[perm[t:]])
        test_idx = np.sort(np.concatenate(test_parts))
        train_idx = np.sort(np.concatenate(train_parts))
    else:
        perm = rng.permutation(d.n)
        test_idx = np.sort(perm[:n_test])
        train_idx = np.sort(perm[n_test:])
    if train_idx.size + test_idx.size != d.n:
        raise DataError("split lost or repeated rows")
    if np.intersect1d(train_idx, test_idx).size:
        raise DataError("split put rows in both train and test")
    return DataSplit(
        train=d.take(train_idx),
        test=d.take(test_idx),
        seed=seed,
        train_indices=train_idx,
        test_indices=test_idx,
    )


def subsample(d: Dataset, m: int, seed: int) -> Dataset:
    """m rows drawn without replacement, deterministic given seed."""
    if not 1 <= m <= d.n:
        raise DataError(f"subsample size {m} not in [1, {d.n}]")
    rng = np.random.default_rng(seed)
    idx = rng.choice(d.n, size=m, replace=False)
    return d.take(idx)


def bootstrap_resample(d: Dataset, m: int, seed: int) -> Dataset:
    """m rows drawn with replacement, deterministic given seed."""
    if m < 1:
        raise DataError(f"bootstrap size {m} must be >= 1")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, d.n, size=m)
    return d.take(idx)


def derive_seed(master: int, *context) -> int:
    """Derive a child seed from a master seed and hashable context items.

    Uses numpy's SeedSequence so the whole audit reproduces from one knob.
    """
    entropy = [int(master) & 0xFFFFFFFF]
    for item in context:
        if isinstance(item, str):
            entropy.extend(item.encode("utf-8"))
        else:
            entropy.append(int(item) & 0xFFFFFFFF)
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])
