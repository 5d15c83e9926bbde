"""Tabular datasets with protected-group and outcome columns.

Loading, validation, splitting, subsampling, bootstrap resampling, and
every file the package reads or writes.  All stochastic operations are
pure functions of (inputs, seed).
"""

from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError


class Task(enum.Enum):
    BINARY = "binary"
    REGRESSION = "regression"


def read_text(path, what: str) -> str:
    """The text of the UTF-8 file ``path``, without a leading byte-order
    mark and with its line ends as they are.  Errors name the file as a
    ``what``."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def encoded(path, what: str, text: str) -> bytes:
    """``text`` as UTF-8, to be written to ``path``; text that UTF-8
    cannot encode (a lone surrogate) is an error naming the file as a
    ``what``."""
    try:
        return text.encode()
    except UnicodeEncodeError as exc:
        raise DataError(f"cannot write {what} {path}: {exc}") from exc


def write_bytes(path, what: str, data: bytes) -> None:
    """Write ``data`` to ``path``; errors name the file as a ``what``."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise DataError(f"cannot write {what} {path}: {exc}") from exc


def write_text(path, what: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, its line ends as they are;
    text that UTF-8 cannot encode creates no file."""
    write_bytes(path, what, encoded(path, what, text))


def csv_text(header: list, rows) -> str:
    """The ``header`` record, then ``rows``, as ``csv.writer`` text: cells
    quoted where needed, records ended by ``\r\n``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_csv(path, what: str, header: list, rows) -> None:
    """Write ``csv_text(header, rows)`` to ``path`` (see ``write_text``)."""
    write_text(path, what, csv_text(header, rows))


def read_key_values(path, what: str) -> list[tuple[str, str]]:
    """The stripped (key, value) pairs of a file of ``key=value`` lines
    (see ``read_text``), in file order, skipping blank and ``#`` lines.
    Errors name the file as a ``what`` file."""
    try:
        text = read_text(path, f"{what} file")
    except DataError as exc:
        raise ConfigError(str(exc)) from exc
    pairs = []
    for lineno, raw in enumerate(io.StringIO(text, newline=None), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        pairs.append((key.strip(), value.strip()))
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


def _factorize(cells: list) -> tuple[list, np.ndarray]:
    """The distinct cells in first-seen order, and each cell's index among
    them: the column form of a column of stripped cells."""
    index = {cell: i for i, cell in enumerate(dict.fromkeys(cells))}
    codes = np.fromiter(map(index.__getitem__, cells), dtype=np.int64, count=len(cells))
    return list(index), codes


def _categories(cells: list) -> tuple[list, np.ndarray]:
    """The distinct cells sorted by code point, and each cell's index
    among them."""
    cats = sorted(set(cells))
    index = {cat: i for i, cat in enumerate(cats)}
    codes = np.fromiter(map(index.__getitem__, cells), dtype=np.int64, count=len(cells))
    return cats, codes


# Both record readers return each column in one form: the stripped text
# of each of its distinct raw cells (``cells``, in no set order, and with
# repeats where cells differed only in whitespace or a reader numbered one
# cell twice), and each record's index among them (``codes``).  A
# record's cell is ``cells[codes[i]]``.  Only a categorical column needs
# its distinct texts, in code-point order, which ``_categories(cells)``
# gives.

# Records are transposed into columns in chunks of this many rows, so that
# the csv module's per-row lists die young: with ten thousand live lists
# the cyclic garbage collector took about a fifth of a load's time.
_CHUNK_ROWS = 512


def _append_columns(columns: list, rows: list) -> None:
    """Append the stripped cells of equal-width records to their columns."""
    for column, cells in zip(columns, zip(*rows)):
        column.extend(map(str.strip, cells))


def _check_missing(first: list, linenos: list, origin: str) -> None:
    """Raise ``missing value`` for the earliest record in ``first``, which
    holds the first record with an empty cell of each column that has one;
    ``linenos`` holds each record's line number in the file."""
    if first:
        raise DataError(f"{origin}:{linenos[min(first)]}: missing value")


def _raise_first_bad(bad: list, linenos: list, origin: str, what: str) -> None:
    """Raise ``what`` for the first record with a bad cell, at its leftmost
    such column.  ``bad`` holds, for each column in order, its column
    form, a mark for each of its distinct cells, and the text that ends a
    message on one of its cells."""
    firsts = [(np.argmax(marks[codes]), j)
              for j, ((_, codes), marks, _) in enumerate(bad) if marks.any()]
    if firsts:
        i, j = min(firsts)
        (cells, codes), _, where = bad[j]
        raise DataError(
            f"{origin}:{linenos[i]}: {what} {cells[codes[i]]!r}{where}"
        )


def numeric_columns(columns: list, linenos: list, origin: str, role: str) -> list:
    """The cells of each ``role`` column as finite floats.  Raises for the
    first record with a cell that is not a number, else with a nan or
    infinite one, naming its leftmost such cell."""
    values = [_floats(cells) for cells, _ in columns]
    _raise_first_bad(
        [(column, np.array([_floats([cell]) is None for cell in column[0]]), "")
         for column, v in zip(columns, values) if v is None],
        linenos, origin, f"non-numeric {role} value",
    )
    _raise_first_bad(
        [(column, ~np.isfinite(v), "") for column, v in zip(columns, values)],
        linenos, origin, f"non-finite {role} value",
    )
    return [v[codes] for v, (_, codes) in zip(values, columns)]


def load_dataset(path, schema: Schema) -> Dataset:
    """Load a CSV file (see ``read_text``) under a column-role schema.

    Categorical feature columns (any non-numeric cell) are one-hot expanded
    with categories in code-point order; column names become
    ``<col>=<category>``.  Missing cells are rejected outright.
    """
    return _load_csv_text(read_text(path, "dataset"), schema, origin=str(path))


# _KEEP[k] keeps the first k bytes of a little-endian 8-byte word.
_KEEP = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# An odd multiplier (2**64 over the golden ratio) that mixes the words of
# a long cell's key into one hash.
_MIX = np.uint64(0x9E3779B97F4A7C15)


# Cells of more bytes than this are numbered by a dict of their bytes:
# ``_number_cells`` takes one step of a Python loop per 8 bytes of the
# longest cell it is given.
_WORD_CELL = 64


def _masked_words(words, begin, length, w):
    """The word at byte ``w`` of each cell, masked to the cell's end;
    every cell is longer than ``w`` bytes, or ``w`` is 0."""
    return words[begin + w] & _KEEP[np.minimum(length - w, 8)]


def _number_cells(words, begin, length) -> tuple[np.ndarray, np.ndarray]:
    """A number for each of the cells at ``begin`` of ``length`` bytes
    (at most ``_WORD_CELL``), and the first cell with each number.

    A cell's key is its bytes zero-padded to whole 8-byte words, so two
    cells share a key exactly when they share their bytes.  The cells are
    ordered by a hash of their keys and each run of equal keys numbered.
    Equal keys hash alike, so each key's cells form one run, unless a hash
    collision interleaves two keys: then a key gets several numbers, which
    the column form allows.  Each word pass reads only the cells that
    reach that word, so the work is linear in the cells' bytes.
    """
    hashed = _masked_words(words, begin, length, 0)
    rows = np.flatnonzero(length > 8)
    for w in range(8, _WORD_CELL, 8):
        if not rows.size:
            break
        hashed[rows] = hashed[rows] * _MIX ^ _masked_words(
            words, begin[rows], length[rows], w
        )
        rows = rows[length[rows] > w + 8]
    order = np.argsort(hashed)
    sorted_hash = hashed[order]
    sorted_begin, sorted_length = begin[order], length[order]
    same = (sorted_hash[1:] == sorted_hash[:-1]) & (
        sorted_length[1:] == sorted_length[:-1]
    )
    # A cell of one word is its hash; longer neighbours compare word by word.
    pairs = np.flatnonzero(same & (sorted_length[1:] > 8))
    for w in range(0, _WORD_CELL, 8):
        if not pairs.size:
            break
        length_w = sorted_length[pairs]
        equal = _masked_words(words, sorted_begin[pairs], length_w, w) == (
            _masked_words(words, sorted_begin[pairs + 1], length_w, w)
        )
        same[pairs[~equal]] = False
        pairs = pairs[equal & (length_w > w + 8)]
    new = np.ones(order.size, dtype=bool)
    new[1:] = ~same
    numbers = np.empty(order.size, dtype=np.int64)
    numbers[order] = np.cumsum(new) - 1
    return numbers, order[new]


def _decode_cells(buf: np.ndarray, begin: np.ndarray, length: np.ndarray) -> list:
    """The stripped text of the UTF-8 cells at ``begin`` of ``length``
    bytes of ``buf``, none of which holds a comma, decoded in one piece:
    each cell is gathered with the separator byte after it, which becomes
    a comma to split on."""
    ends = np.cumsum(length + 1)
    gather = np.arange(ends[-1]) + np.repeat(begin - (ends - length - 1), length + 1)
    joined = buf[gather]
    joined[ends - 1] = ord(",")
    cells = joined[:-1].tobytes().decode().split(",")
    # Only a byte up to the space or past ASCII can be part of whitespace,
    # so a column of neither is stripped already.
    if joined.min() <= ord(" ") or joined.max() >= 0x80:
        return list(map(str.strip, cells))
    return cells


def _factorize_columns(
    data: bytes, starts: np.ndarray, lengths: np.ndarray
) -> list:
    """The column form of each column of the cells ``data[s:s + l]``, for
    ``s`` and ``l`` in matching columns of ``starts`` and ``lengths``,
    decoding and stripping each distinct cell once.

    ``data`` is UTF-8 with no NUL byte, followed by eight more bytes, and
    every cell is followed by a separator byte.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    # Word i of ``words`` is the eight bytes from byte i on.
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    columns = []
    for j in range(starts.shape[1]):
        begin, length = starts[:, j], lengths[:, j]
        long = length > _WORD_CELL
        if not long.any():
            codes, first = _number_cells(words, begin, length)
            columns.append((_decode_cells(buf, begin[first], length[first]), codes))
            continue
        short, rows = np.flatnonzero(~long), np.flatnonzero(long)
        codes = np.empty(begin.size, dtype=np.int64)
        codes[short], first = _number_cells(words, begin[short], length[short])
        first = short[first]
        index = {}
        codes[rows] = first.size + np.fromiter(
            (index.setdefault(data[a:a + n], len(index))
             for a, n in zip(begin[rows].tolist(), length[rows].tolist())),
            dtype=np.int64, count=rows.size,
        )
        cells = _decode_cells(buf, begin[first], length[first]) if first.size else []
        cells += map(str.strip, b"\n".join(index).decode().split("\n"))
        columns.append((cells, codes))
    return columns


def _split_quote_free(text: str) -> tuple[list, list, range] | None:
    r"""The header cells, columns and record line numbers of CSV text that
    needs no csv parsing, or None when it may.

    Text qualifies when it has no ``"`` and no NUL, every ``\r`` is part
    of a ``\r\n``, no line is longer than ``csv.field_size_limit()``, and
    every record after the header holds as many cells as the header.  Its
    records are then its lines, ended by ``\n`` only (``str.splitlines``
    would also end one at ``\x0b``, ``\x1c`` or ``\u2028``, which the
    csv module keeps in a cell), and its cells the text between commas:
    what ``csv.reader`` returns, and with every record the same width, no
    blank record to skip and no error to report.  The cells are found in
    the UTF-8 bytes of the text and factorized by ``_factorize_columns``,
    which needs the text free of NUL.
    """
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    data = text.encode()
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    newline = buf[seps] == ord("\n")
    header = data[:data.index(b"\n")].decode().split(",")
    width = len(header)
    # Every line ends at its width-th separator, a newline, and no other
    # separator is one (the text ends in a newline, so a short last record
    # adds one too many); with two columns or more a blank record has too
    # few commas.
    n = seps.size // width - 1
    if (width < 2 or n < 1 or np.count_nonzero(newline) != n + 1
            or not newline[width - 1::width].all()):
        return None
    # A line of more bytes than the limit may still have few enough
    # characters.
    limit = csv.field_size_limit()
    if np.diff(seps[width - 1::width], prepend=-1).max() - 1 > limit and (
        max(map(len, text.split("\n"))) > limit
    ):
        return None
    starts = seps[width - 1:-1] + 1
    lengths = seps[width:] - starts
    columns = _factorize_columns(
        data + bytes(8), starts.reshape(n, width), lengths.reshape(n, width)
    )
    return header, columns, range(2, n + 2)


def _read_csv_records(reader, width: int, origin: str) -> tuple[list, list]:
    """The columns and record line numbers of the records left in
    ``reader``, skipping blank ones; see ``read_csv_table`` for the
    errors."""
    columns = [[] for _ in range(width)]
    linenos = []
    chunk = []
    lineno = 1

    def check_missing():
        """Report a missing cell in the records read so far, which comes
        before a record error."""
        _append_columns(columns, chunk)
        _check_missing([c.index("") for c in columns if "" in c], linenos, origin)

    try:
        for lineno, row in enumerate(reader, 2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # a blank record: no cell, or one blank cell
            if len(row) != width:
                check_missing()
                raise DataError(
                    f"{origin}:{lineno}: expected {width} cells, got {len(row)}"
                )
            chunk.append(row)
            linenos.append(lineno)
            if len(chunk) == _CHUNK_ROWS:
                _append_columns(columns, chunk)
                chunk.clear()
    except csv.Error as exc:
        check_missing()
        raise DataError(f"{origin}:{lineno + 1}: unreadable record: {exc}") from None
    _append_columns(columns, chunk)
    if not linenos:
        raise DataError(f"{origin}: no data rows")
    return list(map(_factorize, columns)), linenos


def read_csv_table(text: str, origin: str, check_header=None) -> tuple:
    """The stripped header cells, columns (in column form) and record line
    numbers of CSV text.  ``check_header``, given, may raise for the
    header cells before any record error is raised.

    Cells are stripped of surrounding whitespace.  Blank records are
    skipped but still count in the ``origin:lineno:`` of an error, which
    names the first ragged or unparsable record or record with an empty
    cell.  Text that ``_split_quote_free`` accepts is factorized from its
    bytes; any other goes through ``csv.reader``, which alone skips blank
    records and raises record errors.
    """
    records = _split_quote_free(text)
    if records is None:
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
    if check_header is not None:
        check_header(header)
    if records is None:
        columns, linenos = _read_csv_records(reader, len(header), origin)
    _check_missing(
        [np.argmax(np.isin(codes, [i for i, cell in enumerate(cells) if not cell]))
         for cells, codes in columns if "" in cells],
        linenos, origin,
    )
    return header, columns, linenos


def _load_csv_text(text: str, schema: Schema, origin: str = "<memory>") -> Dataset:
    """Parse CSV text (see ``read_csv_table``) into a Dataset, one column
    at a time, parsing each distinct cell once.

    A column is numeric when Python ``float()`` accepts every cell (so
    ``1_000``, ``1e3``, ``nan`` and ``inf`` are numbers); otherwise its
    distinct values, sorted by code point, become one-hot columns.  The
    outcome and score must be numeric, and they and every numeric feature
    finite.  A group column of non-negative integers keeps their numeric
    order; any other group column is categorical.
    """
    special = {schema.group, schema.outcome, schema.score} | set(schema.ignore)

    def check_header(header):
        for needed in (schema.group, schema.outcome):
            if needed not in header:
                raise DataError(f"{origin}: schema column {needed!r} not in header")
        if schema.score is not None and schema.score not in header:
            raise DataError(f"{origin}: score column {schema.score!r} not in header")
        if all(h in special for h in header):
            raise DataError(f"{origin}: no feature columns left under schema")

    header, columns, linenos = read_csv_table(text, origin, check_header)
    feature_cols = [h for h in header if h not in special]
    n = len(linenos)
    col = dict(zip(header, columns))

    [outcome] = numeric_columns([col[schema.outcome]], linenos, origin, "outcome")
    if schema.task is Task.BINARY and not np.all(np.isin(outcome, (0.0, 1.0))):
        i = np.flatnonzero(~np.isin(outcome, (0.0, 1.0)))[0]
        raise DataError(f"{origin}:{linenos[i]}: binary outcome value "
                        f"{outcome[i]} not in {{0,1}}")

    # Group column: non-negative integers map to 0..G-1 in numeric order,
    # anything else is categorical.
    cells, codes = col[schema.group]
    values = _floats(cells)
    if values is not None and np.all(
        np.isfinite(values) & (values >= 0) & (values == np.floor(values))
    ):
        present, inverse = np.unique(values, return_inverse=True)
        group = inverse[codes]
        group_names = tuple(str(int(v)) for v in present.tolist())
    else:
        cats, remap = _categories(cells)
        group = remap[codes]
        group_names = tuple(cats)

    # Features: numeric columns pass through, categorical are one-hot.
    names: list[str] = []
    blocks = []  # (first feature column, values per cell or None, codes)
    numeric = []  # (column, non-finite cells, message end) per numeric column
    for name in feature_cols:
        cells, codes = col[name]
        values = _floats(cells)
        if values is None:
            cats, remap = _categories(cells)
            blocks.append((len(names), None, remap[codes]))
            names.extend(f"{name}={cat}" for cat in cats)
        else:
            blocks.append((len(names), values, codes))
            names.append(name)
            numeric.append((col[name], ~np.isfinite(values), f" in column {name!r}"))
    features = np.zeros((n, len(names)))
    flat = features.reshape(-1)
    row_starts = np.arange(n) * len(names)
    for j, values, codes in blocks:
        if values is None:
            flat[row_starts + j + codes] = 1.0
        else:
            features[:, j] = values[codes]

    score = None
    if schema.score is not None:
        [score] = numeric_columns([col[schema.score]], linenos, origin, "score")
    _raise_first_bad(numeric, linenos, origin, "non-finite feature value")

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
    header = ["group", "outcome"] + list(d.column_names)
    # Python floats from ``tolist`` give the same ``repr`` as numpy scalars,
    # without a scalar object per cell.
    columns = [d.group.tolist(), d.outcome.tolist(), d.features.tolist()]
    if d.score is not None:
        header.append("score")
        columns.append(d.score.tolist())
    write_csv(path, "dataset", header, (
        [str(group), repr(outcome), *map(repr, features), *map(repr, score)]
        for group, outcome, features, *score in zip(*columns)
    ))


def canonical_schema(d: Dataset) -> Schema:
    return Schema(
        group="group",
        outcome="outcome",
        task=d.task,
        score="score" if d.score is not None else None,
    )


def split(d: Dataset, test_fraction: float, seed: int) -> DataSplit:
    """Deterministic train/test split of a random permutation of the
    rows."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction {test_fraction} not in (0,1)")
    n_test = int(round(d.n * test_fraction))
    n_test = min(max(n_test, 1), d.n - 1)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(d.n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    if train_idx.size + test_idx.size != d.n:
        raise DataError("split lost or repeated rows")
    # Both halves are sorted, so a test row that is also a train row sits
    # where searchsorted would insert it into the train half.
    at = np.minimum(np.searchsorted(train_idx, test_idx), train_idx.size - 1)
    if (train_idx[at] == test_idx).any():
        raise DataError("split put rows in both train and test")
    return DataSplit(
        train=d.take(train_idx),
        test=d.take(test_idx),
        seed=seed,
        train_indices=train_idx,
        test_indices=test_idx,
    )


def subsample_indices(n: int, m: int, seed: int) -> np.ndarray:
    """The indices of m rows of n drawn without replacement, in draw
    order, deterministic given seed."""
    if not 1 <= m <= n:
        raise DataError(f"subsample size {m} not in [1, {n}]")
    return np.random.default_rng(seed).choice(n, size=m, replace=False)


def subsample(d: Dataset, m: int, seed: int) -> Dataset:
    """m rows drawn without replacement, deterministic given seed."""
    return d.take(subsample_indices(d.n, m, seed))


def bootstrap_indices(n: int, m: int, seed: int) -> np.ndarray:
    """The indices of m rows of n drawn with replacement, deterministic
    given seed."""
    if m < 1:
        raise DataError(f"bootstrap size {m} must be >= 1")
    return np.random.default_rng(seed).integers(0, n, size=m)


def bootstrap_resample(d: Dataset, m: int, seed: int) -> Dataset:
    """m rows drawn with replacement, deterministic given seed."""
    return d.take(bootstrap_indices(d.n, m, seed))


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
