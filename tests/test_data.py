import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import (
    Dataset,
    DataError,
    Schema,
    Task,
    bootstrap_resample,
    derive_seed,
    split,
    subsample,
    write_dataset,
)
from fairaudit import data as data_mod
from fairaudit.data import _load_csv_text, canonical_schema, load_dataset
from fairaudit.errors import ConfigError

SCHEMA = Schema(group="sex", outcome="y", task=Task.BINARY)


def test_load_basic():
    text = "sex,y,age\nM,1,30\nF,0,25\nF,1,40\n"
    d = _load_csv_text(text, SCHEMA)
    assert d.n == 3 and d.k == 1
    # lexicographic group mapping: F -> 0, M -> 1
    assert d.group.tolist() == [1, 0, 0]
    assert d.group_names == ("F", "M")
    assert d.column_names == ("age",)


def test_one_hot_expansion_lexicographic():
    text = "sex,y,job\nM,1,b\nF,0,a\nF,1,c\n"
    d = _load_csv_text(text, SCHEMA)
    assert d.column_names == ("job=a", "job=b", "job=c")
    np.testing.assert_array_equal(d.features[0], [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(d.features[1], [1.0, 0.0, 0.0])


def test_missing_cell_rejected():
    with pytest.raises(DataError, match="missing value"):
        _load_csv_text("sex,y,age\nM,1,\n", SCHEMA)


def test_ragged_row_rejected():
    with pytest.raises(DataError, match="expected 3 cells"):
        _load_csv_text("sex,y,age\nM,1\n", SCHEMA)


def test_duplicate_columns_rejected():
    with pytest.raises(DataError, match="duplicate"):
        _load_csv_text("sex,y,y\nM,1,1\n", SCHEMA)


def test_nonbinary_outcome_rejected():
    with pytest.raises(DataError) as info:
        _load_csv_text("sex,y,age\nM,1,30\n\nF,2,30\n", SCHEMA)
    assert str(info.value) == "<memory>:4: binary outcome value 2.0 not in {0,1}"


def test_ignore_and_score_columns():
    schema = Schema(
        group="sex", outcome="y", task=Task.BINARY, score="s", ignore=("id",)
    )
    text = "id,sex,y,age,s\n1,M,1,30,0.9\n2,F,0,25,0.2\n"
    d = _load_csv_text(text, schema)
    assert d.column_names == ("age",)
    np.testing.assert_allclose(d.score, [0.9, 0.2])


def test_roundtrip(tmp_path, binary_dataset):
    path = tmp_path / "d.csv"
    write_dataset(binary_dataset, path)
    d2 = load_dataset(path, canonical_schema(binary_dataset))
    np.testing.assert_array_equal(d2.features, binary_dataset.features)
    np.testing.assert_array_equal(d2.group, binary_dataset.group)
    np.testing.assert_array_equal(d2.outcome, binary_dataset.outcome)


def _loop_write_dataset(d, path):
    """The per-cell writer that ``write_dataset`` replaced."""
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


@pytest.mark.parametrize("seed", range(4))
def test_write_dataset_matches_per_cell_loop(tmp_path, seed):
    rng = np.random.default_rng(seed)
    special = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e308, 0.1, 1.0 / 3.0])

    def values(*shape):
        # Magnitudes from subnormal to near the largest double.
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-320, 300, size=shape)
        pick = rng.random(shape) < 0.3
        x[pick] = rng.choice(special, size=int(pick.sum()))
        return x

    n, k = 60, 5
    d = Dataset(
        features=values(n, k),
        group=rng.integers(0, 3, n),
        outcome=values(n),
        task=Task.REGRESSION,
        column_names=("a", "job=x,y", "c", "d", "e"),
        score=values(n) if seed % 2 else None,
    )
    write_dataset(d, tmp_path / "new.csv")
    _loop_write_dataset(d, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_schema_from_file(tmp_path):
    p = tmp_path / "schema.txt"
    p.write_text("# comment\ngroup=sex\noutcome=y\ntask=binary\nignore=id,zip\n")
    s = Schema.from_file(p)
    assert s.group == "sex" and s.ignore == ("id", "zip")
    p.write_text("group=sex\ntask=binary\n")
    with pytest.raises(ConfigError, match="outcome"):
        Schema.from_file(p)


def test_byte_order_mark_is_dropped(tmp_path):
    text = "sex,y,age\nM,1,30\nF,0,25\nF,1,40\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    schema_text = "group=sex\noutcome=y\ntask=binary\n"
    plain_schema, marked_schema = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain_schema.write_text(schema_text, encoding="utf-8")
    marked_schema.write_text(schema_text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert Schema.from_file(marked_schema) == Schema.from_file(plain_schema)
    assert_same_dataset(
        load_dataset(marked, Schema.from_file(marked_schema)),
        load_dataset(plain, Schema.from_file(plain_schema)),
    )


def test_split_partition(binary_dataset):
    ds = split(binary_dataset, 0.25, seed=3)
    assert ds.train.n + ds.test.n == binary_dataset.n
    assert ds.test.n == round(binary_dataset.n * 0.25)
    assert np.intersect1d(ds.train_indices, ds.test_indices).size == 0


def test_split_deterministic(binary_dataset):
    a = split(binary_dataset, 0.2, seed=5)
    b = split(binary_dataset, 0.2, seed=5)
    np.testing.assert_array_equal(a.test_indices, b.test_indices)
    c = split(binary_dataset, 0.2, seed=6)
    assert not np.array_equal(a.test_indices, c.test_indices)


def test_group_names_declare_the_groups():
    d = Dataset(
        features=np.zeros((3, 1)),
        group=np.array([0, 2, 0]),
        outcome=np.array([0.0, 1.0, 1.0]),
        task=Task.BINARY,
        column_names=("x",),
        group_names=("a", "b", "c", "d"),
    )
    assert d.n_groups == 4
    assert d.take(np.array([0, 2])).n_groups == 4
    # Without names, the groups are 0..max.
    assert Dataset(
        features=np.zeros((2, 1)), group=np.array([0, 2]),
        outcome=np.array([0.0, 1.0]), task=Task.BINARY, column_names=("x",),
    ).group_names == ("0", "1", "2")
    with pytest.raises(DataError, match="group index 2 has no group name"):
        Dataset(
            features=np.zeros((2, 1)), group=np.array([0, 2]),
            outcome=np.array([0.0, 1.0]), task=Task.BINARY,
            column_names=("x",), group_names=("a", "b"),
        )


def test_subsample_and_bootstrap(binary_dataset):
    s = subsample(binary_dataset, 50, seed=0)
    assert s.n == 50
    # without replacement: matching rows are unique
    rows = {tuple(r) for r in np.column_stack([s.features, s.outcome])}
    assert len(rows) >= 45  # generic continuous data: essentially all unique
    b = bootstrap_resample(binary_dataset, 600, seed=0)
    assert b.n == 600
    with pytest.raises(DataError):
        subsample(binary_dataset, binary_dataset.n + 1, seed=0)


def test_derive_seed_stable_and_distinct():
    s1 = derive_seed(123, "curve", 100, 0)
    s2 = derive_seed(123, "curve", 100, 0)
    s3 = derive_seed(123, "curve", 100, 1)
    assert s1 == s2
    assert s1 != s3
    assert derive_seed(123, "a") != derive_seed(123, "b")


def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(
            features=np.array([[np.nan]]),
            group=np.array([0]),
            outcome=np.array([1.0]),
            task=Task.BINARY,
            column_names=("x",),
        )
    with pytest.raises(DataError):
        Dataset(
            features=np.zeros((2, 1)),
            group=np.array([0]),
            outcome=np.array([1.0, 0.0]),
            task=Task.BINARY,
            column_names=("x",),
        )


# ---------------------------------------------------------------------------
# Reference oracle: the per-cell loader that `_load_csv_text` replaced, plus
# the later rules that outcome, score and feature values be finite, each
# error naming its line (a feature's also its column).  The columnar
# loader must reproduce its arrays byte for byte and its errors word for
# word.


def _parse_cell(text):
    try:
        return float(text)
    except ValueError:
        return None


def loop_load_csv_text(text, schema, origin="<memory>"):
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{origin}: empty file") from None
    except csv.Error as exc:
        raise DataError(f"{origin}:1: unreadable record: {exc}") from None
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

    rows = []
    linenos = []
    lineno = 1
    try:
        for lineno, row in enumerate(reader, 2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{origin}:{lineno}: expected {len(header)} cells, "
                    f"got {len(row)}"
                )
            cells = [c.strip() for c in row]
            if any(c == "" for c in cells):
                raise DataError(f"{origin}:{lineno}: missing value")
            rows.append(cells)
            linenos.append(lineno)
    except csv.Error as exc:
        raise DataError(
            f"{origin}:{lineno + 1}: unreadable record: {exc}"
        ) from None
    if not rows:
        raise DataError(f"{origin}: no data rows")

    col = {name: [r[i] for r in rows] for i, name in enumerate(header)}

    outcome = np.empty(len(rows))
    for i, cell in enumerate(col[schema.outcome]):
        value = _parse_cell(cell)
        if value is None:
            raise DataError(
                f"{origin}:{linenos[i]}: non-numeric outcome value {cell!r}"
            )
        outcome[i] = value
    for i, cell in enumerate(col[schema.outcome]):
        if not math.isfinite(outcome[i]):
            raise DataError(
                f"{origin}:{linenos[i]}: non-finite outcome value {cell!r}"
            )
    if schema.task is Task.BINARY:
        for i, value in enumerate(outcome):
            if value not in (0.0, 1.0):
                raise DataError(
                    f"{origin}:{linenos[i]}: binary outcome value {value} "
                    "not in {0,1}"
                )

    raw_group = col[schema.group]
    numeric_group = [_parse_cell(c) for c in raw_group]
    if all(v is not None and float(v).is_integer() and v >= 0 for v in numeric_group):
        group = np.array([int(v) for v in numeric_group], dtype=np.int64)
        present = sorted(set(group.tolist()))
        remap = {g: i for i, g in enumerate(present)}
        group_names = tuple(str(g) for g in present)
        group = np.array([remap[g] for g in group], dtype=np.int64)
    else:
        cats = sorted(set(raw_group))
        remap = {c: i for i, c in enumerate(cats)}
        group = np.array([remap[c] for c in raw_group], dtype=np.int64)
        group_names = tuple(cats)

    blocks = []
    names = []
    for name in feature_cols:
        parsed = [_parse_cell(c) for c in col[name]]
        if all(v is not None for v in parsed):
            blocks.append(np.asarray(parsed, dtype=np.float64)[:, None])
            names.append(name)
        else:
            cats = sorted(set(col[name]))
            for cat in cats:
                indicator = np.fromiter(
                    (1.0 if c == cat else 0.0 for c in col[name]),
                    dtype=np.float64,
                    count=len(rows),
                )
                blocks.append(indicator[:, None])
                names.append(f"{name}={cat}")
    features = np.hstack(blocks)

    score = None
    if schema.score is not None:
        score = np.empty(len(rows))
        for i, cell in enumerate(col[schema.score]):
            value = _parse_cell(cell)
            if value is None:
                raise DataError(
                    f"{origin}:{linenos[i]}: non-numeric score value {cell!r}"
                )
            score[i] = value
        for i, cell in enumerate(col[schema.score]):
            if not math.isfinite(score[i]):
                raise DataError(
                    f"{origin}:{linenos[i]}: non-finite score value {cell!r}"
                )
    for i in range(len(rows)):
        for j, name in enumerate(names):
            if not math.isfinite(features[i, j]):
                raise DataError(
                    f"{origin}:{linenos[i]}: non-finite feature value "
                    f"{col[name][i]!r} in column {name!r}"
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


@pytest.fixture(params=[None, 1, 3], ids=["default_chunk", "chunk1", "chunk3"])
def chunk_rows(request, monkeypatch):
    """Run a test at the default chunk size and with records transposed one
    and three at a time, so chunk boundaries fall everywhere.  Only the
    csv record reader transposes in chunks."""
    if request.param is not None:
        monkeypatch.setattr(data_mod, "_CHUNK_ROWS", request.param)


def assert_same_dataset(got, want):
    """Field-by-field equality, arrays compared by bytes."""
    for name in ("features", "group", "outcome"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.flags.c_contiguous
        assert g.tobytes() == w.tobytes()
    if want.score is None:
        assert got.score is None
    else:
        assert got.score.dtype == want.score.dtype
        assert got.score.tobytes() == want.score.tobytes()
    assert got.task is want.task
    assert got.column_names == want.column_names
    assert got.group_names == want.group_names


def _outcome_of(loader, text, schema, origin="t.csv"):
    """The loaded Dataset, or the text of the DataError it raised."""
    try:
        return loader(text, schema, origin=origin)
    except DataError as exc:
        return f"DataError: {exc}"


def assert_same_outcome(got, want):
    """The same Dataset, or the same DataError text."""
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert_same_dataset(got, want)


def assert_same_load(text, schema=SCHEMA):
    """The loader matches the loop with quote-free text split in bulk, and
    again with every text sent through the csv record reader."""
    want = _outcome_of(loop_load_csv_text, text, schema)
    assert_same_outcome(_outcome_of(_load_csv_text, text, schema), want)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_mod, "_split_quote_free", lambda text: None)
        assert_same_outcome(_outcome_of(_load_csv_text, text, schema), want)


ADULT_LEVELS = {
    "workclass": ("Private", "Self-emp", "State-gov", "Never-worked"),
    "occupation": ("Sales", "Tech-support", "Craft-repair", "Armed-Forces",
                   "Exec-managerial"),
    "race": ("White", "Black", "Asian-Pac-Islander", "Other"),
}
ADULT_SCHEMA = Schema(group="sex", outcome="income", task=Task.BINARY)


def adult_text(seed, n=300):
    rng = np.random.default_rng(seed)
    columns = {
        "age": rng.integers(17, 91, n).astype(str),
        "hours": np.round(rng.normal(40, 12, n), 1).astype(str),
        "sex": np.where(rng.random(n) < 0.67, "Male", "Female"),
    }
    for name, levels in ADULT_LEVELS.items():
        columns[name] = np.asarray(levels)[rng.integers(0, len(levels), n)]
    columns["income"] = (rng.random(n) < 0.25).astype(int).astype(str)
    lines = [",".join(columns)]
    lines += [",".join(row) for row in zip(*(v.tolist() for v in columns.values()))]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(5))
def test_loader_matches_loop_on_adult_shaped_text(seed, chunk_rows):
    text = adult_text(seed)
    assert_same_load(text, ADULT_SCHEMA)
    assert_same_load(text.replace("\n", "\r\n"), ADULT_SCHEMA)
    # Blank records and padded cells.
    lines = text.splitlines()
    lines.insert(3, "")
    lines.insert(7, "   ")
    padded = "\n".join(" " + line.replace(",", " ,\t") for line in lines)
    assert_same_load(padded + "\n\n", ADULT_SCHEMA)


@pytest.mark.parametrize(
    "text",
    [
        # quoted cells with commas and newlines
        'sex,y,job\nM,1,"a,b"\nF,0,"c\nd"\n"M",1,a\n',
        # case and non-ASCII categories, code-point order
        "sex,y,job\nM,1,b\nF,0,B\nF,1,é\nM,0,Z\nF,1,ß\nM,0,a\n",
        # number-like strings
        "sex,y,x\nM,1,1_000\nF,0, 1e3 \nF,1,-0\nM,0,.5\n",
        "sex,y,x\nM,1,1\nF,0,nan\n",
        "sex,y,x\nM,1,inf\nF,0,1\n",
        "sex,y,x\nM,1,1e999\nF,0,1\n",
        # numeric except in its last cell
        "sex,y,x\nM,1,1\nF,0,2\nF,1,3\nM,0,3.5x\n",
        # numeric groups with gaps, as floats, negative, fractional
        "sex,y,x\n5,1,1\n0,0,2\n2,1,3\n5,0,4\n",
        "sex,y,x\n2.0,1,1\n0e0,0,2\n-0,1,3\n",
        "sex,y,x\n-1,1,1\n0,0,2\n3,1,3\n",
        "sex,y,x\n1.5,1,1\n0,0,2\n",
        "sex,y,x\nnan,1,1\n0,0,2\n",
        "sex,y,x\ninf,1,1\n0,0,2\n",
        # CRLF and blank records
        "sex,y,x\r\nM,1,1\r\n\r\nF,0,2\r\n\r\n",
        # errors
        "",
        "sex,y,x\n",
        "sex,y,x\n\n  \n",
        "sex,y,y\nM,1,1\n",
        "sex,y\nM,1\n",
        "sex,y,x\nM,1,1\nF,0\n",
        "sex,y,x\nM,1,1\nF,0,1,2\n",
        "sex,y,x\nM,1,1\nF,0\n1\n",
        "sex,y,x\nM,1, \nF,0\n",
        "sex,y,x\nM,1\nF,0,\n",
        "sex,y,x\nM,1,1\n\nF,,2\n",
        "sex,y,x\nM,1,1\nF,yes,2\n",
        "sex,y,x\nM,1,1\n\nF,2,2\n",
        "sex,y,x\nM,1,1\nF,0.5,2\n",
    ],
)
def test_loader_matches_loop_on_edge_cases(text, chunk_rows):
    assert_same_load(text)


def test_loader_matches_loop_with_ignore_and_score(chunk_rows):
    schema = Schema(
        group="g", outcome="y", task=Task.REGRESSION, score="s", ignore=("id", "z")
    )
    rng = np.random.default_rng(11)
    lines = ["id,g,y,x,z,job,s"]
    for i in range(200):
        lines.append(
            f"{i},{rng.integers(0, 4) * 3},{rng.normal():.6f},{rng.random()!r},"
            f"q{i % 7},{'abc'[rng.integers(0, 3)]},{rng.random():.3f}"
        )
    text = "\n".join(lines) + "\n"
    assert_same_load(text, schema)
    assert_same_load(text.replace(",0.", ",zero.", 1), schema)
    assert_same_load(text + "201,3,0.5,0.1,q,a,high\n", schema)
    assert_same_load(text.replace("id,g,y", "id,g,yy"), schema)
    assert_same_load(text.replace(",s\n", ",t\n", 1), schema)


def test_loader_matches_loop_on_random_cells(chunk_rows):
    rng = np.random.default_rng(5)
    pool = ["0", "1", " 1 ", "2", "-3", "0.5", "1e3", "1_0", "nan", "a", "A",
            "b ", "é", '"x,y"', '"p\nq"']
    schemas = [
        SCHEMA,
        Schema(group="sex", outcome="y", task=Task.REGRESSION),
        Schema(group="sex", outcome="y", task=Task.REGRESSION, score="s"),
    ]
    for trial in range(300):
        lines = ["sex,y,age,s"]
        for _ in range(rng.integers(1, 8)):
            width = 4 if rng.random() < 0.9 else rng.integers(0, 6)
            cells = [pool[i] for i in rng.integers(0, len(pool), width)]
            if rng.random() < 0.5:
                cells[:2] = [str(rng.integers(0, 3)), str(rng.integers(0, 2))][:width]
            if width and rng.random() < 0.1:
                cells[rng.integers(0, width)] = " " * rng.integers(0, 2)
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
        for schema in schemas:
            assert_same_load(text, schema)


def test_split_path_takes_quote_free_text_only():
    text = adult_text(0, n=20)
    header, columns, linenos = data_mod._split_quote_free(text)
    rows = list(csv.reader(io.StringIO(text)))
    assert header == rows[0]
    # Each column is the stripped text of its distinct cells and a code
    # per record.
    for (cells, codes), raw in zip(columns, zip(*rows[1:])):
        assert codes.dtype == np.int64
        assert [cells[code] for code in codes] == [cell.strip() for cell in raw]
        assert len(cells) == len(set(raw))
    assert linenos == range(2, 22)
    assert data_mod._split_quote_free(text.replace("\n", "\r\n")) is not None
    assert data_mod._split_quote_free(text.rstrip("\n")) is not None
    too_long = "x" * (csv.field_size_limit() + 1)
    declined = [
        text.replace("Male", '"Male"'),        # a quote
        text.replace("\n", "\r", 3),          # a lone carriage return
        text + "\n",                           # a blank record
        text + "1,2\n",                        # a ragged record
        text + "1,2,3,4,5,6\n7\n",             # two, with seven cells in all
        text + "1,2,3,4,5,6",                  # a short last record
        "x\n1\n\n2\n",                          # one column and a blank record
        "sex,y,x\n",                           # no record
        text.replace("age", too_long, 1),      # a line over the field limit
        text.replace("Male", "Ma\0le", 1),     # a NUL, which keys cannot see
    ]
    for other in declined:
        assert data_mod._split_quote_free(other) is None
    # A line of more bytes than the limit, but not more characters.
    wide = "é" * (csv.field_size_limit() // 2 + 1)
    assert data_mod._split_quote_free(text.replace("age", wide, 1)) is not None


def _cells_text(cells, other=None):
    """A text whose ``x`` column holds ``cells`` and whose ``z`` column
    holds ``other`` (by default the cells reversed)."""
    other = cells[::-1] if other is None else other
    lines = ["sex,y,x,z"]
    lines += [
        f"{'MF'[i % 2]},{i % 2},{x},{z}" for i, (x, z) in enumerate(zip(cells, other))
    ]
    return "\n".join(lines) + "\n"


_LONG = "abcdefghijklmnopqrstuvwxy"  # 25 bytes
# 130 bytes, past the cells that word keys number (64 bytes).
_PAST_WORDS = "".join(chr(ord("A") + i % 26) + str(i % 10) for i in range(65))
_CELL_CASES = {
    "lengths": [_LONG[:k] for k in (1, 7, 8, 9, 15, 16, 17, 25)] * 2,
    "shared_prefixes": [_LONG[:8] + "1", _LONG[:8] + "2", _LONG[:8],
                        _LONG[:16] + "X", _LONG[:16], _LONG[:16] + "XY",
                        _LONG[:16] + "Y", _LONG[:8] + "1"],
    "numeric_lengths": ["1234567", "12345678", "123456789", "1" * 15,
                        "1" * 16, "1" * 17, "0." + "1" * 23, "1234567"],
    "utf8": ["é", "ééééé", "aéééé", "日本語", "日本語日本", "😀x", "x😀",
             "Ω" * 9, "é"],
    "strip_to_same": ["a", " a", "a\t", "b", "\ta ", "a"],
    "padded_long": [_LONG[:16], " " + _LONG[:16], _LONG[:16] + " ", _LONG[:17]],
    "signed_zeros": ["-0", "0", "0.0", "-0.0", "0", "-0"],
    "numeric_group_spellings": ["2", "2.0", " 2", "0", "0e0", "-0"],
    "shared_suffixes": [w + _LONG[8:k] for k in (9, 16, 17, 25)
                        for w in ("abcdefgh", "ABCDEFGH", " bcdefgh", "abcdefgh")],
    # Cells that share their first and last words, with middle words
    # swapped (so that the xor of their words is the same) or changed.
    "shared_ends": [_LONG[:8] + m + _LONG[8:16] for m in
                    ("11111111" "22222222", "22222222" "11111111",
                     "11111111" "22222222", "11111111" "2222222X")]
                   + [_PAST_WORDS[:24] + m + _PAST_WORDS[:24] for m in
                      ("33333333" "44444444", "44444444" "33333333")],
    # Cells on both sides of the word keys' 64 bytes, some of which strip
    # to the same text across that line.
    "around_word_cells": [_PAST_WORDS[:k] for k in (63, 64, 65, 72, 130, 64, 65)]
                         + [" " + _PAST_WORDS[:64], _PAST_WORDS[:64] + "\t",
                            _PAST_WORDS[:64] + "é", "1", "1" * 70],
    "past_word_cells": [_PAST_WORDS[:65], _PAST_WORDS[1:100], _PAST_WORDS[:65],
                        " " + _PAST_WORDS[:65], "9" * 65, "9" * 64 + "8",
                        "9" * 65],
}


@pytest.mark.parametrize("mix", [None, 0, 1])
@pytest.mark.parametrize("case", sorted(_CELL_CASES))
def test_loader_matches_loop_on_cell_bytes(case, mix, monkeypatch):
    """Also with a hash of a long cell's key that is its last word (mix
    0) or the xor of its words (mix 1), so that cells which differ in
    other words collide."""
    if mix is not None:
        monkeypatch.setattr(data_mod, "_MIX", np.uint64(mix))
    cells = _CELL_CASES[case]
    assert data_mod._split_quote_free(_cells_text(cells)) is not None
    assert_same_load(_cells_text(cells))
    # The same cells as groups, which may be numeric or categorical.
    text = _cells_text(cells).replace("sex,y,x,z", "x,y,sex,z", 1)
    assert_same_load(text)
    assert_same_load(text.replace("\n", "\r\n"))


def test_loader_matches_loop_on_nearly_distinct_numeric_column():
    rng = np.random.default_rng(3)
    values = rng.normal(size=400) * 10.0 ** rng.integers(-5, 6, 400)
    cells = [repr(v) for v in values.tolist()]
    cells[::50] = ["1"] * len(cells[::50])
    text = _cells_text(cells, [f"{v:.3f}" for v in values.tolist()])
    assert_same_load(text)
    d = _load_csv_text(text, SCHEMA)
    assert d.column_names == ("x", "z")


def test_one_long_cell_loads_in_memory_linear_in_the_text():
    """One 100 KB cell among thousands of short ones: no record is keyed
    to the length of its column's longest cell."""
    cells = [f"c{i % 5}" for i in range(3000)]
    cells[7] = "z" * 100_000
    text = _cells_text(cells, [str(i % 7) for i in range(3000)])
    assert data_mod._split_quote_free(text) is not None
    tracemalloc.start()
    try:
        d = _load_csv_text(text, SCHEMA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * len(text)
    assert d.column_names[5:] == ("x=" + cells[7], "z")
    assert_same_load(text)


def test_nul_text_goes_through_the_csv_reader():
    text = "sex,y,x\nM,1,a\nF,0,a\0\nM,0,b\n"
    assert data_mod._split_quote_free(text) is None
    assert_same_load(text)
    assert _load_csv_text(text, SCHEMA).column_names == ("x=a", "x=a\x00", "x=b")


# Quote-free cells, from tokens some of which csv keeps inside a cell
# where ``str.splitlines`` would end a line; a record ends in a newline,
# a lone carriage return or nothing (running into the next).
_CELL_TOKENS = ["0", "1", "2", "7", ".", "-", "_", "e", "nan", "inf", "a",
                "M", "é", " ", "\t", "\r", "\x0b", "\x1c", "\u2028"]
_quote_free_cell = st.one_of(
    st.sampled_from(["0", "1", " 1 ", "2.5", "-7", "1e3", "1_0", "M", "\tF\x0b"]),
    st.lists(st.sampled_from(_CELL_TOKENS), min_size=1, max_size=2).map("".join),
)
_quote_free_record = st.tuples(
    st.lists(_quote_free_cell, min_size=3, max_size=3),
    st.sampled_from(["\n", "\r\n", "\r", ""]),
)


@settings(max_examples=400, deadline=None)
@given(
    header=st.sampled_from(["sex,y,x", "y, sex ,a"]),
    end=st.sampled_from(["\n", "\r\n"]),
    records=st.lists(_quote_free_record, min_size=1, max_size=5),
    schema=st.sampled_from(
        [SCHEMA, Schema(group="sex", outcome="y", task=Task.REGRESSION)]
    ),
)
def test_loader_matches_loop_on_quote_free_text(header, end, records, schema):
    text = header + end + "".join(",".join(c) + e for c, e in records)
    assert_same_load(text, schema)


# Byte tokens for whole files: a byte-order mark, bytes that are not
# UTF-8 (alone or cutting a two-byte character short), NUL, carriage
# returns, quotes and separators, and cells that parse.
_BYTE_TOKENS = [b"\xef\xbb\xbf", b"\xff", b"\xc3", "é".encode(), "日".encode(),
                b"\x00", b"\r", b"\n", b"\r\n", b'"', b",", b" ", b"\t", b"\x0b",
                b"0", b"1", b"2.5", b"-0", b"nan", b"a", b"M", b"F"]
_clean_cell = st.sampled_from([b"0", b"1", b"0", b"1", b" 1 ", b"2.5", b"-0",
                               b"a", b"M", b"F\t", "é".encode()])
_byte_cell = st.one_of(
    _clean_cell, _clean_cell, _clean_cell,
    st.lists(st.sampled_from(_BYTE_TOKENS), max_size=3).map(b"".join),
)
_byte_record = st.tuples(
    st.integers(3, 4).flatmap(lambda k: st.lists(_byte_cell, min_size=k, max_size=k))
    | st.lists(_byte_cell, max_size=5),
    st.sampled_from([b"\n", b"\n", b"\r\n", b"\r", b""]),
).map(lambda record: b",".join(record[0]) + record[1])


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "d.csv"


@settings(max_examples=400, deadline=None)
@given(
    head=st.sampled_from([b"", b"\xef\xbb\xbf", b"sex,y,x\n", b"sex,y,x\n",
                          b"sex,y,x\r\n", b"\xef\xbb\xbfsex,y,x\n", b"y,sex,x,z\n"]),
    body=st.one_of(
        st.binary(max_size=40),
        st.lists(st.sampled_from(_BYTE_TOKENS), max_size=40).map(b"".join),
        st.lists(_byte_record, min_size=1, max_size=6).map(b"".join),
        st.lists(_byte_record, min_size=1, max_size=6).map(b"".join),
    ),
    schema=st.sampled_from(
        [SCHEMA, Schema(group="sex", outcome="y", task=Task.REGRESSION)]
    ),
)
def test_load_dataset_on_arbitrary_bytes(fuzz_path, head, body, schema):
    """Any file loads as the loop loads its text, or raises DataError."""
    fuzz_path.write_bytes(head + body)
    try:
        got = load_dataset(fuzz_path, schema)
    except DataError as exc:
        got = f"DataError: {exc}"
    try:
        text = (head + body).decode("utf-8-sig")
    except UnicodeDecodeError:
        assert got.startswith(f"DataError: cannot read dataset {fuzz_path}: ")
        return
    try:
        want = _outcome_of(loop_load_csv_text, text, schema, origin=str(fuzz_path))
    except OverflowError:
        # The loop cannot hold a group number past int64; see
        # test_numeric_group_keeps_numeric_order.
        assert not isinstance(got, str)
        return
    assert_same_outcome(got, want)


def test_loader_error_messages(chunk_rows):
    def error(text, schema=SCHEMA):
        with pytest.raises(DataError) as info:
            _load_csv_text(text, schema, origin="m.csv")
        return str(info.value)

    # Line numbers count CSV records, blank ones included.
    assert error("sex,y,age\nM,1,30\n\nF,0,\n") == "m.csv:4: missing value"
    assert error('sex,y,age\n"M\nX",1,30\nF,0,\n') == "m.csv:3: missing value"
    # The first defective record in file order is the one reported.
    assert error("sex,y,age\nM,1,\nF,0\n") == "m.csv:2: missing value"
    assert error("sex,y,age\nM,1\nF,0,\n") == "m.csv:2: expected 3 cells, got 2"
    assert error("sex,y,age\nM,1,30\nF,yes,25\n") == (
        "m.csv:3: non-numeric outcome value 'yes'"
    )
    assert error("sex,y,age\nM,1,30\n\n\nF,yes,25\n") == (
        "m.csv:5: non-numeric outcome value 'yes'"
    )
    schema = Schema(group="sex", outcome="y", task=Task.BINARY, score="s")
    assert error("sex,y,age,s\nM,1,30,0.5\nF,0,25,high\n", schema) == (
        "m.csv:3: non-numeric score value 'high'"
    )
    assert error("sex,y,age,s\nM,1,30,0.5\n\nF,0,25,high\n", schema) == (
        "m.csv:4: non-numeric score value 'high'"
    )


def test_non_finite_outcome_and_score_rejected_with_line_numbers(chunk_rows):
    regression = Schema(group="sex", outcome="y", task=Task.REGRESSION, score="s")

    def error(text, schema=regression):
        with pytest.raises(DataError) as info:
            _load_csv_text(text, schema, origin="m.csv")
        return str(info.value)

    assert error("sex,y,age,s\nM,1,30,0.5\n\nF,nan,25,0.5\n") == (
        "m.csv:4: non-finite outcome value 'nan'"
    )
    assert error("sex,y,age,s\nM,-inf,30,0.5\nF,inf,25,0.5\n") == (
        "m.csv:2: non-finite outcome value '-inf'"
    )
    assert error("sex,y,age,s\nM,1,30,0.5\nF,2,25, inf \n") == (
        "m.csv:3: non-finite score value 'inf'"
    )
    # A non-numeric cell is still reported before a non-finite one.
    assert error("sex,y,age,s\nM,nan,30,0.5\nF,x,25,0.5\n") == (
        "m.csv:3: non-numeric outcome value 'x'"
    )
    # For a binary task the non-finite test comes first, with the line.
    assert error("sex,y,age\nM,1,30\nF,nan,25\n", SCHEMA) == (
        "m.csv:3: non-finite outcome value 'nan'"
    )


def test_dataset_rejects_non_finite_outcome_and_score():
    for outcome, score in (([1.0, np.nan], None), ([1.0, np.inf], None),
                           ([1.0, 2.0], [0.5, np.nan]), ([1.0, 2.0], [-np.inf, 0.5])):
        with pytest.raises(DataError, match="non-finite"):
            Dataset(
                features=np.zeros((2, 1)),
                group=np.array([0, 1]),
                outcome=np.array(outcome),
                task=Task.REGRESSION,
                column_names=("x",),
                score=None if score is None else np.array(score),
            )


def test_numeric_column_follows_python_float():
    text = "sex,y,x,c\nM,1,1_000,b\nF,0, 1e3 ,B\nF,1,-0,é\nM,0,.5,a\n"
    d = _load_csv_text(text, SCHEMA)
    assert d.column_names == ("x", "c=B", "c=a", "c=b", "c=é")
    assert d.features[:, 0].tolist() == [1000.0, 1000.0, -0.0, 0.5]
    with pytest.raises(DataError, match="non-finite feature value"):
        _load_csv_text("sex,y,x\nM,1,nan\nF,0,1\n", SCHEMA)


def test_non_finite_feature_names_line_and_column(chunk_rows):
    def error(text, schema=SCHEMA):
        with pytest.raises(DataError) as info:
            _load_csv_text(text, schema, origin="m.csv")
        return str(info.value)

    # The first record with a non-finite cell, its leftmost such column.
    assert error("sex,y,a,b\nM,1,1,2\n\nF,0,3, inf \nM,1,nan,-inf\n") == (
        "m.csv:4: non-finite feature value 'inf' in column 'b'"
    )
    assert error("sex,y,a,b\nM,1,1,2\nF,0,nan,-inf\n") == (
        "m.csv:3: non-finite feature value 'nan' in column 'a'"
    )
    # Outcome and score errors still come first.
    scored = Schema(group="sex", outcome="y", task=Task.BINARY, score="s")
    assert error("sex,y,a,s\nM,1,nan,0.5\nF,0,1,high\n", scored) == (
        "m.csv:3: non-numeric score value 'high'"
    )


def test_numeric_group_keeps_numeric_order():
    d = _load_csv_text("sex,y,x\n10,1,1\n0,0,2\n2,1,3\n10,0,4\n", SCHEMA)
    assert d.group_names == ("0", "2", "10")
    assert d.group.tolist() == [2, 0, 1, 2]
    d = _load_csv_text("sex,y,x\n-1,1,1\n0,0,2\n10,1,3\n", SCHEMA)
    assert d.group_names == ("-1", "0", "10")
    # Past the int64 range (the per-cell loader raised OverflowError here).
    d = _load_csv_text("sex,y,x\n1e20,1,1\n0,0,2\n", SCHEMA)
    assert d.group_names == ("0", "100000000000000000000")
    assert d.group.tolist() == [1, 0]


# ---------------------------------------------------------------------------
# Dataset.take


def _rebuilt(d, idx):
    return Dataset(
        features=d.features[idx],
        group=d.group[idx],
        outcome=d.outcome[idx],
        task=d.task,
        column_names=d.column_names,
        group_names=d.group_names,
        score=None if d.score is None else d.score[idx],
    )


def test_take_equals_dataset_built_from_the_same_rows():
    schema = Schema(group="g", outcome="y", task=Task.BINARY, score="s")
    text = "g,y,job,s\nb,1,x,0.9\na,0,y,0.2\nc,1,x,0.4\na,0,z,0.7\n"
    d = _load_csv_text(text, schema)
    rng = np.random.default_rng(0)
    for idx in ([2, 0, 1, 3], [3, 3, 0], rng.integers(0, 4, 50), [1]):
        sub = d.take(np.asarray(idx))
        assert_same_dataset(sub, _rebuilt(d, idx))
        # group_names carry over even when a group is absent from the subset.
        assert sub.group_names == ("a", "b", "c")
    reg = Dataset(
        features=np.arange(12.0).reshape(6, 2),
        group=np.array([0, 1, 0, 1, 0, 1]),
        outcome=np.linspace(-1.0, 1.0, 6),
        task=Task.REGRESSION,
        column_names=("u", "v"),
    )
    assert_same_dataset(reg.take([5, 0, 2]), _rebuilt(reg, [5, 0, 2]))
    assert reg.take([1, 3]).score is None


def test_take_rejects_empty_and_non_1d_indices(binary_dataset):
    with pytest.raises(DataError, match="no rows"):
        binary_dataset.take(np.array([], dtype=np.int64))
    with pytest.raises(DataError, match="no rows"):
        binary_dataset.take([])
    with pytest.raises(DataError, match="1-D"):
        binary_dataset.take(np.zeros((2, 2), dtype=np.int64))


@pytest.mark.parametrize(
    "permutation, message",
    [
        (lambda n: np.zeros(n, dtype=np.int64), "both train and test"),
        (lambda n: np.arange(n - 1), "lost or repeated rows"),
    ],
)
def test_split_invariants_raise_data_error(
    monkeypatch, binary_dataset, permutation, message
):
    class BrokenRng:
        def permutation(self, n):
            return permutation(n)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: BrokenRng())
    with pytest.raises(DataError, match=message):
        split(binary_dataset, 0.25, seed=0)
