import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fairaudit import AuditReport, emit_report
from fairaudit.cli import (
    COMMANDS, build_parser, parse_kinds, parse_learner, run_cli,
)
from fairaudit.costs import CostKind
from fairaudit.data import Schema, load_dataset
from fairaudit.errors import AnalysisError, ConfigError
from fairaudit.learners import LearnerKind
from fairaudit.report import write_curve_table


def run(args):
    return run_cli([str(a) for a in args])


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "d.csv"
    schema = root / "schema.txt"
    code = run(
        ["synth", "--seed", 1, "--synth-kind", "discrete", "--n", 500,
         "--data", data, "--out", root / "synth_out"]
    )
    assert code == 0
    schema.write_text("group=group\noutcome=outcome\ntask=binary\n")
    return data, schema, root


def test_report_json_deterministic_and_sorted(tmp_path):
    rep = AuditReport(config={"b": 1, "a": 2})
    rep.add("zeta", {"y": 1.0, "x": np.float64(2.0)})
    rep.add("alpha", [1, 2, 3])
    text1 = rep.to_json()
    text2 = AuditReport.from_json(text1).to_json()
    assert text1 == text2
    doc = json.loads(text1)
    assert list(doc) == sorted(doc)
    assert doc["results"]["zeta"]["x"] == 2.0


def test_report_rejects_non_finite():
    rep = AuditReport(config={})
    with pytest.raises(AnalysisError):
        rep.add("bad", {"v": float("nan")})


def test_report_numpy_scalars_become_plain_values():
    rep = AuditReport(config={})
    rep.add("block", {"reject": np.float64(0.01) < 0.05, "n": np.int64(3)})
    assert json.loads(rep.to_json())["results"]["block"] == {
        "reject": True, "n": 3,
    }


def test_report_tuple_keys_and_enums():
    rep = AuditReport(config={})
    rep.add("block", {(0, 1): CostKind.FPR})
    assert rep.results["block"] == {"0,1": "fpr"}


def test_emit_csv(tmp_path):
    rep = AuditReport(config={"seed": 1})
    rep.add("block", {"outer": {"inner": 2.0}, "arr": [1, 2]})
    rep.warn("careful")
    files = emit_report(rep, tmp_path, "csv")
    names = sorted(os.path.basename(f) for f in files)
    assert names == ["block.csv", "meta.csv"]
    text = (tmp_path / "block.csv").read_text()
    assert "outer.inner,2.0" in text
    assert "careful" in (tmp_path / "meta.csv").read_text()


def test_curve_table_header(tmp_path):
    path = tmp_path / "c.csv"
    write_curve_table(path, [[100, 0, "zero_one", 0.2, 0.01, 0.21]])
    lines = path.read_text().splitlines()
    assert lines[0] == "n,group,cost_kind,mean,stderr,fitted_value"


# Learner texts that name a kind but no usable model, or an option the
# learner does not read.
BAD_LEARNERS = [
    "knn:k=0", "tree:max_depth=0", "logistic:penalty=l3", "ridge:lam=nan",
    "bagged_trees:bootstrap=maybe", "knn:max_depth=3,n_trees=7",
    "logistic:k=9,n_trees=3", "ridge:penalty=l1", "tree:n_trees=3",
]
# Options no learner has: the solver's iteration cap and step size are
# not settable.
UNKNOWN_LEARNER_OPTIONS = [
    "logistic:epochs=0", "logistic:step_size=-1,penalty=l1",
    "logistic:step_size=inf,penalty=l1", "knn:epochs=7",
    "logistic:step_size=0.05", "logistic:penalty=l1,step_size=0.05",
]


def test_parse_learner():
    spec = parse_learner("bagged_trees:n_trees=7,max_depth=3,bootstrap=false")
    assert spec.kind is LearnerKind.BAGGED_TREES
    assert spec.n_trees == 7 and spec.max_depth == 3 and not spec.bootstrap
    with pytest.raises(ConfigError):
        parse_learner("boosted")
    assert parse_learner("bagged_trees:bootstrap=YES").bootstrap
    assert parse_learner("logistic:penalty=l1,lam=0.05").lam == 0.05
    with pytest.raises(ConfigError, match="does not read max_depth, n_trees; "
                       "it reads k$"):
        parse_learner("knn:max_depth=3,n_trees=7")
    for text in UNKNOWN_LEARNER_OPTIONS:
        key = "epochs" if "epochs" in text else "step_size"
        with pytest.raises(ConfigError,
                           match=f"^unknown learner option '{key}'$"):
            parse_learner(text)
    assert not parse_learner("bagged_trees:bootstrap=0").bootstrap
    for bad in ("knn:weird=1", "tree:max_depth=abc", "ridge:lam=x", "knn:k=2.5",
                "knn:seed=3", "tree:kind=knn", *BAD_LEARNERS):
        with pytest.raises(ConfigError):
            parse_learner(bad)
    assert parse_kinds("zero_one,fpr") == [CostKind.ZERO_ONE, CostKind.FPR]
    with pytest.raises(ConfigError):
        parse_kinds("nope")


def test_cli_exit_codes(tmp_path, synth_csv):
    data, schema, _ = synth_csv
    # missing seed -> config error
    assert run(["audit", "--data", data, "--schema", schema]) == 2
    # missing data file -> data error
    assert run(
        ["audit", "--seed", 1, "--data", tmp_path / "nope.csv",
         "--schema", schema, "--out", tmp_path]
    ) == 3
    # bad learner -> config error
    assert run(
        ["audit", "--seed", 1, "--data", data, "--schema", schema,
         "--learner", "nope", "--out", tmp_path]
    ) == 2


def test_cli_audit_outputs(tmp_path, synth_csv):
    data, schema, _ = synth_csv
    out = tmp_path / "audit"
    code = run(
        ["audit", "--seed", 3, "--data", data, "--schema", schema,
         "--learner", "tree:max_depth=3", "--kind", "zero_one,fnr",
         "--out", out]
    )
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert "group_costs.zero_one" in doc["results"]
    assert "group_costs.fnr" in doc["results"]
    assert doc["results"]["group_costs.zero_one"]["gap"] >= 0.0


@pytest.mark.parametrize("learner, task", [
    pytest.param("tree:max_depth=100000", "binary",
                 id="tree:max_depth=100000"),
    pytest.param("bagged_trees:max_depth=100000,bootstrap=false,n_trees=2",
                 "binary",
                 id="bagged_trees:max_depth=100000,bootstrap=false,n_trees=2"),
    pytest.param("tree:max_depth=100000", "regression",
                 id="tree:max_depth=100000-regression"),
])
def test_cli_audit_grows_trees_deeper_than_the_recursion_limit(tmp_path, learner,
                                                               task):
    # 1 500 distinct x values, 10 rows each, labelled by the parity of x (0
    # or 1, or 0.5 or 1.5 for regression): a tree that separates them peels
    # about one value per level, some 1 500 levels deep, past Python's
    # default recursion limit of 1 000.
    data, schema = tmp_path / "deep.csv", tmp_path / "schema.txt"
    x = np.repeat(np.arange(1500), 10).tolist()
    offset = 0.5 if task == "regression" else 0
    data.write_text("x,group,outcome\n" + "".join(
        f"{v},{row % 2},{v % 2 + offset}\n" for row, v in enumerate(x)))
    schema.write_text(f"group=group\noutcome=outcome\ntask={task}\n")
    kind = ["--kind", "mse"] if task == "regression" else []
    assert run(["audit", "--seed", 1, "--data", data, "--schema", schema,
                "--learner", learner, *kind, "--out", tmp_path / "out"]) == 0


def test_cli_config_file_flag_precedence(tmp_path, synth_csv):
    data, schema, _ = synth_csv
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "seed=5\nkind=fnr\nlearner=tree:max_depth=2\ntest-fraction=0.3\n"
    )
    out1 = tmp_path / "o1"
    assert run(
        ["audit", "--config", cfg, "--data", data, "--schema", schema,
         "--out", out1]
    ) == 0
    doc = json.loads((out1 / "report.json").read_text())
    assert doc["config"]["seed"] == 5
    assert "group_costs.fnr" in doc["results"]
    # the same run from flags writes the same bytes
    out_flags = tmp_path / "o_flags"
    assert run(
        ["audit", "--seed", 5, "--kind", "fnr", "--learner", "tree:max_depth=2",
         "--test-fraction", 0.3, "--data", data, "--schema", schema,
         "--out", out_flags]
    ) == 0
    assert (out_flags / "report.json").read_bytes() == (
        out1 / "report.json"
    ).read_bytes()
    # explicit flag beats the config file
    out2 = tmp_path / "o2"
    assert run(
        ["audit", "--config", cfg, "--data", data, "--schema", schema,
         "--kind", "zero_one", "--out", out2]
    ) == 0
    doc2 = json.loads((out2 / "report.json").read_text())
    assert "group_costs.zero_one" in doc2["results"]
    # unknown config key -> config error
    cfg.write_text("seed=5\nbogus=1\n")
    assert run(
        ["audit", "--config", cfg, "--data", data, "--schema", schema,
         "--out", tmp_path / "o3"]
    ) == 2


def test_cli_decompose_synth(tmp_path):
    out = tmp_path / "dec"
    code = run(
        ["decompose", "--seed", 4, "--t-models", 6, "--n-train", 150,
         "--eval-size", 200, "--learner", "tree:max_depth=2", "--out", out]
    )
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    block = doc["results"]["decomposition"]["0"]
    assert block["mode"] == "known"
    total = block["noise"] + block["bias"] + block["variance"]
    assert abs(block["cost"] - total) < 1e-12


@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_seed_must_lie_in_the_32_bit_range(tmp_path, capsys, source):
    # Every derived seed reads the master seed modulo 2^32, so a seed
    # outside [0, 2^32) would repeat the run of one inside it.
    argv = ["decompose", "--learner", "tree:max_depth=1", "--t-models", 2,
            "--n-train", 20, "--eval-size", 20]
    for seed, code in ((-3, 2), (2**32, 2), (2**32 - 1, 0)):
        out = tmp_path / str(seed)
        if source == "flag":
            given = ["--seed", seed]
        else:
            config = tmp_path / f"{seed}.cfg"
            config.write_text(f"seed={seed}\n")
            given = ["--config", config]
        assert run([*argv, *given, "--out", out]) == code
        err = capsys.readouterr().err
        if code:
            assert f"--seed: must be in [0, 2**32), got '{seed}'" in err
            assert not (out / "report.json").exists()
        else:
            doc = json.loads((out / "report.json").read_text())
            assert doc["config"]["seed"] == seed


def test_cli_curves_writes_plot_table(tmp_path, synth_csv):
    data, schema, _ = synth_csv
    out = tmp_path / "curves"
    code = run(
        ["curves", "--seed", 6, "--data", data, "--schema", schema,
         "--learner", "tree:max_depth=2", "--grid", "40,80,160",
         "--trials", 2, "--out", out]
    )
    assert code == 0
    lines = (out / "curve_data.csv").read_text().splitlines()
    assert lines[0] == "n,group,cost_kind,mean,stderr,fitted_value"
    assert len(lines) == 1 + 3 * 2  # sizes x groups
    doc = json.loads((out / "report.json").read_text())
    assert "power_law_fits" in doc["results"]
    assert "gamma_extrapolations" in doc["results"]
    # Two fitted groups, yet no warning: the asymptotic gap is reported
    # without an extrapolation warning that every fit would raise.
    assert doc["warnings"] == []


def test_cli_noise_and_test_subcommands(tmp_path, synth_csv):
    data, schema, _ = synth_csv
    out = tmp_path / "noise"
    assert run(
        ["noise", "--seed", 7, "--data", data, "--schema", schema, "--out", out]
    ) == 0
    doc = json.loads((out / "report.json").read_text())
    assert "nearest_neighbor.group0" in doc["results"]["noise_bounds"]
    out2 = tmp_path / "test"
    assert run(
        ["test", "--seed", 8, "--data", data, "--schema", schema,
         "--learner", "knn", "--reps", 150, "--out", out2]
    ) == 0
    doc2 = json.loads((out2 / "report.json").read_text())
    assert "gamma_z_test" in doc2["results"]
    ci = doc2["results"]["bootstrap_gamma_ci"]
    assert ci["low"] <= ci["high"]


@pytest.mark.parametrize(
    "flags", [["--kind", "bogus"], *(
        ["--learner", bad] for bad in (*BAD_LEARNERS, *UNKNOWN_LEARNER_OPTIONS)
    )],
    ids="=".join,
)
def test_cli_rejects_bad_learner_or_kind_before_training(
    tmp_path, synth_csv, capsys, monkeypatch, flags
):
    data, schema, _ = synth_csv
    monkeypatch.setattr("fairaudit.cli.train", None)  # any training fails
    out = tmp_path / "test"
    assert run(
        ["test", "--seed", 8, "--data", data, "--schema", schema,
         "--reps", 100, "--out", out, *flags]
    ) == 2
    assert "fairaudit: config error: argument " in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "flags", [["--k", 0], ["--k", -3], ["--folds", 1], ["--folds", 0]]
)
def test_cli_noise_rejects_bad_k_and_folds(tmp_path, synth_csv, flags):
    data, schema, _ = synth_csv
    out = tmp_path / "noise"
    assert run(
        ["noise", "--seed", 7, "--data", data, "--schema", schema,
         "--out", out, *flags]
    ) == 2
    assert not (out / "report.json").exists()


def test_cli_noise_k_above_the_rows_a_fold_trains_on_is_an_analysis_error(
    tmp_path, synth_csv, capsys
):
    # Six rows in 5 folds: the fold of two rows votes from the other four.
    data, schema, _ = synth_csv
    argv = ["noise", "--seed", 7, "--data", data, "--schema", schema,
            "--max-nn-samples", 6]
    assert run([*argv, "--k", 4, "--out", tmp_path / "ok"]) == 0
    for k in (5, 50):
        out = tmp_path / f"k{k}"
        assert run([*argv, "--k", k, "--out", out]) == 4
        assert (
            f"fairaudit: analysis error: group 0: k={k} exceeds the 4 rows a "
            "fold trains on (6 rows used, 5 folds)"
        ) in capsys.readouterr().err
        assert not (out / "report.json").exists()


@pytest.mark.parametrize("big", [1e308, 1e200])
@pytest.mark.parametrize("command", [["audit", "--learner", "knn:k=5"], ["noise"]],
                         ids=["audit_knn", "noise"])
def test_cli_column_too_large_to_z_score_is_an_analysis_error(
    tmp_path, capsys, big, command
):
    # A column of about ±1e308 overflows its mean, one of about ±1e200 the
    # squares of its deviations; both k-NN and the noise bounds z-score
    # their features first, and must stop there.
    import warnings

    rng = np.random.default_rng(5)
    x = np.where(rng.random(200) < 0.5, big, -big) * rng.uniform(0.5, 1.0, 200)
    data, schema = tmp_path / "big.csv", tmp_path / "schema.txt"
    data.write_text("x,w,group,outcome\n" + "".join(
        f"{float(v)!r},{rng.normal():.3f},{i % 2},{int(rng.random() < 0.5)}\n"
        for i, v in enumerate(x)))
    schema.write_text("group=group\noutcome=outcome\ntask=binary\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([*command, "--seed", 1, "--data", data, "--schema", schema,
                    "--out", out])
    err = capsys.readouterr().err
    assert code == 4, err
    assert ("fairaudit: analysis error: cannot z-score feature column 0 "
            "(0-based): its mean or standard deviation overflows") in err
    assert "Traceback" not in err
    assert [str(w.message) for w in caught] == []
    assert not (out / "report.json").exists()


def test_cli_knn_k_above_the_training_rows_is_an_analysis_error(
    tmp_path, synth_csv, capsys
):
    # audit holds out 100 of the 500 rows and trains on 400; decompose
    # trains each model on --n-train synthetic rows.
    data, schema, _ = synth_csv
    audit = ["audit", "--seed", 3, "--data", data, "--schema", schema]
    decompose = ["decompose", "--seed", 3, "--synth-kind", "discrete",
                 "--n-train", 3, "--eval-size", 50]
    for argv, rows in ((audit, 400), (decompose, 3)):
        ok = tmp_path / f"{argv[0]}-ok"
        assert run([*argv, "--learner", f"knn:k={rows}", "--out", ok]) == 0
        assert (ok / "report.json").exists()
        for k in (rows + 1, 500):
            out = tmp_path / f"{argv[0]}-k{k}"
            assert run([*argv, "--learner", f"knn:k={k}", "--out", out]) == 4
            assert (
                f"fairaudit: analysis error: k-NN: k={k} exceeds the {rows} "
                "training rows"
            ) in capsys.readouterr().err
            assert not (out / "report.json").exists()


def test_cli_noise_row_cap_below_folds_is_an_analysis_error(
    tmp_path, synth_csv, capsys
):
    # The fold count is checked against the rows left after the cap.  Six
    # rows in 5 folds train each fold on 4 or 5, enough for k = 4.
    data, schema, _ = synth_csv
    argv = ["noise", "--seed", 7, "--data", data, "--schema", schema]
    ok = ["--max-nn-samples", 6, "--k", 4, "--out", tmp_path / "ok"]
    assert run([*argv, *ok]) == 0
    out = tmp_path / "noise"
    assert run([*argv, "--max-nn-samples", 1, "--out", out]) == 4
    err = capsys.readouterr().err
    assert "fairaudit: analysis error: group 0 uses 1 of its " in err
    assert "needs >= 5 for 5-fold cross validation" in err
    assert not (out / "report.json").exists()


def test_cli_noise_rejects_bad_k_from_config(tmp_path, synth_csv):
    data, schema, _ = synth_csv
    config = tmp_path / "run.cfg"
    config.write_text("k=0\n")
    assert run(
        ["noise", "--seed", 7, "--data", data, "--schema", schema,
         "--config", config, "--out", tmp_path / "noise"]
    ) == 2


def test_cli_decompose_rejects_non_numeric_learner_option(tmp_path):
    assert run(
        ["decompose", "--seed", 1, "--learner", "tree:max_depth=abc",
         "--out", tmp_path / "dec"]
    ) == 2
    assert not (tmp_path / "dec" / "report.json").exists()


@pytest.mark.parametrize("line", ["seed=abc", "t_models=many", "threshold=high"])
def test_cli_rejects_non_numeric_config_value(tmp_path, line):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    argv = ["decompose", "--config", config, "--out", tmp_path / "dec"]
    if not line.startswith("seed"):
        argv += ["--seed", 1]
    assert run(argv) == 2


@pytest.mark.parametrize("level", [2, 1, 0, -0.1, "nan"])
def test_cli_rejects_level_outside_unit_interval(tmp_path, synth_csv, level):
    data, schema, _ = synth_csv
    out = tmp_path / "test"
    assert run(
        ["test", "--seed", 8, "--data", data, "--schema", schema,
         "--learner", "knn", "--reps", 50, "--level", level, "--out", out]
    ) == 2
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "flags",
    [["--t-models", 1], ["--t-models", 0], ["--n-train", -1],
     ["--eval-size", 0], ["--eval-size", -5]],
)
def test_cli_decompose_rejects_out_of_range_sizes(tmp_path, flags):
    out = tmp_path / "dec"
    assert run(
        ["decompose", "--seed", 4, "--learner", "tree:max_depth=2",
         "--t-models", 3, "--n-train", 50, "--eval-size", 40, *flags,
         "--out", out]
    ) == 2
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "argv",
    [["curves", "--grid", "100,abc"], ["curves", "--grid", ""],
     ["curves", "--grid", "0,100,200"], ["curves", "--trials", 0],
     ["test", "--reps", 5], ["curves", "--grid", "100,100,200"]],
)
def test_cli_rejects_bad_curve_and_test_options(tmp_path, synth_csv, capsys, argv):
    data, schema, _ = synth_csv
    out = tmp_path / "out"
    assert run(
        [*argv, "--seed", 6, "--data", data, "--schema", schema,
         "--learner", "tree:max_depth=2", "--out", out]
    ) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "report.json").exists()


# One out-of-range value per ranged option: (subcommand, option, value).
OUT_OF_RANGE = [
    ("test", "level", "1"),
    ("audit", "threshold", "2"),
    ("audit", "threshold", "nan"),
    ("audit", "test-fraction", "1.5"),
    ("decompose", "t-models", "1"),
    ("decompose", "n-train", "-1"),
    ("decompose", "eval-size", "0"),
    ("decompose", "sigma-eps", "0"),
    ("curves", "trials", "0"),
    ("curves", "grid", "100,100,200"),
    ("noise", "k", "0"),
    ("noise", "folds", "1"),
    ("noise", "max-nn-samples", "-5"),
    ("test", "reps", "99"),
    ("synth", "n", "0"),
    ("synth", "sigma-eps", "0"),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command,option,value", OUT_OF_RANGE)
def test_cli_rejects_out_of_range_option(
    tmp_path, synth_csv, capsys, source, command, option, value
):
    data, schema, _ = synth_csv
    out = tmp_path / "out"
    argv = [command, "--seed", 1, "--out", out]
    if command not in ("decompose", "synth"):  # synth would write --data
        argv += ["--data", data, "--schema", schema]
    if source == "flag":
        argv += [f"--{option}", value]
    else:
        config = tmp_path / "run.cfg"
        config.write_text(f"{option.replace('-', '_')}={value}\n")
        argv += ["--config", config]
    assert run(argv) == 2
    assert "fairaudit: config error: " in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "line",
    ["command=noise", "command=bogus", "config=x", "_explicit=1", "help=1",
     "format=xml", "synth-kind=binary", "homoskedastic=maybe"],
)
def test_cli_config_key_outside_the_subcommand_is_a_config_error(
    tmp_path, capsys, line
):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    out = tmp_path / "out"
    assert run(["synth", "--seed", 1, "--config", config, "--out", out]) == 2
    assert "fairaudit: config error: " in capsys.readouterr().err
    assert not (out / "report.json").exists()


# Options each subcommand ignores, and so rejects: (subcommand, option).
UNREAD = [
    *(("noise", o) for o in ("learner", "threshold", "test-fraction", "kind",
                             "level")),
    ("audit", "level"), ("decompose", "kind"), ("decompose", "level"),
    ("curves", "level"), ("curves", "test-fraction"), ("subgroups", "level"),
    *((c, o) for c in ("synth", "report", "prepare-adult")
      for o in ("schema", "kind", "threshold", "level", "learner",
                "test-fraction")),
]
VALID = {"schema": "s.txt", "kind": "zero_one", "threshold": "0.5",
         "level": "0.05", "learner": "knn", "test-fraction": "0.2"}


def _quick_argvs(tmp_path, synth_csv):
    """A small run of each subcommand but ``report``: its argv after
    --seed and --out."""
    data, schema, _ = synth_csv
    files = ["--data", data, "--schema", schema]
    tree = ["--learner", "tree:max_depth=1"]
    raw = tmp_path / "adult.data"
    raw.write_text(
        "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical, "
        "Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K\n"
    )
    return {
        "audit": [*files, *tree],
        "decompose": [*tree, "--t-models", 2, "--n-train", 20,
                      "--eval-size", 20],
        "curves": [*files, *tree, "--grid", "40,80", "--trials", 1],
        "noise": [*files, "--max-nn-samples", 50],
        "subgroups": [*files, *tree],
        "test": [*files, *tree, "--reps", 100],
        "synth": ["--n", 10],
        "prepare-adult": ["--data", raw, "--out-csv", tmp_path / "a.csv",
                          "--out-schema", tmp_path / "a.txt"],
    }


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command,option", UNREAD)
def test_cli_rejects_an_option_the_subcommand_does_not_read(
    tmp_path, synth_csv, capsys, source, command, option
):
    if command == "report":
        loaded = tmp_path / "in.json"
        loaded.write_text(AuditReport(config={}).to_json())
        argv = ["--data", loaded]
    else:
        argv = _quick_argvs(tmp_path, synth_csv)[command]
    out = tmp_path / "out"
    argv = [command, "--seed", 1, "--out", out, *argv]
    if source == "flag":
        argv += [f"--{option}", VALID[option]]
    else:
        config = tmp_path / "run.cfg"
        config.write_text(f"{option.replace('-', '_')}={VALID[option]}\n")
        argv += ["--config", config]
    assert run(argv) == 2
    assert "fairaudit: config error: " in capsys.readouterr().err
    assert not (out / "report.json").exists()


# The config echo of a run: exactly the inputs its subcommand read.
ECHO_KEYS = {
    "audit": "command data kind learner schema seed test_fraction threshold",
    "decompose": "command eval_size homoskedastic learner n_train seed "
                 "sigma_eps synth_kind t_models threshold",
    "curves": "command data grid kind learner schema seed threshold trials",
    "noise": "command data folds k max_nn_samples schema seed",
    "subgroups": "command data kind learner schema seed test_fraction "
                 "threshold",
    "test": "command data kind learner level reps schema seed test_fraction "
            "threshold",
    "synth": "command homoskedastic n seed sigma_eps synth_kind",
    "prepare-adult": "command data out_csv out_schema seed",
}


def test_cli_config_echo_lists_the_inputs_each_subcommand_reads(
    tmp_path, synth_csv
):
    for command, argv in _quick_argvs(tmp_path, synth_csv).items():
        out = tmp_path / command
        assert run([command, "--seed", 1, "--out", out, *argv]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert sorted(doc["config"]) == ECHO_KEYS[command].split(), command


# decompose reads the generator's options only without --data and the
# split's only with it: (the source, an option of the other one, a value;
# None for an on/off flag).
OTHER_SOURCE = [
    ("data", "synth-kind", "regression"), ("data", "sigma-eps", "5"),
    ("data", "homoskedastic", None), ("data", "eval-size", "7"),
    ("synthetic", "test-fraction", "0.3"), ("synthetic", "schema", "s.txt"),
]


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize("source,option,value", OTHER_SOURCE)
def test_cli_decompose_rejects_an_option_of_the_other_source(
    tmp_path, synth_csv, capsys, given, source, option, value
):
    data, schema, _ = synth_csv
    out = tmp_path / "dec"
    argv = ["decompose", "--seed", 1, "--learner", "tree:max_depth=1",
            "--t-models", 2, "--n-train", 20, "--out", out]
    if source == "data":
        argv += ["--data", data, "--schema", schema]
    if given == "flag":
        argv += [f"--{option}"] + ([] if value is None else [value])
    else:
        config = tmp_path / "run.cfg"
        config.write_text(f"{option}={'yes' if value is None else value}\n")
        argv += ["--config", config]
    assert run(argv) == 2
    side = "with" if source == "data" else "without"
    assert (f"fairaudit: config error: decompose {side} --data: "
            in capsys.readouterr().err)
    assert not (out / "report.json").exists()


def test_cli_decompose_echoes_the_options_of_its_source(tmp_path, synth_csv):
    # --data given in the config file picks the source as the flag does.
    data, schema, _ = synth_csv
    config = tmp_path / "run.cfg"
    config.write_text(f"data={data}\nschema={schema}\n")
    argv = ["decompose", "--seed", 1, "--config", config, "--learner",
            "tree:max_depth=1", "--t-models", 2, "--n-train", 20]
    out = tmp_path / "dec"
    assert run([*argv, "--out", out]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert sorted(doc["config"]) == (
        "command data learner n_train schema seed t_models test_fraction "
        "threshold".split()
    )
    assert run([*argv, "--eval-size", 7, "--out", tmp_path / "o"]) == 2


def test_cli_report_reemits_a_report_json_byte_for_byte(tmp_path, synth_csv):
    data, schema, _ = synth_csv
    first = tmp_path / "test"
    assert run(
        ["test", "--seed", 2, "--data", data, "--schema", schema,
         "--learner", "tree:max_depth=2", "--level", 0.01, "--reps", 100,
         "--out", first]
    ) == 0
    again = tmp_path / "again"
    assert run(
        ["report", "--seed", 1, "--data", first / "report.json", "--out", again]
    ) == 0
    assert (again / "report.json").read_bytes() == (
        first / "report.json"
    ).read_bytes()
    csv_out = tmp_path / "csv"
    assert run(
        ["report", "--seed", 1, "--data", first / "report.json",
         "--format", "csv", "--out", csv_out]
    ) == 0
    meta = (csv_out / "meta.csv").read_text().splitlines()
    assert "config.learner,tree:max_depth=2" in meta
    assert "config.level,0.01" in meta
    assert "config.seed,2" in meta


def test_cli_decompose_one_group_is_an_analysis_error(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("g,y,x\n" + "".join(
        f"0,{i % 2},{i % 7}\n" for i in range(60)
    ))
    schema = tmp_path / "s.txt"
    schema.write_text("group=g\noutcome=y\ntask=binary\n")
    out = tmp_path / "dec"
    assert run(
        ["decompose", "--seed", 1, "--data", data, "--schema", schema,
         "--learner", "tree:max_depth=1", "--t-models", 2, "--out", out]
    ) == 4
    assert "need at least 2 groups" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_cli_test_one_group_is_an_analysis_error(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("g,y,x\n" + "".join(
        f"0,{i % 2},{i % 7}\n" for i in range(60)
    ))
    schema = tmp_path / "s.txt"
    schema.write_text("group=g\noutcome=y\ntask=binary\n")
    out = tmp_path / "test"
    assert run(["test", "--seed", 1, "--data", data, "--schema", schema,
                "--learner", "logistic", "--reps", 100, "--out", out]) == 4
    assert "fewer than 2 groups have evaluation rows" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_cli_curves_gap_spans_all_groups(tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for i in range(600):
        g = i % 3
        x = rng.normal(size=2)
        noise = (0.2, 0.4, 0.05)[g]  # the middle group is the noisiest
        y = int((x[0] > 0) != (rng.random() < noise))
        rows.append(f"{g},{y},{x[0]},{x[1]}\n")
    data = tmp_path / "d.csv"
    data.write_text("g,y,x0,x1\n" + "".join(rows))
    schema = tmp_path / "s.txt"
    schema.write_text("group=g\noutcome=y\ntask=binary\n")
    out = tmp_path / "curves"
    assert run(
        ["curves", "--seed", 3, "--data", data, "--schema", schema,
         "--learner", "tree:max_depth=2", "--grid", "60,120,240",
         "--trials", 2, "--out", out]
    ) == 0
    doc = json.loads((out / "report.json").read_text())
    fits = [doc["results"]["power_law_fits"][f"zero_one.group{a}"]
            for a in range(3)]
    at_240 = [f["alpha"] * 240.0 ** -f["beta"] + f["delta"] for f in fits]
    deltas = [f["delta"] for f in fits]
    gap = doc["results"]["gamma_extrapolations"]["zero_one"]
    assert gap["at_max_n"] == pytest.approx(max(at_240) - min(at_240),
                                            abs=1e-12)
    assert gap["asymptotic"] == pytest.approx(max(deltas) - min(deltas),
                                              abs=1e-12)


def _rare_group_csv(tmp_path, n_groups, rare):
    """200 rows spread over groups 0..n_groups-1 other than ``rare``, and
    then 2 rows of ``rare``.  At --seed 2 the held-out split (20%) has no
    row of ``rare``."""
    rng = np.random.default_rng(0)
    common = [g for g in range(n_groups) if g != rare]
    rows = []
    for i in range(202):
        g = common[i % len(common)] if i < 200 else rare
        x = rng.normal(size=2)
        y = int(x[0] + 0.5 * g + rng.normal() > 0)
        rows.append(f"{g},{y},{x[0]:.4f},{x[1]:.4f}\n")
    data = tmp_path / "rare.csv"
    data.write_text("g,y,x0,x1\n" + "".join(rows))
    schema = tmp_path / "s.txt"
    schema.write_text("group=g\noutcome=y\ntask=binary\n")
    return data, schema


def test_cli_blocks_skip_a_top_group_missing_from_the_test_split(tmp_path):
    data, schema = _rare_group_csv(tmp_path, n_groups=3, rare=2)
    skipped = "group 2 skipped: group 2 has no rows in the evaluation set"
    assert run(["audit", "--seed", 2, "--data", data, "--schema", schema,
                "--learner", "logistic", "--kind", "zero_one,brier",
                "--out", tmp_path / "audit"]) == 0
    doc = json.loads((tmp_path / "audit" / "report.json").read_text())
    assert doc["warnings"] == [skipped]
    for kind in ("zero_one", "brier"):
        block = doc["results"][f"group_costs.{kind}"]
        assert block["groups"] == [0, 1]
        assert block["skipped_groups"] == [2]
    assert list(doc["results"]["brier_scores"]) == ["0", "1"]
    assert run(["decompose", "--seed", 2, "--data", data, "--schema", schema,
                "--learner", "tree:max_depth=2", "--t-models", 3,
                "--out", tmp_path / "dec"]) == 0
    doc = json.loads((tmp_path / "dec" / "report.json").read_text())
    assert list(doc["results"]["decomposition"]) == ["0", "1"]
    assert skipped in doc["warnings"]


def _rare_positive_group_csv(tmp_path):
    """400 rows of groups 0, 2 and 3, then 2 rows of group 1, both Y=1.
    At --seed 1 the held-out split (20%) has 1 row of group 1."""
    rng = np.random.default_rng(0)
    rows = []
    for i in range(402):
        g = (0, 2, 3)[i % 3] if i < 400 else 1
        x = rng.normal(size=2)
        y = int(x[0] + 0.3 * g + rng.normal() > 0) if i < 400 else 1
        rows.append(f"{g},{y},{x[0]:.4f},{x[1]:.4f}\n")
    data = tmp_path / "rare_pos.csv"
    data.write_text("g,y,x0,x1\n" + "".join(rows))
    schema = tmp_path / "s.txt"
    schema.write_text("group=g\noutcome=y\ntask=binary\n")
    return data, schema


@pytest.mark.parametrize("kind,reason", [
    ("fpr", "group 1 has no Y=0 rows; FPR undefined"),
    ("zero_one", "group 1 has 1 zero_one sample; a test needs at least 2"),
], ids=["fpr", "zero_one"])
def test_cli_test_skips_a_group_it_cannot_test(tmp_path, kind, reason):
    data, schema = _rare_positive_group_csv(tmp_path)
    files = ["--seed", 1, "--data", data, "--schema", schema,
             "--learner", "logistic", "--kind", kind]
    assert run(["audit", *files, "--out", tmp_path / "audit"]) == 0
    assert run(["test", *files, "--reps", 200,
                "--out", tmp_path / "test"]) == 0
    doc = json.loads((tmp_path / "test" / "report.json").read_text())
    assert f"group 1 skipped: {reason}" in doc["warnings"]
    results = doc["results"]
    assert results["gamma_z_test"]["detail"]["groups"] == [0, 2]
    assert len(results["anova_f"]["detail"]["group_counts"]) == 3
    assert sorted(results["pairwise_welch_holm"]) == ["0,2", "0,3", "2,3"]


@pytest.mark.parametrize("third", ["random", "label"])
def test_cli_test_reports_an_exact_gap_as_a_null_statistic(tmp_path, third):
    # Group 0's score is its label and group 1's the flipped label, so their
    # zero-one losses are all 0 and all 1: an exact gap, with no variance to
    # scale it, whose z and Welch t are -inf.  Group 2 scores at random, or
    # by its label, when no group's losses vary and the ANOVA F is inf too.
    rng = np.random.default_rng(0)
    rows = []
    for g in range(3):
        for i in range(40):
            y = i % 2
            score = (y, 1 - y, rng.uniform() if third == "random" else y)[g]
            rows.append(f"{g},{y},{rng.normal():.4f},{score}\n")
    data = tmp_path / "exact.csv"
    data.write_text("g,y,x,score\n" + "".join(rows))
    schema = tmp_path / "s.txt"
    schema.write_text("group=g\noutcome=y\ntask=binary\nscore=score\n")
    files = ["--seed", 0, "--data", data, "--schema", schema]
    assert run(["audit", *files, "--out", tmp_path / "audit"]) == 0
    assert run(["test", *files, "--reps", 200, "--out", tmp_path / "test"]) == 0
    doc = json.loads((tmp_path / "test" / "report.json").read_text())
    results = doc["results"]
    pairwise = results["pairwise_welch_holm"]
    exact = [results["gamma_z_test"], pairwise["0,1"]]
    if third == "label":
        exact += [results["anova_f"], pairwise["1,2"]]
        assert pairwise["0,2"]["statistic"] == 0.0
    else:
        assert results["anova_f"]["statistic"] > 0.0
        assert pairwise["0,2"]["statistic"] < 0.0
    for result in exact:
        assert result["statistic"] is None
        assert result["p_value"] == 0.0 and result["reject"] is True
        assert any(w.startswith(f"{result['name']}: statistic ")
                   and w.endswith(" from samples without variance, "
                                  "reported as null")
                   for w in doc["warnings"])


def _audit_raw_scale_features(tmp_path, learner):
    # Adult-shaped raw columns: capital_gain reaches about 1e5.  A fit
    # that diverges can predict one class for everyone, so that FNR is 1
    # and FPR 0 in every group, or the reverse, or err on more rows than a
    # coin would.
    rng = np.random.default_rng(5)
    n = 1500
    male = rng.random(n) < 0.67
    age = np.clip(np.rint(rng.normal(38.5, 13.6, n)), 17, 90)
    edu = np.clip(np.rint(rng.normal(10.1, 2.6, n)), 1, 16)
    hours = np.clip(np.rint(rng.normal(40.4, 12.3, n)), 1, 99)
    gain = np.where(rng.random(n) < 0.08,
                    np.rint(np.exp(rng.uniform(6.0, 11.5, n))), 0)
    logit = (-1.6 + 0.03 * (age - 38) + 0.3 * (edu - 10) + 0.6 * male
             + 0.03 * (hours - 40) + 1.5 * (gain > 0))
    income = rng.random(n) < 1.0 / (1.0 + np.exp(-logit))
    data = tmp_path / "adult.csv"
    data.write_text("age,education_num,sex,capital_gain,hours,income\n" + "".join(
        f"{a:.0f},{e:.0f},{'Male' if m else 'Female'},{g:.0f},{h:.0f},{int(y)}\n"
        for a, e, m, g, h, y in zip(age, edu, male, gain, hours, income)
    ))
    schema = tmp_path / "s.txt"
    schema.write_text("group=sex\noutcome=income\ntask=binary\n")
    out = tmp_path / "audit"
    assert run(["audit", "--seed", 3, "--data", data, "--schema", schema,
                "--learner", learner, "--kind", "fnr,fpr,zero_one",
                "--out", out]) == 0
    results = json.loads((out / "report.json").read_text())["results"]
    for kind in ("fnr", "fpr"):
        block = results[f"group_costs.{kind}"]
        assert block["groups"] == [0, 1]
        assert all(0.0 < cost < 1.0 for cost in block["costs"])
    assert all(cost < 0.5 for cost in results["group_costs.zero_one"]["costs"])


def test_cli_logistic_audit_fits_raw_scale_features(tmp_path):
    _audit_raw_scale_features(tmp_path, "logistic")


def test_cli_l1_logistic_audit_fits_raw_scale_features(tmp_path):
    _audit_raw_scale_features(tmp_path, "logistic:penalty=l1,lam=0.01")


def test_cli_test_pairwise_keys_name_group_ids(tmp_path):
    data, schema = _rare_group_csv(tmp_path, n_groups=4, rare=1)
    out = tmp_path / "test"
    assert run(["test", "--seed", 2, "--data", data, "--schema", schema,
                "--learner", "logistic", "--reps", 200, "--out", out]) == 0
    doc = json.loads((out / "report.json").read_text())
    results = doc["results"]
    assert "group 1 skipped: group 1 has no rows in the evaluation set" in (
        doc["warnings"]
    )
    assert results["gamma_z_test"]["detail"]["groups"] == [0, 2]
    assert len(results["anova_f"]["detail"]["group_counts"]) == 3
    pairwise = results["pairwise_welch_holm"]
    assert sorted(pairwise) == ["0,2", "0,3", "2,3"]
    assert pairwise["0,3"]["name"] == "welch_holm[0,3]"


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "--kind", "fpr,zero_one"],
        ["subgroups", "--kind", "zero_one,fpr"],
        ["subgroups", "--kind", "fpr", "--topics", "no_such_file.csv"],
    ],
    ids=" ".join,
)
def test_cli_one_kind_commands_reject_other_kinds_before_training(
    tmp_path, synth_csv, capsys, monkeypatch, argv
):
    data, schema, _ = synth_csv
    monkeypatch.setattr("fairaudit.cli.train", None)  # any training fails
    out = tmp_path / "o"
    assert run([*argv, "--seed", 1, "--data", data, "--schema", schema,
                "--out", out]) == 2
    assert "fairaudit: config error: " in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.fixture(scope="module")
def regression_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("regression")
    data, schema = root / "r.csv", root / "schema.txt"
    assert run(["synth", "--seed", 1, "--synth-kind", "regression", "--n", 300,
                "--data", data, "--out", root / "synth_out"]) == 0
    schema.write_text("group=group\noutcome=outcome\ntask=regression\n")
    return data, schema


@pytest.mark.parametrize("task,kind", [("binary", "mse"),
                                       ("regression", "zero_one")])
@pytest.mark.parametrize("command", [
    ["audit"], ["test"], ["subgroups"],
    ["curves", "--grid", "20,40,80", "--trials", 1],
], ids=lambda argv: argv[0])
def test_cli_inapplicable_kind_is_one_analysis_error(
    tmp_path, synth_csv, regression_csv, capsys, command, task, kind
):
    # Every group-level analysis decides with ``costs.group_losses`` which
    # kinds apply; curves and subgroups once exited 0 with empty blocks.
    import warnings

    data, schema = synth_csv[:2] if task == "binary" else regression_csv
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([*command, "--seed", 1, "--data", data, "--schema", schema,
                    "--learner", "tree:max_depth=2", "--kind", kind,
                    "--out", out])
    err = capsys.readouterr().err
    assert code == 4, err
    assert err == (f"fairaudit: analysis error: cost kind {kind} requires a "
                   f"{'regression' if kind == 'mse' else 'binary'} task\n")
    assert [str(w.message) for w in caught] == []
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("seed", [2, 11])
def test_cli_knn_query_row_too_far_to_measure_is_an_analysis_error(
    tmp_path, capsys, seed
):
    # One raw 1e160 among standard normals: in a training row it stops the
    # z-scoring; in a test row (as these seeds split it) its squared
    # distances overflow, and its neighbours would be arbitrary.
    import warnings

    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 3))
    x[37, 1] = 1e160
    data, schema = tmp_path / "far.csv", tmp_path / "schema.txt"
    data.write_text("a,b,c,group,outcome\n" + "".join(
        f"{row[0]!r},{row[1]!r},{row[2]!r},{i % 2},{int(rng.random() < 0.5)}\n"
        for i, row in enumerate(x.tolist())))
    schema.write_text("group=group\noutcome=outcome\ntask=binary\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["audit", "--seed", seed, "--learner", "knn:k=5",
                    "--data", data, "--schema", schema, "--out", out])
    err = capsys.readouterr().err
    assert code == 4, err
    assert err == (
        "fairaudit: analysis error: k-NN: a query row's feature column 1 "
        "(0-based) lies so far from the training rows that its squared "
        "distances overflow\n"
    )
    assert [str(w.message) for w in caught] == []
    assert not (out / "report.json").exists()


def test_cli_non_finite_feature_names_its_line_and_column(tmp_path, capsys):
    data = tmp_path / "f.csv"
    data.write_text("g,y,x,z\n0,1,1,2\n1,0,2,3\n0,1,inf,4\n1,0,3,5\n")
    schema = tmp_path / "s.txt"
    schema.write_text("group=g\noutcome=y\ntask=binary\n")
    assert run(["audit", "--seed", 0, "--data", data, "--schema", schema,
                "--out", tmp_path / "o"]) == 3
    assert ("f.csv:4: non-finite feature value 'inf' in column 'x'"
            in capsys.readouterr().err)


@pytest.mark.parametrize(
    "text, message",
    [
        # A carriage return inside an unquoted record.
        ("g,y,x\n0,1,1\r5\n1,0,2\n0,1,3\n",
         "d.csv:2: unreadable record: new-line character seen in unquoted field"),
        # A cell over csv.field_size_limit() characters.
        ("g,y,x\n0,1,1\n1,0," + "7" * 131_073 + "\n0,1,3\n",
         "d.csv:3: unreadable record: field larger than field limit"),
    ],
    ids=["lone_cr", "field_limit"],
)
def test_cli_unreadable_csv_record_is_a_data_error(tmp_path, capsys, text, message):
    data = tmp_path / "d.csv"
    data.write_bytes(text.encode())
    schema = tmp_path / "s.txt"
    schema.write_text("group=g\noutcome=y\ntask=binary\n")
    assert run(["audit", "--seed", 0, "--data", data, "--schema", schema,
                "--out", tmp_path / "o"]) == 3
    err = capsys.readouterr().err
    assert "fairaudit: data error: " in err and message in err


def test_cli_ragged_topics_file_is_a_data_error(tmp_path, synth_csv, capsys):
    data, schema, _ = synth_csv
    topics = tmp_path / "q.csv"
    topics.write_text("q_0,q_1\n0.5,0.5\n1.0\n0.0,1.0\n")
    assert run(["subgroups", "--seed", 9, "--data", data, "--schema", schema,
                "--learner", "knn", "--topics", topics,
                "--out", tmp_path / "o"]) == 3
    err = capsys.readouterr().err
    assert "fairaudit: data error: " in err
    assert "q.csv:3: expected 2 cells, got 1" in err


def test_cli_non_finite_topics_cell_is_a_data_error(tmp_path, synth_csv, capsys):
    # The evaluation split holds 100 of the 500 rows.  Before the check, the
    # nan row reached the analysis and the run ended with exit 4 on a
    # non-finite report value.
    data, schema, _ = synth_csv
    args = ["subgroups", "--seed", 9, "--data", data, "--schema", schema,
            "--learner", "knn"]
    topics = tmp_path / "q.csv"
    topics.write_text("q_0,q_1\n" + "0.5,0.5\n" * 100)
    assert run(args + ["--topics", topics, "--out", tmp_path / "ok"]) == 0
    topics.write_text("q_0,q_1\nnan,1.0\n" + "0.5,0.5\n" * 99)
    assert run(args + ["--topics", topics, "--out", tmp_path / "o"]) == 3
    err = capsys.readouterr().err
    assert "fairaudit: data error: " in err
    assert "q.csv:2: non-finite membership value 'nan'" in err



@pytest.mark.parametrize("text,message", [
    # A topics file is a CSV table under the dataset rules and messages.
    ("q_0,q_1\n0.5,\n", "q.csv:2: missing value"),
    ("q_0,q_1\n0.5,0.5\nx,1\n", "q.csv:3: non-numeric membership value 'x'"),
    ("q_0,q_1\n", "q.csv: no data rows"),
    ("", "q.csv: empty file"),
    ("\ufeff", "q.csv: empty file"),
    ("q_0,q_0\n0.5,0.5\n", "q.csv: duplicate column names in header"),
    ('q_0,q_1\n"0.5,0.5\n', "q.csv:2: expected 2 cells, got 1"),
    ("\n0.5,0.5\n", "q.csv:2: expected 0 cells, got 2"),
])
def test_cli_topics_file_follows_the_dataset_csv_rules(
    tmp_path, synth_csv, capsys, text, message
):
    data, schema, _ = synth_csv
    topics = tmp_path / "q.csv"
    topics.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    assert run(["subgroups", "--seed", 9, "--data", data, "--schema", schema,
                "--learner", "knn", "--topics", topics, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("fairaudit: data error: ") and message in err, err
    assert not out.exists()


def test_cli_topics_file_reads_a_bom_quotes_and_crlf_as_plain_text(
    tmp_path, synth_csv
):
    # The evaluation split holds 100 of the 500 rows.
    data, schema, _ = synth_csv
    args = ["subgroups", "--seed", 9, "--data", data, "--schema", schema,
            "--learner", "knn"]
    rows = [(i % 5 / 4, 1 - i % 5 / 4) for i in range(100)]
    plain = tmp_path / "plain.csv"
    plain.write_text("q_0,q_1\n" + "".join(f"{a},{b}\n" for a, b in rows))
    other = tmp_path / "other.csv"
    other.write_bytes(("\ufeff\"q_0\", q_1\r\n\r\n" + "\r\n".join(
        f'"{a}", {b}' for a, b in rows)).encode())
    for path in (plain, other):
        assert run(args + ["--topics", path, "--out", tmp_path / path.stem]) == 0
    assert (tmp_path / "other" / "report.json").read_bytes() == (
        tmp_path / "plain" / "report.json").read_bytes().replace(
        b"plain.csv", b"other.csv")


def test_cli_on_off_flag_from_config(tmp_path):
    config = tmp_path / "run.cfg"
    for text, expected in [("yes", True), ("False", False)]:
        config.write_text(f"synth_kind=regression\nhomoskedastic={text}\n")
        out = tmp_path / text
        assert run(["synth", "--seed", 1, "--config", config, "--out", out]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["config"]["homoskedastic"] is expected


def _grid_ok(text):
    sizes = [int(x) for x in text.split(",") if x.strip()]
    return bool(sizes) and min(sizes) >= 1 and len(set(sizes)) == len(sizes)


# Each ranged option's valid values, written independently of the parser.
RANGES = {
    ("audit", "--seed"): lambda v: type(v) is int and 0 <= v < 2**32,
    ("test", "--level"): lambda v: type(v) is float and 0 < v < 1,
    ("audit", "--threshold"): lambda v: type(v) is float and 0 <= v <= 1,
    ("audit", "--test-fraction"): lambda v: type(v) is float and 0 < v < 1,
    ("decompose", "--t-models"): lambda v: type(v) is int and v >= 2,
    ("decompose", "--n-train"): lambda v: type(v) is int and v >= 0,
    ("decompose", "--eval-size"): lambda v: type(v) is int and v >= 1,
    ("decompose", "--sigma-eps"): lambda v: type(v) is float and 0 < v < np.inf,
    ("curves", "--trials"): lambda v: type(v) is int and v >= 1,
    ("curves", "--grid"): lambda v: type(v) is str and _grid_ok(v),
    ("noise", "--k"): lambda v: type(v) is int and v >= 1,
    ("noise", "--folds"): lambda v: type(v) is int and v >= 2,
    ("noise", "--max-nn-samples"): lambda v: type(v) is int and v >= 0,
    ("test", "--reps"): lambda v: type(v) is int and v >= 100,
    ("synth", "--n"): lambda v: type(v) is int and v >= 1,
    ("synth", "--sigma-eps"): lambda v: type(v) is float and 0 < v < np.inf,
}

_option_text = st.one_of(
    st.text(max_size=12),
    st.integers(-1000, 1000).map(str),
    st.floats().map(repr),
    st.lists(st.integers(-5, 500).map(str), max_size=4).map(",".join),
)


@settings(max_examples=400, deadline=None)
@given(option=st.sampled_from(sorted(RANGES)), text=_option_text)
def test_ranged_option_parses_in_range_or_raises_config_error(option, text):
    command, flag = option
    try:
        args = build_parser().parse_args([command, f"{flag}={text}"])
    except ConfigError:
        return
    assert RANGES[option](getattr(args, flag[2:].replace("-", "_")))


def test_cli_subgroups_with_topics(tmp_path, synth_csv):
    data, schema, _ = synth_csv
    # build a membership file matching the evaluation split size
    out = tmp_path / "sub"
    assert run(
        ["subgroups", "--seed", 9, "--data", data, "--schema", schema,
         "--learner", "knn", "--out", out]
    ) == 0
    doc = json.loads((out / "report.json").read_text())
    assert "feature_threshold_clusters" in doc["results"]


@pytest.mark.parametrize("rows", [
    # Group 1 has no Y=0 rows, so no cluster has an fpr gap across groups.
    ["1,1,{},{}".format(i % 7, i * 3 % 11) if i % 2 else
     "0,{},{},{}".format(i // 2 % 2, i % 7, i * 3 % 11) for i in range(60)],
    # The 1-row test split holds one group.
    ["{},{},{},{}".format(i % 2, int(i % 3 == 0), i % 7, i * 3 % 11)
     for i in range(6)],
], ids=["one_group_has_fpr", "one_test_row"])
def test_cli_subgroups_without_a_cross_group_cluster_is_an_analysis_error(
    tmp_path, capsys, rows
):
    import warnings

    data = tmp_path / "d.csv"
    data.write_text("g,y,a,b\n" + "\n".join(rows) + "\n")
    schema = tmp_path / "s.txt"
    schema.write_text("group=g\noutcome=y\ntask=binary\n")
    out = tmp_path / "sub"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["subgroups", "--seed", 1, "--data", data, "--schema",
                    schema, "--kind", "fpr", "--learner", "logistic",
                    "--out", out])
    assert code == 4
    assert capsys.readouterr().err == (
        "fairaudit: analysis error: no feature splits the evaluation rows "
        "into a cluster with fpr costs in 2 groups\n"
    )
    assert [str(w.message) for w in caught] == []
    assert not (out / "report.json").exists()


def test_cli_report_reemission(tmp_path, synth_csv):
    data, schema, _ = synth_csv
    out = tmp_path / "a"
    assert run(
        ["audit", "--seed", 10, "--data", data, "--schema", schema,
         "--learner", "tree:max_depth=2", "--out", out]
    ) == 0
    out2 = tmp_path / "b"
    assert run(
        ["report", "--seed", 10, "--data", out / "report.json",
         "--format", "csv", "--out", out2]
    ) == 0
    assert (out2 / "meta.csv").exists()


def _config_file(tmp_path):
    """A synth config file setting sigma-eps=0.9; also a plain file to put
    --out under."""
    path = tmp_path / "c.cfg"
    path.write_text("sigma-eps=0.9\n")
    return path


def test_cli_synth_unwritable_data_path_is_a_data_error(tmp_path, capsys):
    code = run(["synth", "--seed", 0, "--data", tmp_path / "no_dir" / "d.csv",
                "--out", tmp_path / "o"])
    assert code == 3
    assert "cannot write dataset" in capsys.readouterr().err


def test_cli_report_under_a_file_is_a_data_error(tmp_path, capsys):
    out = _config_file(tmp_path) / "sub"
    assert run(["synth", "--seed", 0, "--out", out]) == 3
    assert "cannot write report" in capsys.readouterr().err


def test_cli_curve_table_under_a_file_is_a_data_error(tmp_path, synth_csv, capsys):
    data, schema, _ = synth_csv
    out = _config_file(tmp_path) / "sub"
    code = run(
        ["curves", "--seed", 6, "--data", data, "--schema", schema,
         "--learner", "tree:max_depth=2", "--grid", "40,80",
         "--trials", 1, "--out", out]
    )
    assert code == 3
    assert "cannot write curve table" in capsys.readouterr().err


def test_cli_report_missing_input_is_a_data_error(tmp_path, capsys):
    code = run(["report", "--seed", 0, "--data", tmp_path / "nope.json",
                "--out", tmp_path / "o"])
    assert code == 3
    assert "cannot read report" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"results": "\xff"}')
    assert run(["report", "--seed", 0, "--data", bad, "--out", tmp_path / "o"]) == 3
    assert "cannot read report" in capsys.readouterr().err


@pytest.mark.parametrize("text,field", [
    ("[]", None), ("1", None), ('"x"', None), ("null", None),
    ('{"results": [1, 2]}', "results"), ('{"config": []}', "config"),
    ('{"warnings": {}}', "warnings"), ('{"errors": "e"}', "errors"),
    ('{"version": 1}', "version"), ('{"version": null}', "version"),
])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_report_of_a_malformed_document_is_a_data_error(
    tmp_path, capsys, text, field, fmt
):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "o"
    code = run(["report", "--seed", 1, "--data", bad, "--format", fmt,
                "--out", out])
    err = capsys.readouterr().err
    assert code == 3, err
    assert "Traceback" not in err
    assert err.startswith("fairaudit: data error: invalid report JSON: ")
    if field is not None:
        assert f"{field!r} is not " in err
    assert not out.exists()



@pytest.mark.parametrize("text", [
    '{"results": {"a": NaN}}', '{"results": {"a": Infinity}}',
    '{"results": {"a": {"b": [1, -Infinity]}}}', '{"results": {"a": 1e400}}',
    '{"config": {"x": -1e400}}', '{"version": "0.1.0", "warnings": [NaN]}',
])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_report_of_a_non_finite_number_is_a_data_error(
    tmp_path, capsys, text, fmt
):
    # ``json.loads`` takes NaN and Infinity, and reads 1e400 as inf; none of
    # them is JSON a report may hold.
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "o"
    code = run(["report", "--seed", 1, "--data", bad, "--format", fmt,
                "--out", out])
    err = capsys.readouterr().err
    assert code == 3, err
    assert "Traceback" not in err
    assert err.startswith(
        "fairaudit: data error: invalid report JSON: non-finite number ")
    assert not out.exists()


@pytest.mark.parametrize("name", ["../escaped", "a\u0000b", "", ".", "..",
                                  "a\\b", "/abs"])
def test_cli_report_csv_refuses_a_block_name_that_is_no_file_name(
    tmp_path, capsys, name
):
    source = tmp_path / "r.json"
    source.write_text(json.dumps({"results": {"ok": {"v": 1}, name: {"v": 1}}}))
    out = tmp_path / "o2" / "inner"
    code = run(["report", "--seed", 1, "--data", source, "--format", "csv",
                "--out", out])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err == (
        f"fairaudit: data error: report block name {name!r} is not a file name\n"
    )
    assert not (tmp_path / "o2").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]
    # In a JSON report the name is a key and no file name.
    assert run(["report", "--seed", 1, "--data", source, "--out", out]) == 0
    assert name in json.loads((out / "report.json").read_text())["results"]



def test_cli_report_csv_of_a_lone_surrogate_is_a_data_error(tmp_path, capsys):
    # JSON may escape a lone surrogate, which UTF-8 cannot encode; a JSON
    # report escapes it again, but a CSV cell would have to hold it.
    source = tmp_path / "r.json"
    source.write_text('{"results": {"a": {"v": "\\ud800"}}}')
    out = tmp_path / "o"
    code = run(["report", "--seed", 1, "--data", source, "--format", "csv",
                "--out", out])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith(
        f"fairaudit: data error: cannot write report table {out / 'a.csv'}: ")
    assert not (out / "a.csv").exists()
    assert run(["report", "--seed", 1, "--data", source, "--out", out]) == 0
    assert '"v": "\\ud800"' in (out / "report.json").read_text()


def test_cli_report_csv_that_cannot_be_written_leaves_nothing(tmp_path, capsys):
    # Block "a" encodes and block "b" does not: every table is encoded
    # before --out or any file is created, so "a.csv" is not left behind.
    source = tmp_path / "r.json"
    source.write_text('{"results": {"a": {"v": 1}, "b": {"v": "\\ud800"}}}')
    out = tmp_path / "o"
    code = run(["report", "--seed", 1, "--data", source, "--format", "csv",
                "--out", out])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith(
        f"fairaudit: data error: cannot write report table {out / 'b.csv'}: ")
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]


def test_cli_report_of_a_bom_prefixed_report_reemits_its_bytes(tmp_path):
    first = tmp_path / "first"
    assert run(["synth", "--seed", 3, "--n", 50, "--out", first]) == 0
    text = (first / "report.json").read_bytes()
    prefixed = tmp_path / "bom.json"
    prefixed.write_bytes(b"\xef\xbb\xbf" + text)
    for fmt in ("json", "csv"):
        assert run(["report", "--seed", 1, "--data", first / "report.json",
                    "--format", fmt, "--out", tmp_path / "plain" / fmt]) == 0
        assert run(["report", "--seed", 1, "--data", prefixed,
                    "--format", fmt, "--out", tmp_path / "bom" / fmt]) == 0
        for path in (tmp_path / "plain" / fmt).iterdir():
            assert (tmp_path / "bom" / fmt / path.name).read_bytes() == (
                path.read_bytes())
    assert (tmp_path / "bom" / "json" / "report.json").read_bytes() == text


def test_cli_non_utf8_dataset_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_bytes(b"g,y,x\n0,1,\xff\n1,0,2\n")
    schema = tmp_path / "s.txt"
    schema.write_text("group=g\noutcome=y\ntask=binary\n")
    code = run(["audit", "--seed", 0, "--data", data, "--schema", schema,
                "--out", tmp_path / "o"])
    assert code == 3
    assert "cannot read dataset" in capsys.readouterr().err


_ADULT_LINE = (
    "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical, "
    "Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K\n"
)


def test_cli_prepare_adult_non_utf8_raw_file_is_a_data_error(tmp_path, capsys):
    raw = tmp_path / "adult.data"
    raw.write_bytes(_ADULT_LINE.encode() + b"50, Priv\xe9, 1\n")
    code = run(["prepare-adult", "--seed", 0, "--data", raw,
                "--out-csv", tmp_path / "a.csv", "--out-schema", tmp_path / "a.txt",
                "--out", tmp_path / "o"])
    assert code == 3
    assert f"cannot read raw Adult file {raw}" in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()


def test_cli_prepare_adult_drops_a_byte_order_mark(tmp_path):
    # With the mark kept, the first row's age read as "\ufeff39" and the age
    # column loaded as one-hot columns.
    lines = _ADULT_LINE + _ADULT_LINE.replace("39,", "50,").replace(
        "Male", "Female").replace("<=50K", ">50K.")
    written = {}
    for name, head in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        raw = tmp_path / f"{name}.data"
        raw.write_bytes(head + lines.encode())
        out = tmp_path / name
        out.mkdir()
        assert run(["prepare-adult", "--seed", 0, "--data", raw,
                    "--out-csv", out / "a.csv", "--out-schema", out / "a.txt",
                    "--out", out / "o"]) == 0
        written[name] = [(out / f).read_bytes() for f in ("a.csv", "a.txt")]
    assert written["bom"] == written["plain"]
    d = load_dataset(tmp_path / "bom" / "a.csv",
                     Schema.from_file(tmp_path / "bom" / "a.txt"))
    assert "age" in d.column_names
    assert d.features[:, d.column_names.index("age")].tolist() == [39.0, 50.0]


@pytest.mark.parametrize("missing", ["out-csv", "out-schema"])
def test_cli_prepare_adult_output_under_a_missing_directory_is_a_data_error(
    tmp_path, capsys, missing
):
    raw = tmp_path / "adult.data"
    raw.write_text(_ADULT_LINE)
    paths = {"out-csv": tmp_path / "a.csv", "out-schema": tmp_path / "a.txt"}
    paths[missing] = tmp_path / "no_dir" / paths[missing].name
    code = run(["prepare-adult", "--seed", 0, "--data", raw,
                "--out-csv", paths["out-csv"], "--out-schema", paths["out-schema"],
                "--out", tmp_path / "o"])
    assert code == 3
    what = {"out-csv": "dataset", "out-schema": "schema file"}[missing]
    assert f"cannot write {what} {paths[missing]}" in capsys.readouterr().err


def test_cli_rejects_abbreviated_flags(tmp_path, capsys):
    cfg = _config_file(tmp_path)
    code = run(["synth", "--seed", 0, "--config", cfg, "--sigma", 0.1,
                "--out", tmp_path / "o"])
    assert code == 2
    assert "unrecognized arguments: --sigma" in capsys.readouterr().err


def test_cli_full_flag_beats_config_file(tmp_path):
    cfg = _config_file(tmp_path)
    out = tmp_path / "o"
    assert run(["synth", "--seed", 0, "--config", cfg, "--sigma-eps", 0.1,
                "--out", out]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["config"]["sigma_eps"] == 0.1


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_cli_help_lists_the_options_of_its_subcommand(command, capsys):
    # Only the named subcommand gets its options declared; its help must
    # still list every one that the full declaration gives it.
    argv = ["--help"] if command is None else [command, "--help"]
    assert run_cli(argv) == 0
    text = capsys.readouterr().out
    if command is None:
        assert all(name in text for name in COMMANDS)
        return
    assert text.startswith(f"usage: fairaudit {command} ")
    full = build_parser().commands[command]
    flags = [s for a in full._actions for s in a.option_strings]
    assert "--seed" in flags
    for flag in flags:
        assert re.search(rf"(?<![\w-]){flag}(?![\w-])", text), flag


def test_cli_unknown_subcommand_lists_every_subcommand(capsys):
    assert run_cli(["bogus", "--seed", "1"]) == 2
    choices = ", ".join(f"'{name}'" for name in COMMANDS)
    assert (
        "fairaudit: config error: argument command: invalid choice: 'bogus' "
        f"(choose from {choices})"
    ) in capsys.readouterr().err


def test_cli_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "fairaudit.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "audit" in proc.stdout


def test_cli_non_utf8_schema_is_a_config_error(tmp_path, synth_csv, capsys):
    data, _, _ = synth_csv
    schema = tmp_path / "s.txt"
    schema.write_bytes(b"group=group\noutcome=outcome\ntask=binary\n# \xff\n")
    code = run(["audit", "--seed", 0, "--data", data, "--schema", schema,
                "--out", tmp_path / "o"])
    assert code == 2
    assert "cannot read schema file" in capsys.readouterr().err


def test_cli_non_utf8_config_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"sigma-eps=0.9\n# \xff\n")
    code = run(["synth", "--seed", 0, "--config", cfg, "--out", tmp_path / "o"])
    assert code == 2
    assert "cannot read config file" in capsys.readouterr().err


def _regression_csv(tmp_path, outcome_cell, score_cell):
    data = tmp_path / "r.csv"
    data.write_text(
        "g,y,x,s\n0,1.5,1,0.5\n1,0.5,2,0.5\n\n"
        f"0,{outcome_cell},3,{score_cell}\n1,2.0,4,0.5\n0,1.0,5,0.5\n1,0.0,6,0.5\n"
    )
    schema = tmp_path / "s.txt"
    schema.write_text("group=g\noutcome=y\ntask=regression\nscore=s\n")
    return data, schema


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_cli_non_finite_outcome_is_a_data_error(tmp_path, capsys, cell):
    data, schema = _regression_csv(tmp_path, cell, "0.5")
    code = run(["audit", "--seed", 0, "--data", data, "--schema", schema,
                "--learner", "ridge", "--kind", "mse", "--out", tmp_path / "o"])
    assert code == 3
    # Line 5: the blank record counts.
    assert f"r.csv:5: non-finite outcome value '{cell}'" in capsys.readouterr().err


def test_cli_non_finite_score_is_a_data_error(tmp_path, capsys):
    data, schema = _regression_csv(tmp_path, "1.0", "nan")
    code = run(["audit", "--seed", 0, "--data", data, "--schema", schema,
                "--learner", "ridge", "--kind", "mse", "--out", tmp_path / "o"])
    assert code == 3
    assert "r.csv:5: non-finite score value 'nan'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Whole argvs: a subcommand (or none, or an unknown one) and flags drawn
# from a fixed vocabulary of values, valid and out of range, some naming
# the files below.  "{name}" stands for the file ``name`` of the run.

ARGV_FILES = {
    "schema": "group=group\noutcome=outcome\ntask=binary\n",
    "schema_regression": "group=group\noutcome=outcome\ntask=regression\n",
    "schema_score": "group=group\noutcome=outcome\ntask=binary\nscore=score\n",
    "config_seed": "seed=2\n",
    "config_learner": "learner=tree:max_depth=1\n",
    "config_decompose": "t_models=2\nn_train=10\neval_size=5\n",
    "config_bad": "bogus=1\n",
    "config_empty": "",
    "topics": "0\n1\n" * 4,
    "adult": "39, State-gov, 77516, Bachelors, 13, Never-married, "
             "Adm-clerical, Not-in-family, White, Male, 2174, 0, 40, "
             "United-States, <=50K\n",
}
ARGV_FLAGS = {
    "--seed": ["1", "0", "-3", "x", ""],
    "--data": ["{csv}", "{report}", "{adult}", "{schema}", "{missing}"],
    "--schema": ["{schema}", "{schema_regression}", "{schema_score}",
                 "{csv}", "{missing}"],
    "--learner": ["tree:max_depth=2", "knn:k=3", "knn:k=1000", "logistic",
                  "logistic:penalty=l1,lam=0.1", "ridge", "bagged_trees",
                  "bagged_trees:n_trees=2,max_depth=2", "tree:max_depth=0",
                  "svm"],
    "--threshold": ["0.5", "1", "2", "nan"],
    "--test-fraction": ["0.3", "0", "1.5"],
    "--kind": ["zero_one", "fpr,fnr", "mse", "zero_one,zero_one", "bogus"],
    "--level": ["0.05", "1"],
    "--synth-kind": ["discrete", "regression", "binary"],
    "--sigma-eps": ["0.5", "0", "inf"],
    "--homoskedastic": [None],
    "--t-models": ["2", "3", "1"],
    "--n-train": ["0", "1", "10", "-1"],
    "--eval-size": ["5", "0"],
    "--grid": ["5,10", "10,20,30", "1,2,3", "0", "5,5", "1000"],
    "--trials": ["1", "2", "0"],
    "--k": ["1", "3", "0", "1000"],
    "--folds": ["2", "3", "1", "1000"],
    "--max-nn-samples": ["0", "1", "10", "-1"],
    "--topics": ["{topics}", "{csv}", "{missing}"],
    "--reps": ["100", "99"],
    "--n": ["5", "1", "0"],
    "--out-csv": ["{dir}/a.csv", "{missing}/a.csv"],
    "--out-schema": ["{dir}/a.txt"],
    "--format": ["json", "csv", "xml"],
    "--out": ["{dir}/out", "{schema}/out"],
    "--config": ["{config_seed}", "{config_learner}", "{config_decompose}",
                 "{config_bad}", "{config_empty}", "{missing}"],
    "--help": [None],
    "--unknown": [None, "1"],
    "extra": [None],
}


def _argv_flag(flags):
    """A flag of ``flags`` and a value of its vocabulary."""
    return st.sampled_from(sorted(flags)).flatmap(
        lambda flag: st.sampled_from(ARGV_FLAGS[flag]).map(
            lambda value: [flag] if value is None else [flag, value]))


def _write_argv_files(root):
    """The files an argv may name, written anew: a run may overwrite one."""
    rng = np.random.default_rng(5)
    n = 40
    rows = [f"{i % 2},{int(rng.random() < 0.3 + 0.3 * (i % 2))},"
            f"{rng.integers(0, 3)},{rng.normal():.2f},{rng.random():.3f}"
            for i in range(n)]
    files = {"csv": "group,outcome,a,b,score\n" + "\n".join(rows) + "\n",
             "report": AuditReport(config={}).to_json(), **ARGV_FILES}
    paths = {"dir": str(root), "missing": str(root / "missing")}
    for name, text in files.items():
        path = root / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
    return paths


@pytest.fixture(scope="module")
def argv_root(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_any_argv_exits_with_a_documented_code(argv_root, data):
    """Any argv exits 0, 2, 3 or 4, with no traceback and no warning.  Most
    flags are ones the subcommand declares, so that runs get past the
    parser; the rest are any flag of the vocabulary."""
    import contextlib
    import io
    import warnings

    command = data.draw(st.sampled_from([*COMMANDS, *COMMANDS, "bogus", None]),
                        label="command")
    declared = ARGV_FLAGS
    if command in COMMANDS:
        parser = build_parser(command=command).commands[command]
        declared = set(ARGV_FLAGS) & set(parser._option_string_actions)
    argv = [] if command is None else [command]
    argv += ["--out", "{dir}/out"]
    argv += data.draw(st.sampled_from(
        [[], ["--seed", "1"], ["--seed", "1", "--data", "{csv}",
                               "--schema", "{schema}"]]), label="base")
    argv += [token for flag in data.draw(st.lists(
        st.one_of(_argv_flag(declared), _argv_flag(declared),
                  _argv_flag(ARGV_FLAGS)), max_size=4), label="flags")
        for token in flag]
    paths = _write_argv_files(argv_root)
    argv = [token.format(**paths) for token in argv]
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = run_cli(argv)
    event(f"{command} exit {code}")
    assert code in (0, 2, 3, 4), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    assert [str(w.message) for w in caught] == []


# ---------------------------------------------------------------------------
# Input files of arbitrary bytes: a schema, a --config and a --topics file,
# drawn from the byte tokens of ``test_load_dataset_on_arbitrary_bytes``
# (a byte-order mark, bytes that are not UTF-8, NUL, carriage returns,
# quotes, separators and numbers), ``=`` and ``#``, and words each file's
# reader looks for.

_FILE_TOKENS = [b"\xef\xbb\xbf", b"\xff", b"\xc3", "é".encode(), b"\x00",
                b"\r", b"\n", b"\r\n", b'"', b",", b"=", b"#", b" ", b"\t",
                b"0", b"1", b"2.5", b"-0", b"nan", b"a"]
# Per file: the argv that reads it (as ``input``, in the fuzz directory),
# the heads a file starts with, and the words its body may hold.
_INPUT_FILES = {
    "schema": (
        ["audit", "--data", "d.csv", "--schema", "input",
         "--learner", "tree:max_depth=1"],
        [b"", b"\xef\xbb\xbf", b"group=group\noutcome=outcome\n",
         b"\xef\xbb\xbfgroup=group\r\noutcome=outcome\r\ntask=binary\r\n"],
        [b"group", b"outcome", b"task", b"binary", b"regression", b"score",
         b"ignore", b"task=binary\n", b"score=score\n", b"ignore=a,b\n"],
    ),
    "config": (
        ["synth", "--config", "input"],
        [b"", b"\xef\xbb\xbf", b"n=20\n", b"\xef\xbb\xbfn=20\r\n"],
        [b"n", b"sigma-eps", b"sigma_eps", b"synth_kind", b"discrete",
         b"regression", b"homoskedastic", b"on", b"off", b"format", b"csv",
         b"sigma-eps=0.5\n"],
    ),
    "topics": (
        ["subgroups", "--data", "d.csv", "--schema", "schema.txt",
         "--learner", "tree:max_depth=1", "--topics", "input"],
        [b"", b"\xef\xbb\xbf", b"q_0,q_1\n", b"q_0,q_1\n" + b"0.5,0.5\n" * 11,
         b"q_0,q_1\n" + b"0.5,0.5\n" * 12,
         b"\xef\xbb\xbfq_0,q_1\r\n" + b"1,0\r\n" * 11],
        [b"q_0", b"q_1", b"0.5", b"q_0,q_1\n", b"0.5,0.5\n", b"1,0\r\n"],
    ),
}


@pytest.fixture(scope="module")
def input_root(tmp_path_factory):
    """A directory with a 60-row dataset (12 evaluation rows) and its
    schema, where each run writes ``input`` and reports under ``out``."""
    root = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(6)
    rows = [f"{i % 2},{int(rng.random() < 0.3 + 0.3 * (i % 2))},"
            f"{rng.integers(0, 3)},{rng.normal():.2f},{rng.random():.3f}\n"
            for i in range(60)]
    (root / "d.csv").write_text("group,outcome,a,b,score\n" + "".join(rows))
    (root / "schema.txt").write_text(ARGV_FILES["schema"])
    return root


def _run_on_input_file(root, kind, data):
    """Run the argv that reads a drawn ``kind`` file; it exits 0, 2, 3 or
    4, and its stderr is empty or one ``fairaudit: ... error:`` line."""
    import contextlib
    import io

    argv, heads, words = _INPUT_FILES[kind]
    head = data.draw(st.sampled_from(heads), label="head")
    body = data.draw(st.lists(st.sampled_from(_FILE_TOKENS + words),
                              max_size=30).map(b"".join), label="body")
    (root / "input").write_bytes(head + body)
    stderr = io.StringIO()
    # A config file may name a relative path; it lands in ``root``.
    with contextlib.chdir(root), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        code = run_cli([*argv, "--seed", "1", "--out", "out"])
    err = stderr.getvalue()
    event(f"{kind} exit {code}")
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    assert err == "" if code == 0 else re.fullmatch(
        r"fairaudit: (config|data|analysis) error: [^\n]*\n", err), err


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_any_schema_file_exits_with_a_documented_code(input_root, data):
    _run_on_input_file(input_root, "schema", data)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_any_config_file_exits_with_a_documented_code(input_root, data):
    _run_on_input_file(input_root, "config", data)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_any_topics_file_exits_with_a_documented_code(input_root, data):
    _run_on_input_file(input_root, "topics", data)
