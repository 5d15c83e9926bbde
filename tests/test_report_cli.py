import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import AuditReport, emit_report
from fairaudit.cli import build_parser, parse_kinds, parse_learner, run_cli
from fairaudit.costs import CostKind
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
# learner does not read (step_size only with penalty=l1).
BAD_LEARNERS = [
    "knn:k=0", "tree:max_depth=0", "logistic:penalty=l3", "logistic:epochs=0",
    "logistic:step_size=-1,penalty=l1", "logistic:step_size=inf,penalty=l1",
    "ridge:lam=nan", "bagged_trees:bootstrap=maybe",
    "knn:max_depth=3,epochs=7", "logistic:k=9,n_trees=3",
    "logistic:step_size=0.05", "ridge:penalty=l1", "tree:n_trees=3",
]


def test_parse_learner():
    spec = parse_learner("bagged_trees:n_trees=7,max_depth=3,bootstrap=false")
    assert spec.kind is LearnerKind.BAGGED_TREES
    assert spec.n_trees == 7 and spec.max_depth == 3 and not spec.bootstrap
    with pytest.raises(ConfigError):
        parse_learner("boosted")
    assert parse_learner("bagged_trees:bootstrap=YES").bootstrap
    assert parse_learner("logistic:penalty=l1,step_size=0.05").step_size == 0.05
    with pytest.raises(ConfigError, match="does not read max_depth, epochs; "
                       "it reads k$"):
        parse_learner("knn:max_depth=3,epochs=7")
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
    "flags", [["--kind", "bogus"], *(["--learner", bad] for bad in BAD_LEARNERS)],
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
                 "sigma_eps synth_kind t_models test_fraction threshold",
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


def test_cli_logistic_audit_fits_raw_scale_features(tmp_path):
    # Adult-shaped raw columns: capital_gain reaches about 1e5.  A fit
    # that diverges can predict one class for everyone, so that FNR is 1
    # and FPR 0 in every group, or the reverse.
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
                "--learner", "logistic", "--kind", "fnr,fpr", "--out", out]) == 0
    results = json.loads((out / "report.json").read_text())["results"]
    for kind in ("fnr", "fpr"):
        block = results[f"group_costs.{kind}"]
        assert block["groups"] == [0, 1]
        assert all(0.0 < cost < 1.0 for cost in block["costs"])


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
    assert "q.csv:3: ragged membership matrix: expected 2 cells, got 1" in err


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


def test_cli_non_utf8_dataset_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_bytes(b"g,y,x\n0,1,\xff\n1,0,2\n")
    schema = tmp_path / "s.txt"
    schema.write_text("group=g\noutcome=y\ntask=binary\n")
    code = run(["audit", "--seed", 0, "--data", data, "--schema", schema,
                "--out", tmp_path / "o"])
    assert code == 3
    assert "cannot read dataset" in capsys.readouterr().err


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
