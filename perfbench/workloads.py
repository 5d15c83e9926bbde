"""The benchmark's workloads: seeded inputs and the CLI session of each.

Every input is a pure function of (workload, seed).  The CLI receives only
the generated files and per-call ``--seed`` values derived from the
workload seed, so two runs with the same seed send byte-identical requests.

Run as a script to generate one workload's inputs in a fresh interpreter;
``run.py`` times that as the set-up step::

    python3 perfbench/workloads.py --workload adult_like --seed 1 --dir DIR
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Each workload loads different layers, so a change to one layer shows on
# one workload and is predicted not to move the others:
# - onehot_trees: the README session on 10 tied one-hot columns; split
#   search in tree growth dominates, k-NN scoring comes second.
# - adult_like: a wide Adult-shaped table; cross-validated k-NN noise
#   bounds, logistic fits and CSV parsing, and no trees at all.
# - oracle_decompose: known-outcome decomposition of shallow trees on both
#   synthetic sources; the per-point loop dominates, with no CSV and no k-NN.
# Sizes keep one pass near 5 s on the fallback kernels, so a 40 s run
# repeats every call at least six times and run.py can take the fastest.
WORKLOADS = ("onehot_trees", "adult_like", "oracle_decompose")

INPUT_FILES = ("data.csv", "schema.txt")
SYNTH_SCHEMA = "group=group\noutcome=outcome\ntask=binary\n"
ADULT_SCHEMA = "group=sex\noutcome=income\ntask=binary\n"

ADULT_ROWS = 10_000
# Four categorical columns; their levels expand to 7 + 7 + 14 + 5 = 33
# one-hot columns, plus 4 integer columns: 37 features, like UCI Adult
# after dropping fnlwgt and the redundant categorical columns.
ADULT_CATEGORIES = {
    "workclass": (
        "Federal-gov", "Local-gov", "Private", "Self-emp-inc",
        "Self-emp-not-inc", "State-gov", "Without-pay",
    ),
    "marital_status": (
        "Divorced", "Married-AF-spouse", "Married-civ-spouse",
        "Married-spouse-absent", "Never-married", "Separated", "Widowed",
    ),
    "occupation": (
        "Adm-clerical", "Armed-Forces", "Craft-repair", "Exec-managerial",
        "Farming-fishing", "Handlers-cleaners", "Machine-op-inspct",
        "Other-service", "Priv-house-serv", "Prof-specialty",
        "Protective-serv", "Sales", "Tech-support", "Transport-moving",
    ),
    "race": (
        "Amer-Indian-Eskimo", "Asian-Pac-Islander", "Black", "Other", "White",
    ),
}


def derived_seed(workload: str, seed: int, label: str) -> int:
    """A 31-bit seed for one generator or CLI call of a workload run."""
    digest = hashlib.sha256(f"{workload}/{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def _write_adult_like(path: str, seed: int) -> None:
    import numpy as np

    rng = np.random.default_rng(seed)
    n = ADULT_ROWS
    male = rng.random(n) < 0.67
    age = np.clip(np.rint(rng.normal(38.5, 13.6, n)), 17, 90).astype(int)
    edu = np.clip(np.rint(rng.normal(10.1, 2.6, n)), 1, 16).astype(int)
    hours = np.clip(np.rint(rng.normal(40.4 + 4.0 * male, 12.3, n)), 1, 99).astype(int)
    gain = np.where(
        rng.random(n) < 0.08, np.rint(np.exp(rng.uniform(6.0, 11.5, n))), 0
    ).astype(int)
    cats = {}
    for name, levels in ADULT_CATEGORIES.items():
        weights = rng.uniform(0.2, 1.0, len(levels))
        codes = rng.choice(len(levels), size=n, p=weights / weights.sum())
        # Every level appears, so the one-hot width is fixed at 33.
        codes[: len(levels)] = np.arange(len(levels))
        cats[name] = codes
    effect = {name: rng.normal(0.0, 0.6, len(levels))
              for name, levels in ADULT_CATEGORIES.items()}
    logit = (
        -1.6 + 0.03 * (age - 38) + 0.3 * (edu - 10) + 0.6 * male
        + 0.03 * (hours - 40) + 1.5 * (gain > 0)
        + sum(effect[name][codes] for name, codes in cats.items())
    )
    income = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(int)
    level = {name: np.asarray(levels)[cats[name]]
             for name, levels in ADULT_CATEGORIES.items()}
    columns = {
        "age": age,
        "workclass": level["workclass"],
        "education_num": edu,
        "marital_status": level["marital_status"],
        "occupation": level["occupation"],
        "race": level["race"],
        "sex": np.where(male, "Male", "Female"),
        "capital_gain": gain,
        "hours_per_week": hours,
        "income": income,
    }
    rows = zip(*(values.astype(str).tolist() for values in columns.values()))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def generate(workload: str, seed: int, directory: str) -> dict:
    """Write the workload's input files into ``directory``; returns their
    paths by role (``data``, ``schema``), empty for a workload without
    files."""
    from fairaudit import cli

    os.makedirs(directory, exist_ok=True)
    if workload == "oracle_decompose":
        return {}
    data, schema = (os.path.join(directory, name) for name in INPUT_FILES)
    if workload == "onehot_trees":
        code = cli.run_cli([
            "synth", "--seed", str(derived_seed(workload, seed, "synth")),
            "--synth-kind", "discrete", "--n", "1000", "--data", data,
            "--out", os.path.join(directory, "synth_report"),
        ])
        if code != 0:
            raise RuntimeError(f"synth exited with {code}")
        text = SYNTH_SCHEMA
    elif workload == "adult_like":
        _write_adult_like(data, derived_seed(workload, seed, "adult"))
        text = ADULT_SCHEMA
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(schema, "w", encoding="utf-8") as fh:
        fh.write(text)
    return input_paths(directory)


def input_paths(directory: str) -> dict:
    """Paths of the inputs ``generate`` wrote into ``directory``."""
    data, schema = (os.path.join(directory, name) for name in INPUT_FILES)
    return {"data": data, "schema": schema} if os.path.exists(data) else {}


def session(workload: str, seed: int, inputs: dict) -> list:
    """The closed-loop CLI session: (label, argv without --out) per call."""
    files = ["--data", inputs.get("data", ""), "--schema", inputs.get("schema", "")]
    if workload == "onehot_trees":
        calls = [
            ("audit", ["audit", *files,
                       "--learner", "bagged_trees:n_trees=10,max_depth=8",
                       "--kind", "zero_one,fpr,fnr"]),
            ("decompose", ["decompose", *files, "--t-models", "8",
                           "--n-train", "200"]),
            ("curves", ["curves", *files, "--grid", "100,200,400",
                        "--trials", "3"]),
            ("test", ["test", *files, "--reps", "1000"]),
            ("subgroups", ["subgroups", *files, "--learner", "knn:k=15"]),
        ]
    elif workload == "adult_like":
        calls = [
            ("noise", ["noise", *files, "--k", "5", "--folds", "5",
                       "--max-nn-samples", "300"]),
            ("audit", ["audit", *files, "--learner", "logistic",
                       "--kind", "zero_one,fpr,fnr"]),
            ("test", ["test", *files, "--learner", "logistic",
                      "--reps", "1000"]),
            ("subgroups", ["subgroups", *files, "--learner", "logistic"]),
        ]
    elif workload == "oracle_decompose":
        shared = ["--learner", "tree:max_depth=3", "--t-models", "50",
                  "--n-train", "200", "--eval-size", "40000"]
        calls = [
            ("decompose.discrete", ["decompose", "--synth-kind", "discrete", *shared]),
            ("decompose.regression", ["decompose", "--synth-kind", "regression", *shared]),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [
        (label, argv + ["--seed", str(derived_seed(workload, seed, label))])
        for label, argv in calls
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    generate(args.workload, args.seed, args.dir)


if __name__ == "__main__":
    main()
