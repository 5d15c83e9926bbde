"""Tests of the benchmark's own machinery: tracing wrappers, output checks
and seeded inputs.

    python3 -m pytest -q perfbench
"""

import copy
import importlib
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import MODULES  # noqa: E402

from fairaudit import Dataset, LearnerKind, LearnerSpec, Task  # noqa: E402


@pytest.fixture
def modules():
    return {name: importlib.import_module(f"fairaudit.{name}") for name in MODULES}


def _binding(modules, module_name, attr):
    owner = modules[module_name]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[name]


def test_wrappers_restore_the_original_functions(modules):
    originals = {
        (m, a): _binding(modules, m, a) for m, a, _, _ in spans.PATCHES
    }
    with spans.Tracer().install(modules) as tracer:
        assert tracer.absent == []
        for (m, a), original in originals.items():
            assert _binding(modules, m, a) is not original, f"{m}.{a}"
    for (m, a), original in originals.items():
        assert _binding(modules, m, a) is original, f"{m}.{a}"


def test_self_time_excludes_child_spans_and_counts_work(modules):
    rng = np.random.default_rng(0)
    d = Dataset(
        features=rng.integers(0, 2, size=(60, 3)).astype(float),
        group=rng.integers(0, 2, size=60),
        outcome=rng.integers(0, 2, size=60).astype(float),
        task=Task.BINARY,
        column_names=("a", "b", "c"),
    )
    spec = LearnerSpec(kind=LearnerKind.TREE, max_depth=2)
    with spans.Tracer().install(modules) as tracer:
        model = modules["cli"].train(spec, d)
        model.predict_scores(d.features)
    layers = tracer.layer_metrics()
    assert layers["learners.train.calls"] == 1
    assert layers["kernels.best_split_gini.calls"] >= 1
    assert layers["kernels.best_split_gini.cells"] >= 60 * 3
    assert layers["learners.tree_nodes"] == len(model.node_feature)
    assert layers["learners.predict_scores.rows"] == 60
    assert all(v >= 0.0 for k, v in layers.items() if k.endswith("self_s"))
    # Only cli.train was reached; the bindings of the other callers were not.
    missing = tracer.missing_calls("onehot_trees")
    assert "cli.train" not in missing
    assert "curves.train" in missing and "decomposition.train" in missing


KNOWN_REPORT = {
    "results": {
        "decomposition": {
            "0": {"mode": "known", "cost": 0.3, "noise": 0.1, "bias": 0.15,
                  "variance": 0.05},
            "1": {"mode": "unknown", "cost": 0.2, "bias": None, "noise": None,
                  "variance": None},
        },
        "noise_bounds": {"bhattacharyya.group0": {"e_low": 0.1, "e_up": 0.2}},
        "gamma_z_test": {"p_value": 0.5},
        "bootstrap_gamma_ci": {"low": 0.01, "high": 0.04},
        "power_law_fits": {
            "zero_one.group0": {"alpha": 0.9, "beta": 0.5, "delta": 0.2}
        },
    }
}


def test_check_accepts_a_consistent_report():
    assert checks.check_report(KNOWN_REPORT) == []
    flat = copy.deepcopy(KNOWN_REPORT)
    flat["results"]["power_law_fits"]["zero_one.group0"].update(
        alpha=0.0, beta=0.0103, delta=0.29
    )
    assert checks.check_report(flat) == []


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("decomposition", "0", "variance"), 0.06, "noise + bias + variance"),
        (("noise_bounds", "bhattacharyya.group0", "e_low"), 0.3, "e_low"),
        (("gamma_z_test", "p_value"), 1.5, "p-value"),
        (("bootstrap_gamma_ci", "low"), 0.05, "bootstrap CI"),
        (("power_law_fits", "zero_one.group0", "alpha"), -0.1, "power-law fit"),
        (("power_law_fits", "zero_one.group0", "beta"), 3.5, "power-law fit"),
        (("power_law_fits", "zero_one.group0", "delta"), -0.1, "power-law fit"),
    ],
)
def test_check_rejects_a_doctored_report(path, value, message):
    report = copy.deepcopy(KNOWN_REPORT)
    block = report["results"]
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    problems = checks.check_report(report)
    assert len(problems) == 1 and message in problems[0]


def test_inputs_and_call_seeds_follow_the_workload_seed(tmp_path):
    a = workloads.generate("adult_like", 3, str(tmp_path / "a"))
    b = workloads.generate("adult_like", 3, str(tmp_path / "b"))
    c = workloads.generate("adult_like", 4, str(tmp_path / "c"))
    data = [open(x["data"], "rb").read() for x in (a, b, c)]
    assert data[0] == data[1] != data[2]
    header = data[0].decode().splitlines()[0].split(",")
    assert len(header) == 10 and "sex" in header
    assert workloads.session("adult_like", 3, a) == workloads.session("adult_like", 3, a)
    seeds = [argv[-1] for _, argv in workloads.session("adult_like", 3, a)]
    other = [argv[-1] for _, argv in workloads.session("adult_like", 4, a)]
    assert len(set(seeds)) == len(seeds) and seeds != other
