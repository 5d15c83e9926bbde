import ast
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import fairaudit

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fairaudit"


def test_package_source_has_no_assert_statements():
    # `python -O` strips assert statements, so an invariant written as one
    # would silently stop being checked; every check must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")), f"no sources under {SRC}"
    assert found == []


# The node table of a tree model (``learners.TreeModel``).  Only
# ``learners`` reads it, so where each tree's nodes sit is decided there.
NODE_TABLE = {"node_feature", "node_threshold", "node_left", "node_right",
              "node_value", "roots"}


def test_only_learners_reads_the_tree_node_table():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.stem != "learners"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr in NODE_TABLE)
        or (isinstance(node, ast.Constant) and node.value in NODE_TABLE)
    ]
    assert found == []


# The split kernels, each of which searches every node of a level at once.
SPLIT_KERNELS = {"best_splits_gini", "best_splits_var"}


def test_only_the_forest_grower_reaches_the_split_kernels():
    # Trees grow through one path: ``learners._grow_forest`` grows every
    # tree of every tree model level by level, one kernel call a level.
    # No other function names a split kernel, so a second grower that must
    # agree with it node for node cannot come back unnoticed.
    found, grower = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.stem == "learners":
            grower = [fn for fn in ast.walk(tree)
                      if isinstance(fn, ast.FunctionDef)
                      and fn.name == "_grow_forest"]
            allowed = {id(node) for fn in grower for node in ast.walk(fn)}
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if SPLIT_KERNELS & {getattr(node, "id", None),
                                getattr(node, "attr", None)}
            and id(node) not in allowed
        ]
    assert len(grower) == 1
    assert {node.attr for node in ast.walk(grower[0])
            if isinstance(node, ast.Attribute)} >= SPLIT_KERNELS
    assert found == []


def test_only_costs_and_subgroups_call_cost_losses():
    # Which groups a cost covers is decided in ``costs.group_losses`` (and
    # ``per_sample_losses``, its one-group form); ``subgroups`` applies the
    # rule to the cells of a clustering.  No other module loops over groups
    # with its own copy of it.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem not in ("costs", "subgroups")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and "cost_losses" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert found == []



def test_only_data_opens_files_or_imports_csv():
    # Every file the package reads or writes goes through ``data``
    # (``read_text``, ``write_text``, ``write_csv``, ``read_csv_table``), so
    # one encoding, byte-order-mark and error rule holds for every file.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.stem != "data"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Call) and "open" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)))
        or (isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "csv" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "csv")
    ]
    assert found == []


ROOT = SRC.parent.parent
# Bindings the benchmark's tracer expects but this package no longer has;
# traced runs skip an absent binding.  ``per_sample_losses`` left
# ``subgroups`` when its cells came to index one per-row loss pass, and
# ``curves`` when each trial's group costs came to read one
# ``costs.group_losses`` pass per kind; the per-node ``best_split_gini``
# left ``kernels`` when one Gini kernel came to search a whole level of
# nodes at once (``best_splits_gini``), and the per-node
# ``best_split_var`` likewise (``best_splits_var``); ``bhattacharyya_bounds``
# left ``noise_bounds`` because its Gaussian-only bracket missed the exact
# Bayes error of the package's own discrete source; ``train`` and
# ``bootstrap_resample`` left ``decomposition`` when a tree ensemble's
# models came to grow together from bootstrap indices into one binned
# matrix (other kinds reach them as ``learners.train`` and
# ``data.bootstrap_resample``); ``train`` and ``subsample`` left ``curves``
# when a curve's tree models came to grow together from subsample indices
# into one binned matrix (other kinds reach them as ``learners.train`` and
# ``data.subsample_indices``).
ABSENT_BINDINGS = {"subgroups.per_sample_losses", "curves.per_sample_losses",
                   "kernels.best_split_gini", "kernels.best_split_var",
                   "noise_bounds.bhattacharyya_bounds",
                   "decomposition.train", "decomposition.bootstrap_resample",
                   "curves.train", "curves.subsample"}


def _expected_sites():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {site for sites in spans.EXPECTED_SITES.values() for site in sites}


def test_every_binding_the_benchmark_traces_exists():
    # The tracer patches each binding on its module, as ``spans.Tracer``
    # does; a renamed one would leave its layer's spans silently empty.
    absent = set()
    for site in sorted(_expected_sites()):
        module, *path, name = site.split(".")
        owner = importlib.import_module(f"fairaudit.{module}")
        for part in path:
            owner = getattr(owner, part)
        if name not in vars(owner):
            absent.add(site)
    assert absent == ABSENT_BINDINGS


# Names that ``fairaudit/__init__.py`` exports but that no module of the
# package uses outside the one defining them.  Each is kept on purpose; a
# new one is either reached from the package or added here with its reason.
UNREFERENCED_EXPORTS = {
    # Result and record types, built where they are defined.
    "BoundMethod": "method field of NoiseBoundEstimate (noise)",
    "ClusterReport": "result of subgroups.rank_clusters (subgroups)",
    "Clustering": "built by threshold_clusterings and load_membership (subgroups)",
    "ClusteringKind": "kind field of Clustering (subgroups)",
    "DataSplit": "result of data.split (audit, test, decompose --data)",
    "DiscreteSynthSpec": "spec of synth.default_discrete_spec (synth, decompose)",
    "EnsemblePredictions": "result of decomposition.ensemble_train (decompose)",
    "GroupCostReport": "result of costs.discrimination_level (audit)",
    "GroupDecomposition": "result of decomposition.group_decomposition (decompose)",
    "NoiseBoundEstimate": "result of noise_bounds.all_bounds (noise)",
    "PointDecomposition": "per-point terms of group_decomposition (decompose)",
    "PowerLawFit": "result of curves.fit_curve_experiment (curves)",
    # Steps of an analysis a subcommand reaches through its own module.
    "cover_hart_lower": "called by noise_bounds.nn_bounds (noise)",
    "mahalanobis_upper": "called by noise_bounds.all_bounds (noise)",
    "nn_bounds": "called by noise_bounds.all_bounds (noise)",
    "fit_power_law": "called by curves.fit_curve_experiment (curves)",
    "group_cost": "one group's cost, variance and count, for the unit tests",
    "welch_t": "called by stats.pairwise_welch_holm (test)",
    # Analyses no subcommand reaches yet.
    "class_conditional_decomposition": "FPR/FNR decomposition, ROADMAP item 2",
    "compare_models_bias_variance": "paired model comparison, ROADMAP item 4",
    "compare_discrimination_test": "paired model comparison, ROADMAP item 4",
    "power_law_crossings": "group-targeted learning curves, ROADMAP item 5",
    "power_law_critical_point": "group-targeted learning curves, ROADMAP item 5",
    "point_decomposition": "one-point oracle of the acceptance tests",
    "weighted_group_error": "thin wrapper through which tests probe subgroup cells",
    "subsample": "a dataset of subsample_indices' rows, as curves draws them",
}


def _referenced_names(path):
    """Every name a module's code reads, imports or looks up on an object."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
    return found


def test_every_export_is_used_by_another_module_or_allowlisted():
    exported = fairaudit._HOME
    names = {
        path.stem: _referenced_names(path)
        for path in SRC.glob("*.py") if path.stem != "__init__"
    }
    unreferenced = {
        name for name, home in exported.items()
        if not any(name in used for module, used in names.items()
                   if module != home)
    }
    assert exported and names
    assert unreferenced == set(UNREFERENCED_EXPORTS)


# The package's exports: 69 names and the 12 submodules that an eager
# ``__init__`` once bound, which ``dir()`` swept into ``__all__``.
EXPORTED_NAMES = {
    "AnalysisError", "AuditReport", "BoundMethod", "ClusterReport",
    "Clustering", "ClusteringKind", "ConditionalOutcomeModel", "ConfigError",
    "CostKind", "DataError", "DataSplit", "Dataset", "DiscreteSynthSpec",
    "EnsemblePredictions", "FairauditError", "GroupCostReport",
    "GroupDecomposition", "LearnerKind", "LearnerSpec", "Loss",
    "NoiseBoundEstimate", "PointDecomposition", "PowerLawFit", "PredictionSet",
    "RegressionSynthSpec", "Schema", "Task", "TestResult", "all_bounds",
    "anova_f", "apply_threshold", "bootstrap_gamma_ci",
    "bootstrap_resample", "class_conditional_decomposition",
    "compare_discrimination_test", "compare_models_bias_variance",
    "cover_hart_lower", "default_discrete_spec", "derive_seed",
    "discrimination_level", "emit_report", "ensemble_train", "exact_bayes",
    "extrapolate_gamma", "fit_curve_experiment", "fit_power_law", "gamma_bar",
    "gamma_z_test", "gen_discrete", "gen_regression", "group_cost",
    "group_decomposition", "load_dataset", "mahalanobis_upper", "nn_bounds",
    "pairwise_welch_holm", "per_sample_losses", "point_decomposition",
    "power_law_critical_point", "power_law_crossings", "rank_clusters",
    "run_curve_experiment", "split", "subsample", "threshold_clusterings",
    "train", "weighted_group_error", "welch_t", "write_dataset",
}
EXPORTED_MODULES = {
    "costs", "curves", "data", "decomposition", "errors", "kernels",
    "learners", "noise_bounds", "report", "stats", "subgroups", "synth",
}


def test_package_exports_the_same_names():
    assert len(EXPORTED_NAMES) == 69 and len(fairaudit.__all__) == 81
    assert set(fairaudit.__all__) == EXPORTED_NAMES | EXPORTED_MODULES
    assert set(fairaudit._HOME) == EXPORTED_NAMES
    assert set(dir(fairaudit)) >= set(fairaudit.__all__)


def test_every_export_resolves_to_the_object_its_home_module_defines():
    for name, home in fairaudit._HOME.items():
        module = importlib.import_module(f"fairaudit.{home}")
        assert getattr(fairaudit, name) is vars(module)[name], name
    for name in EXPORTED_MODULES:
        assert getattr(fairaudit, name) is sys.modules[f"fairaudit.{name}"]


def test_star_import_binds_every_export():
    namespace = {}
    exec("from fairaudit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(fairaudit.__all__)
    assert namespace["split"] is sys.modules["fairaudit.data"].split


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fairaudit.no_such_name
    # A submodule outside the exports still imports by name.
    from fairaudit import adult

    assert adult is sys.modules["fairaudit.adult"]


# Run in a fresh interpreter: prints the package modules it loaded after
# importing ``fairaudit.cli`` and, given arguments, after ``run_cli`` on them.
_LOADED = """
import json, sys
from fairaudit import cli
code = cli.run_cli(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted(
    m for m in sys.modules if m.split(".")[0] == "fairaudit")]))
"""


def _loaded_modules(*argv):
    """The ``fairaudit`` modules a fresh process loads to run ``argv``."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", _LOADED, *map(str, argv)], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0, done.stderr
    return {m.removeprefix("fairaudit.") for m in modules}


def test_each_subcommand_imports_only_the_modules_it_runs(tmp_path):
    assert _loaded_modules() == {
        "fairaudit", "cli", "costs", "data", "errors", "kernels", "learners",
        "report",
    }
    data, schema = tmp_path / "synth.csv", tmp_path / "schema.txt"
    schema.write_text("group=group\noutcome=outcome\ntask=binary\n")
    loaded = _loaded_modules("synth", "--seed", 0, "--n", 200, "--data", data,
                             "--out", tmp_path / "synth")
    assert "synth" in loaded
    assert not loaded & {"decomposition", "curves", "noise_bounds", "stats",
                         "subgroups", "adult"}
    loaded = _loaded_modules("noise", "--seed", 0, "--data", data, "--schema",
                             schema, "--out", tmp_path / "noise")
    assert "noise_bounds" in loaded
    assert not loaded & {"decomposition", "curves", "stats", "subgroups",
                         "synth", "adult"}
    loaded = _loaded_modules(
        "decompose", "--seed", 0, "--synth-kind", "discrete", "--learner",
        "tree:max_depth=2", "--t-models", 2, "--n-train", 50, "--eval-size",
        50, "--out", tmp_path / "decompose",
    )
    assert "decomposition" in loaded
    assert not loaded & {"curves", "noise_bounds", "subgroups", "adult"}


def test_only_cli_imports_inside_functions():
    # A subcommand defers its analysis modules so a process loads only what
    # it runs; the pattern stays in ``cli``, and there names modules only.
    modules = {path.stem for path in SRC.glob("*.py")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                names_modules = (
                    isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module is None
                    and all(a.name in modules for a in node.names)
                )
                if path.stem != "cli" or not names_modules:
                    found.append(f"{path.name}:{node.lineno}")
    assert modules
    assert found == []


# Defaulted parameters that no call in the package sets, each kept on
# purpose.  Input forms the package never passes are kept for the same
# reason, though this syntactic gate cannot see them: ``fit_power_law``'s
# 2-tuples and the outcome models' 1-D rows, which the acceptance tests
# use.
_ITEM_4 = "paired model comparison, ROADMAP item 4"
UNSET_PARAMETERS = {
    ("compare_discrimination_test", "level"): _ITEM_4,
    ("compare_discrimination_test", "groups"): _ITEM_4,
    ("compare_models_bias_variance", "level"): _ITEM_4,
    ("compare_models_bias_variance", "groups"): _ITEM_4,
    ("homoskedastic_noise_gap", "groups"): "oracle of acceptance criterion 3",
    ("run_cli", "argv"): "the entry point reads sys.argv when called bare",
}


def _functions():
    """(module, function node, 1 for a method's ``self`` or ``cls`` else 0)
    for every function the package defines, nested ones included."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {
            fn for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            and not any(getattr(d, "id", None) == "staticmethod"
                        for d in fn.decorator_list)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                yield path.stem, node, int(node in methods)


def _calls_by_name():
    """Every call in the package, keyed by the name it calls: ``f(...)``
    and ``x.f(...)`` both call ``f``."""
    calls = {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def _sets(call, name, position):
    """Whether ``call`` may pass the parameter ``name``: by keyword, by
    ``**``, or by position (``position`` counts the caller's arguments;
    None for keyword-only) or ``*``."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(
        isinstance(arg, ast.Starred) for arg in call.args)


def test_every_defaulted_parameter_is_set_by_the_package_or_allowlisted():
    calls = _calls_by_name()
    unset = set()
    for _, fn, bound in _functions():
        a = fn.args
        positional = a.posonlyargs + a.args
        defaulted = [
            (arg.arg, i - bound)
            for i, arg in enumerate(positional)
            if i >= len(positional) - len(a.defaults)
        ] + [
            (arg.arg, None)
            for arg, default in zip(a.kwonlyargs, a.kw_defaults)
            if default is not None
        ]
        for name, position in defaulted:
            if not any(_sets(call, name, position)
                       for call in calls.get(fn.name, ())):
                unset.add((fn.name, name))
    assert calls
    assert unset == set(UNSET_PARAMETERS)


def _is_stub(fn):
    """An interface method whose body, past its docstring, only raises
    NotImplementedError."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    return len(body) == 1 and isinstance(body[0], ast.Raise) and (
        getattr(body[0].exc, "id", None) == "NotImplementedError")


def test_every_parameter_is_read_by_its_function():
    unread = []
    functions = list(_functions())
    for module, fn, bound in functions:
        if _is_stub(fn):
            continue
        a = fn.args
        params = (a.posonlyargs + a.args)[bound:] + a.kwonlyargs + [
            arg for arg in (a.vararg, a.kwarg) if arg is not None]
        read = {
            node.id for stmt in fn.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name)
        }
        unread += [f"{module}.{fn.name}:{arg.arg}" for arg in params
                   if arg.arg not in read]
    assert functions
    assert unread == []
