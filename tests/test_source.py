import ast
import importlib
import importlib.util
import pathlib

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


ROOT = SRC.parent.parent
# Bindings the benchmark's tracer expects but this package no longer has;
# traced runs skip an absent binding.  ``per_sample_losses`` left
# ``subgroups`` when its cells came to index one per-row loss pass.
ABSENT_BINDINGS = {"subgroups.per_sample_losses"}


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
    "bhattacharyya_bounds": "called by noise_bounds.all_bounds (noise)",
    "cover_hart_lower": "called by noise_bounds.nn_bounds (noise)",
    "mahalanobis_upper": "called by noise_bounds.all_bounds (noise)",
    "nn_bounds": "called by noise_bounds.all_bounds (noise)",
    "fit_power_law": "called by curves.fit_curve_experiment (curves)",
    "group_cost": "called by costs.discrimination_level (audit)",
    "welch_t": "called by stats.pairwise_welch_holm (test)",
    # Analyses no subcommand reaches yet.
    "class_conditional_decomposition": "FPR/FNR decomposition, ROADMAP item 2",
    "compare_models_bias_variance": "paired model comparison, ROADMAP item 4",
    "compare_discrimination_test": "paired model comparison, ROADMAP item 4",
    "power_law_crossings": "group-targeted learning curves, ROADMAP item 5",
    "power_law_critical_point": "group-targeted learning curves, ROADMAP item 5",
    "point_decomposition": "one-point oracle of the acceptance tests",
    "weighted_group_error": "thin wrapper through which tests probe subgroup cells",
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
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name: node.module
        for node in init.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
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


# Defaulted parameters that no call in the package sets, each kept on
# purpose.  Input forms the package never passes are kept for the same
# reason, though this syntactic gate cannot see them: the split kernels'
# unbinned matrices (``bins=None``), which the kernel tests feed to their
# loop references; ``fit_power_law``'s 2-tuples and the outcome models'
# 1-D rows, which the acceptance tests use.
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
