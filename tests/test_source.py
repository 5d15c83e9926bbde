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
