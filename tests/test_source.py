import ast
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
