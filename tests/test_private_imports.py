"""No module of the package imports a private name from another one."""

import ast
from pathlib import Path

import knots

PACKAGE = Path(knots.__file__).resolve().parent


def test_no_module_imports_a_private_knots_name():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "knots":
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {alias.name}")
    assert not offenders, offenders
