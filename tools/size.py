#!/usr/bin/env python3
"""Print the size of the package as one JSON line.

``src_lines`` counts the lines of every ``src/knots/**/*.py`` file and
``all_names`` the names in ``knots.__all__``.  ``code_lines`` counts the
same files' lines that are not blank, not comment-only and not inside a
module, class or function docstring, so it shows whether a change
removed code rather than prose; ``modules`` gives the same count for
each file, keyed by its path under ``src/knots``.  Design changes
report these numbers before and after.  Run from anywhere:

    python3 tools/size.py
"""

import ast
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def code_lines(text):
    """Lines of ``text`` that hold code, docstrings and comments aside."""
    prose = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                prose.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for n, line in enumerate(text.splitlines(), 1)
        if n not in prose and line.strip() and not line.lstrip().startswith("#")
    )


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    import knots  # from this checkout's src/, not an installed copy

    texts = {
        p.relative_to(SRC / "knots").as_posix(): p.read_text()
        for p in sorted((SRC / "knots").rglob("*.py"))
    }
    modules = {name: code_lines(t) for name, t in texts.items()}
    print(
        json.dumps(
            {
                "src_lines": sum(len(t.splitlines()) for t in texts.values()),
                "code_lines": sum(modules.values()),
                "all_names": len(knots.__all__),
                "modules": modules,
            }
        )
    )
