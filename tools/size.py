#!/usr/bin/env python3
"""Print the size of the package as one JSON line.

``src_lines`` counts the lines of every ``src/knots/**/*.py`` file and
``all_names`` the names in ``knots.__all__``.  Design changes report
these two numbers before and after.  Run from anywhere:

    python3 tools/size.py
"""

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

sys.path.insert(0, str(SRC))
import knots  # noqa: E402  (from this checkout's src/, not an installed copy)

lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "knots").rglob("*.py")))
print(json.dumps({"src_lines": lines, "all_names": len(knots.__all__)}))
