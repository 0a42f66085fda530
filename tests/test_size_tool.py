"""``tools/size.py``, the size report of design changes, run as a script."""

import json
import subprocess
import sys
from pathlib import Path

import knots

ROOT = Path(__file__).resolve().parent.parent


def test_size_prints_one_json_line_that_adds_up():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "size.py")],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert len(out.splitlines()) == 1
    report = json.loads(out)
    assert set(report) == {"src_lines", "code_lines", "all_names", "modules"}
    package = ROOT / "src" / "knots"
    files = list(package.rglob("*.py"))
    assert report["all_names"] == len(knots.__all__)
    assert report["code_lines"] == sum(report["modules"].values())
    assert report["src_lines"] == sum(len(p.read_text().splitlines()) for p in files)
    assert set(report["modules"]) == {p.relative_to(package).as_posix() for p in files}
