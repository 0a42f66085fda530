"""The README's library quick start runs and shows what it returns."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start():
    """The code block of the README's "Library quick start" section."""
    section = README.read_text().split("\n## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_quick_start_lines_show_their_values():
    # An ``expr  # value`` line must give repr(expr) == value; text after
    # two spaces, such as ``-1  (the t^2 coefficient)``, is a remark.
    # Every other line (imports, assignments) runs as a statement.
    namespace, checked = {}, 0
    for line in _quick_start().splitlines():
        code, _, comment = line.partition("  #")
        try:
            expr = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(line, namespace)
            continue
        want = comment.strip().split("  ")[0]
        assert repr(eval(expr, namespace)) == want, line
        checked += 1
    assert checked >= 4
