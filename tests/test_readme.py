"""The README's library quick start runs as printed and gives the values its
comments state."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start():
    """The source of the python block under "## Library quick start"."""
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_library_quick_start_gives_its_commented_values():
    # each expression statement is evaluated in turn; one with a comment
    # must print as the comment's text up to a colon, and one without must
    # be True (the closing `.ok`)
    source = quick_start()
    lines = source.splitlines()
    scope = {}
    checked = []
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(compile(code, str(README), "exec"), scope)
            continue
        value = eval(compile(code, str(README), "eval"), scope)
        _, hash_, comment = lines[stmt.end_lineno - 1].partition("#")
        if hash_:
            expected = comment.split(":")[0].strip()
            assert repr(value) == expected, (code, value)
        else:
            assert value is True, code
        checked.append(code.split("(")[0].strip())
    assert checked == ["mech.breakpoints", "mech.evaluate", "sol.revenue",
                       "check_strategy_proof"]
