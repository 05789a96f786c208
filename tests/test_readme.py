"""The README's library quick start runs as printed and gives the values its
comments state, and its CLI commands parse."""

import ast
import shlex
from pathlib import Path

from scmech import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def block(heading, language):
    """The first ``language`` code block under ``heading``."""
    text = README.read_text()
    section = text[text.index(heading):]
    fence = f"```{language}\n"
    start = section.index(fence) + len(fence)
    return section[start:section.index("```", start)]


def quick_start():
    """The source of the python block under "## Library quick start"."""
    return block("## Library quick start", "python")


def cli_commands():
    """The commands of the sh block under "## CLI", continuation lines
    joined, each split as the shell splits it."""
    text = block("## CLI", "sh").replace("\\\n", " ")
    return [shlex.split(line) for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


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


def test_cli_commands_parse():
    # parsed, not run: a command naming a removed or misspelled flag fails
    # here (the parser raises SpecParseError) before a user meets it
    commands = cli_commands()
    parser = cli.build_parser()
    for argv in commands:
        assert argv[0] == "scmech"
        ns = parser.parse_args(argv[1:])
        assert ns.func.__name__ == "_cmd_" + ns.command.replace("-", "_")
    assert [argv[1] for argv in commands] == [
        "optimize", "verify", "revenue", "truncate", "multibuyer",
        "validate-domain"]
