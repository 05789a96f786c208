"""The README's library quick start runs as printed and gives the values its
comments state, and its CLI commands parse, typed or from a config."""

import ast
import json
import shlex
from pathlib import Path

from helpers import cli_options
from scmech import cli
from scmech.errors import SpecParseError

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
                       "check_strategy_proof", "cm.limit_bundle",
                       "cm.evaluate", "round", "len"]


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


def _config_value(text):
    """A flag's text as a config value: a JSON number where it is one."""
    try:
        value = json.loads(text)
    except ValueError:
        return text
    return value if isinstance(value, (int, float)) else text


def test_cli_commands_parse_from_a_config(tmp_path, monkeypatch):
    # every option a command need not type, moved into a --config file
    # with "_" in its key, gives the options of the typed command; so an
    # option added to a README command is covered here too
    parser = cli.build_parser()
    cfg = tmp_path / "cfg.json"
    for argv in cli_commands():
        command, options = argv[1], list(zip(argv[2::2], argv[3::2]))
        assert len(argv) % 2 == 0 and all(f.startswith("--") for f, _ in options)
        typed, config = [command], {}
        for flag, value in options:
            rest = [x for other in options if other[0] != flag for x in other]
            try:
                parser.parse_args([command, *rest])
            except SpecParseError:  # a required option stays typed
                typed += [flag, value]
            else:
                config[flag[2:].replace("-", "_")] = _config_value(value)
        cfg.write_text(json.dumps(config))
        assert (cli_options(monkeypatch, [*typed, "--config", str(cfg)])
                == cli_options(monkeypatch, argv[1:]))
