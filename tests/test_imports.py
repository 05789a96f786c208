"""Import guards: scipy is loaded only by the calls that use it, and no
module imports a name it does not use.

Each scipy check runs in a fresh interpreter, because this test process
has scipy loaded already."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MECH = {"domain": {"family": "quasilinear", "params": {"lo": 0, "hi": 1}},
        "bundles": [[0, 0], [0.5, 1]], "breakpoints": [0.5]}
KINKED = {"table": [[0, 0], [0.25, 0.05], [0.35, 0.6], [0.8, 0.65], [1, 1]]}


def scipy_after(argv, cwd):
    """Exit code of ``scmech.cli.main(argv)`` (None for a bare import) and
    the scipy modules loaded afterwards, run in a fresh interpreter."""
    script = "\n".join([
        "import json, sys",
        "import scmech",
        "from scmech.cli import main" if argv is not None else "",
        f"rc = main({argv!r})" if argv is not None else "rc = None",
        "mods = sorted(m for m in sys.modules",
        "              if m == 'scipy' or m.startswith('scipy.'))",
        "print(json.dumps({'rc': rc, 'scipy': mods}))",
    ])
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    return record["rc"], record["scipy"]


def test_import_loads_no_scipy(tmp_path):
    assert scipy_after(None, tmp_path) == (None, [])


# the README invocations of the subcommands that need no scipy
@pytest.mark.parametrize("argv, rc", [
    (["verify", "--mech", "mech.json", "--grid", "500",
      "--out", "report.json", "--csv", "report.csv"], 0),
    (["truncate", "--domain", "sqrt_quasilinear:0.2,1", "--dist", "uniform:0.2,1",
      "--line", "3,0.0833333333333333,0.3333333333333333",
      "--seq", "harmonic:0.6666666666666666,1,3", "--eps", "0.05",
      "--out", "trunc.json"], 0),
    (["multibuyer", "--n", "2", "--dist", "uniform:0,1",
      "--samples", "1000000", "--seed", "7"], 0),
    (["validate-domain", "--domain", "power_q_raw:0.05,0.95",
      "--params", "0.3333333333333333,0.6666666666666666",
      "--anchor-t", "1.0", "--anchor-q", "0.125,0.5"], 2),
    (["optimize", "--domain", "quasilinear", "--dist", "uniform:0,1",
      "--max-bundles", "4", "--out", "mech.json"], 0),
    # the gradient ascents of the two exact-quantity paths are the
    # solver's own, so neither loads scipy.optimize, on a table either
    (["optimize", "--domain", "risk_averse", "--dist", "uniform:0.1,1",
      "--max-bundles", "3", "--revenue-mode", "expected_payment"], 0),
    (["optimize", "--domain", "income_effect", "--dist", "uniform:0.1,1",
      "--max-bundles", "3"], 0),
    (["optimize", "--domain", "risk_averse:0,1", "--dist", "kinked.json",
      "--max-bundles", "4", "--revenue-mode", "expected_payment"], 0),
    # on a CDF without inner knots the breakpoint search starts from the
    # chain DP alone, so no posted price is refined by scipy.optimize
    (["optimize", "--domain", "risk_averse:0,1", "--dist", "beta:2,3",
      "--max-bundles", "4", "--revenue-mode", "expected_payment"], 0),
    # an integer-shape beta CDF is a polynomial of the package's own
    (["revenue", "--mech", "mech.json", "--dist", "beta:2,3"], 0),
], ids=["verify", "truncate", "multibuyer", "validate-domain", "optimize",
        "optimize-risk_averse", "optimize-income_effect",
        "optimize-risk_averse-table", "optimize-risk_averse-beta",
        "revenue-beta-integer"])
def test_subcommand_loads_no_scipy(tmp_path, argv, rc):
    (tmp_path / "mech.json").write_text(json.dumps(MECH))
    (tmp_path / "kinked.json").write_text(json.dumps(KINKED))
    assert scipy_after(argv, tmp_path) == (rc, [])


def test_beta_revenue_loads_only_special(tmp_path):
    # a non-integer shape's CDF is scipy.special.betainc
    (tmp_path / "mech.json").write_text(json.dumps(MECH))
    rc, mods = scipy_after(["revenue", "--mech", "mech.json",
                            "--dist", "beta:2.5,3"], tmp_path)
    assert rc == 0
    assert "scipy.special" in mods
    assert not {"scipy.stats", "scipy.integrate", "scipy.optimize"} & set(mods)


def unused_imports(source: str) -> list:
    """Module-level imported names that appear nowhere else in ``source``
    as a name; one used only inside a quoted annotation counts as unused."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.partition(".")[0]
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


# the package's __init__ imports names to re-export them
@pytest.mark.parametrize("path", sorted(
    path for path in (SRC / "scmech").glob("*.py") if path.name != "__init__.py"),
    ids=lambda path: path.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []
