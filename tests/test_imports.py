"""Which heavy libraries each entry point loads, in a fresh interpreter.

etarho runs on mpmath alone: numpy and sympy are test oracles only.  No
entry point may load either.  Two more source guards sit here: the
Class+-_0 parity rule is decided in one place, and the exact layer imports
no mpmath.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).parents[1] / "src")

# prints the heavy modules loaded after running ``code``
PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
{code}
print(json.dumps(sorted(m for m in ("sympy", "numpy") if m in sys.modules)))
"""

# runs ``code`` with an import hook in place that refuses numpy and sympy
REFUSE = """
import contextlib, io, sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "sympy"):
            raise ModuleNotFoundError(f"import of {{name}} refused")
        return None

sys.meta_path.insert(0, Refuse())
with contextlib.redirect_stdout(io.StringIO()):
{code}
"""


def _indented(code: str) -> str:
    return "\n".join("    " + line for line in code.splitlines())


def _run(script: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)


def loaded_after(code: str) -> list[str]:
    proc = _run(PROBE.format(code=_indented(code)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def cli_code(argv) -> str:
    return f"from etarho.cli import main\nassert main({argv!r}) == 0"


@pytest.mark.parametrize("module", ["etarho", "etarho.cli"])
def test_import_loads_neither_sympy_nor_numpy(module):
    assert loaded_after(f"import {module}") == []


@pytest.mark.parametrize("argv", [
    ["lens", "--n", "7", "--weights", "1,2,3"],
    ["chars", "--group", "cyclic:5", "--basis", "plus"],
    ["induce", "--sub", "cyclic:2", "--target", "cyclic:4", "--map", "0,2", "--rho", "5,7"],
    ["circle", "--subset", "ap:1,1", "--terms", "100"],
    ["circle", "--subset", "primes", "--terms", "1000"],
    ["zoo", "--group", "hnn", "--normalize", "t q:1/2 e:3 t^-1"],
    ["ringcheck", "--orders", "6,inf,999999999989", "--value", "1/3"],
], ids=lambda argv: " ".join(argv[:3]))
def test_cli_run_loads_neither_sympy_nor_numpy(argv):
    assert loaded_after(cli_code(argv)) == []


# growth and the field inverse once loaded numpy and sympy respectively; the
# test names keep that history, and both must now load neither
def test_growth_loads_numpy_only():
    argv = ["growth", "--group", "lamplighter:2", "--element", "lamp:0", "--max-radius", "8"]
    assert loaded_after(cli_code(argv)) == []


def test_field_inverse_loads_sympy_only():
    code = ("from etarho.cyclotomic import CyclotomicValue\n"
            "z = CyclotomicValue.root_of_unity(7)\n"
            "assert (z + 2).inverse() * (z + 2) == 1")
    assert loaded_after(code) == []


# one call of every subcommand, the full acceptance suite included
EVERY_SUBCOMMAND = [
    ["chars", "--group", "cyclic:5", "--basis", "plus"],
    ["induce", "--sub", "cyclic:2", "--target", "cyclic:4", "--map", "0,2", "--rho", "5,7"],
    ["lens", "--n", "7", "--weights", "1,2,3"],
    ["circle", "--subset", "finite:1,2", "--audit"],
    ["growth", "--group", "lamplighter:2", "--element", "lamp:0", "--max-radius", "8"],
    ["zoo", "--group", "hnn", "--normalize", "t q:1/2 e:3 t^-1"],
    ["ringcheck", "--orders", "6,inf,999999999989", "--value", "1/3"],
    ["verify"],
]


def test_everything_runs_with_numpy_and_sympy_refused():
    code = "\n".join(cli_code(argv) for argv in EVERY_SUBCOMMAND) + "\n" + "\n".join([
        "from etarho.cyclotomic import CyclotomicValue",
        "x = CyclotomicValue.root_of_unity(7) + 2",
        "assert x * x.inverse() == 1",
        "assert (1 / x) * x == 1",
        "assert x ** -2 * x * x == 1",
    ])
    proc = _run(REFUSE.format(code=_indented(code)))
    assert proc.returncode == 0, proc.stderr


# The parity string is checked only by chars._parity_sign, and the dimension
# class (plus iff dim = 3 mod 4) only by LensSpace.parity; cli and verify ask
# for the rule rather than work it out from dim.
def test_parity_rule_decided_once():
    package = Path(SRC) / "etarho"
    offenders = [path.name for path in sorted(package.glob("*.py"))
                 if path.name != "chars.py" and "parity must be" in path.read_text()]
    offenders += [name for name in ("cli.py", "verify.py")
                  if "% 4" in (package / name).read_text()]
    assert offenders == []


# mpmath serves the numeric embedding and the circle quadrature; the modules
# that compute exact class functions, ranks and lens tables do not import it
@pytest.mark.parametrize("name", ["chars.py", "rho.py", "lens.py", "exactlinalg.py"])
def test_exact_layer_imports_no_mpmath(name):
    tree = ast.parse((Path(SRC) / "etarho" / name).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    assert [m for m in imported if m.partition(".")[0] == "mpmath"] == []
