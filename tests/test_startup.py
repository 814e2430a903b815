"""Start-up loads only what a run uses.

The check runs in a fresh interpreter: pytest itself imports scipy.integrate
to resolve the IntegrationWarning filter in pyproject.toml.  No run loads
scipy.integrate.  scipy.special is loaded by the functions that call it, so
`list` and the verify suites that need no special function do not load it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import importlib, pkgutil, sys
import bnlab, bnlab.cli
for mod in pkgutil.iter_modules(bnlab.__path__):
    importlib.import_module("bnlab." + mod.name)
bnlab.cli.main(["list"], standalone_mode=False)
bnlab.cli.main(sys.argv[1:], standalone_mode=False)
heavy = sorted(m for m in sys.modules
               if m.split(".")[:2] in (["scipy", "integrate"], ["scipy", "optimize"],
                                       ["scipy", "sparse"]))
print("heavy:", heavy)
print("special:", "scipy.special" in sys.modules)
"""


def _start(tmp_path, *args):
    # bnlab imported, `list` run, then the command args in the same interpreter
    env = dict(os.environ, PYTHONPATH=str(SRC), BNLAB_OUT=str(tmp_path / "out"))
    res = subprocess.run([sys.executable, "-c", SCRIPT, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert " written to " in res.stdout
    return res.stdout.splitlines()[-2:]


def test_imports_list_and_simulate_load_no_quadrature_or_sparse_modules(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("pipeline = simulate\nscenario = p71\nn_paths = 20\nbase_steps = 64\n")
    assert _start(tmp_path, "run", str(cfg))[0] == "heavy: []"


def test_verify_kernels_loads_no_quadrature_or_sparse_modules(tmp_path):
    # the resolvent's Laplace quadrature is bnlab's own
    assert _start(tmp_path, "verify", "kernels") == ["heavy: []", "special: False"]


def test_appendix_checks_load_no_quadrature_or_sparse_modules(tmp_path):
    # the far-weight constants use bnlab's own Gauss-Kronrod quadrature
    assert _start(tmp_path, "verify", "appendix") == ["heavy: []", "special: True"]


def test_list_and_verify_schur_load_no_special_functions(tmp_path):
    assert _start(tmp_path, "verify", "schur") == ["heavy: []", "special: False"]
