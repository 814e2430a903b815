"""Every public top-level function and class of bnlab has a reader that matters.

A name counts as read when it is named outside its own definition in the
package itself, in perfbench/ or in tests/test_acceptance.py: a name that only
unit tests read is code that no pipeline, benchmark or acceptance line uses.
Click commands count as read through their decorator.  Names are taken from
the syntax tree: names, attributes, imports, and strings that are a dotted name,
as perfbench's span keys are ("kernels.HeatKernel.value" names all three parts).
Prose, such as a docstring that mentions a name, does not count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bnlab"

# kept because a test certifies the paper identity that their docstring states
IDENTITIES = {
    "spectral_correlation": "the Bessel correlation exponent kappa - m, which separates p718i "
                            "from p718ii (test_spectral_correlation_small_scale_exponent)",
    "time_decay_integral": "the half-space flux time integral int_0^inf s^(-2-alpha) "
                           "e^(-1/s - r^2 s) ds (test_time_decay_integral_values)",
}


DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _named(node):
    """Every name, attribute, imported name and dotted-name string under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.update(sub.name.split("."), [sub.asname])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and DOTTED.fullmatch(sub.value):
            out.update(sub.value.split("."))
    return out


def _is_click_command(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _unread_public_names():
    readers = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")) \
        + [ROOT / "tests" / "test_acceptance.py"]
    defined, reads = [], []
    for path in readers:
        for stmt in ast.parse(path.read_text()).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and path.parent == PACKAGE:
                own = stmt.name
                if not stmt.name.startswith("_") and not _is_click_command(stmt):
                    defined.append((path.stem, stmt.name))
            reads.append((path, own, _named(stmt)))
    return sorted(f"{mod}.{name}" for mod, name in defined
                  if not any(name in names for path, own, names in reads
                             if not (path.stem == mod and path.parent == PACKAGE and own == name)))


def test_every_public_name_is_read_outside_the_unit_tests():
    unread = _unread_public_names()
    assert sorted(n.split(".")[1] for n in unread) == sorted(IDENTITIES), unread
