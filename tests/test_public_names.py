"""Every public top-level function and class of bnlab has a reader that matters,
every private function, class and method has a reader in the code, and every
keyword parameter with a default has a caller that sets it.

Both guards count only the files that matter, READERS: the package itself,
perfbench/ and tests/test_acceptance.py.  What only unit tests read or set is
code that no pipeline, benchmark or acceptance line uses: a public name only
unit tests read goes, and a default only unit tests set is a setting with one
value, which belongs in the body as a constant.  The two tables below name the
few that stay, each with the test that needs it.

A private definition counts as read when the package or perfbench/ names it
outside that definition: a private name that only tests name is dead code.

A name counts as read when it is named outside its own definition.  Click
commands count as read through their decorator.  Names are taken from the
syntax tree: names, attributes and imports, the reads that run code.  No
string counts, neither prose such as a docstring that mentions a name nor a
dotted key such as perfbench's span names ("kernels.HeatKernel.value").
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bnlab"
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")) \
    + [ROOT / "tests" / "test_acceptance.py"]

# kept because a test certifies a paper identity or claim that their docstring states
IDENTITIES = {
    "gaussian_boundary_mass": "the quadrature reference for the closed form "
                              "ball_boundary_mass_exact behind J on p74 and p78 "
                              "(test_boundary_mass_quadrature_vs_exact_radial)",
    "extension_bound": "the C0 semigroup on the weighted space for theta < 2p - 1, the "
                       "abstract's first claim (test_extension_bound_subcritical)",
}

# kept because a test needs a value that no pipeline sets
KEPT = {
    "kernels.gaussian_boundary_mass(level)": "the sphere rule of this quadrature reference at a "
                                             "level a test can afford "
                                             "(test_boundary_mass_quadrature_vs_exact_radial)",
    "semigroup.gradient_smoothing_ratio(order)": "order 2 certifies the second-derivative rate "
                                                 "t^-1 (test_second_derivative_rate_halfline)",
    "semigroup.stability_rate(horizon)": "a shorter window for the faster decay of sin 2 pi x "
                                         "(test_stability_rate)",
    "semigroup.stability_rate(psi_values)": "the fitted rate follows the slowest mode of the "
                                            "data: 4 pi^2 for sin 2 pi x, at least pi^2 for "
                                            "positive data (test_stability_rate)",
    "semigroup.stability_rate(grid)": "the grid those data are sampled on "
                                      "(test_stability_rate)",
}


def _named(node):
    """How often each name, attribute and imported name is named under node."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out.update(sub.name.split("."))
            out[sub.asname] += 1
    return out


def _is_click_command(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _unread_public_names():
    defined, reads = [], []
    for path in READERS:
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


def _private_definitions(tree):
    """The private top-level functions and classes of a module and the private
    methods of its classes; dunder methods are not private."""
    for stmt in tree.body:
        for node in [stmt] + (stmt.body if isinstance(stmt, ast.ClassDef) else []):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") and not node.name.endswith("__"):
                yield node


def test_every_private_name_is_read_in_the_package_or_perfbench():
    trees = {path: ast.parse(path.read_text()) for path in READERS
             if path.parent in (PACKAGE, ROOT / "perfbench")}
    named = sum((_named(tree) for tree in trees.values()), Counter())
    defined = [(path.stem, node) for path, tree in trees.items() if path.parent == PACKAGE
               for node in _private_definitions(tree)]
    assert defined
    unread = [f"{mod}.{node.name}" for mod, node in defined
              if named[node.name] == _named(node)[node.name]]
    assert unread == []


def _defaulted_parameters(path):
    """(callee, parameter, position) of every parameter with a default in the file.

    The callee is the name a call uses: the class for __init__.  The position
    counts from the first argument a call passes (None for keyword-only), so a
    method's self is not counted.
    """
    out = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, ast.FunctionDef):
                args = node.args.posonlyargs + node.args.args
                skip = 1 if cls and "staticmethod" not in {getattr(d, "id", None)
                                                           for d in node.decorator_list} else 0
                callee = cls if node.name == "__init__" else node.name
                first = len(args) - len(node.args.defaults)
                out.extend((callee, a.arg, i - skip) for i, a in enumerate(args[first:], first))
                out.extend((callee, a.arg, None) for a, d in zip(node.args.kwonlyargs,
                                                                 node.args.kw_defaults)
                           if d is not None)
                visit(node.body, None)

    visit(ast.parse(path.read_text()).body, None)
    return out


def _calls(path):
    """(callee name, call) of every call in the file.

    A bare name that the file defines at top level is its own function, unless
    the file is the package module that defines it: perfbench's _j_verdict is
    not convolution's.
    """
    tree = ast.parse(path.read_text())
    own = set() if path.parent == PACKAGE else {
        n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id not in own:
                yield node.func.id, node
            elif isinstance(node.func, ast.Attribute):
                yield node.func.attr, node


def _dict_keys(path):
    """The string keys of the dict literals in the file: all that a **name there can pass."""
    return {k.value for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Dict)
            for k in node.keys if isinstance(k, ast.Constant) and isinstance(k.value, str)}


def _sets(call, param, position, keys):
    """Whether the call passes the parameter: by keyword, by position, or by unpacking.

    A **name passes the parameter only if keys, the string keys of the dict
    literals in the call's file, hold its name; a *name passes every position.
    """
    if any(k.arg == param or (k.arg is None and param in keys) for k in call.keywords):
        return True
    return position is not None and (len(call.args) > position
                                     or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_set_by_some_call():
    calls = {}
    for path in READERS:
        keys = _dict_keys(path)
        for name, call in _calls(path):
            calls.setdefault(name, []).append((call, keys))
    unset = sorted(f"{path.stem}.{callee}({param})" for path in sorted(PACKAGE.glob("*.py"))
                   for callee, param, position in _defaulted_parameters(path)
                   if not any(_sets(c, param, position, keys)
                              for c, keys in calls.get(callee, [])))
    assert unset == sorted(KEPT), "unset: " + ", ".join(unset)
