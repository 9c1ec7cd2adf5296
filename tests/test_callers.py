"""The standing caller rule: every `def` and `class` of the package has a
caller in `src/`, `scripts/` or `perfbench/`, or is kept on purpose. A
helper used only by tests lives in `tests/`."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gausslab"

# kept with no caller in the scanned trees
KEPT = {
    # what tests/test_acceptance.py checks against the paper
    "generalized_cylinder",
    "cone_shape_from_link",
    "composition_energy_check",
    "grassmann_curvature",
    "GrassmannTangent.rank_one",
    # the paper's corollary
    "corollary_necessary_condition",
    # the exact layer's public edge
    "count_real_roots_in",
    "Polynomial.content_normalized",
}


def _docstrings(tree: ast.AST) -> set[int]:
    """The ids of the docstring constants of a module, its classes and its
    functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                found.add(id(first.value))
    return found


def _all_entries(tree: ast.AST) -> set[int]:
    """The ids of the string constants listed in `__all__`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            found.update(id(c) for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return found


def _references(tree: ast.AST) -> Counter:
    """Every name the tree refers to: `Name` ids, `Attribute` names, imported
    names, and the string constants that are neither docstrings nor `__all__`
    entries."""
    skip = _docstrings(tree) | _all_entries(tree)
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in skip:
            names[node.value] += 1
    return names


def _definitions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of each `def` and `class`, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from _definitions(node, prefix + node.name + ".")
        else:
            yield from _definitions(node, prefix)


def test_every_definition_has_a_caller_or_is_kept():
    trees = [ast.parse(path.read_text(), str(path))
             for top in ("src", "scripts", "perfbench") for path in sorted((ROOT / top).rglob("*.py"))]
    references = sum((_references(tree) for tree in trees), Counter())
    uncalled = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for qualname, node in _definitions(ast.parse(path.read_text(), str(path))):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            # a reference inside its own body, such as a recursive call, is no caller
            if references[name] - _references(node)[name] <= 0:
                uncalled.add(qualname)
    assert uncalled == KEPT
