"""Every public name of the package is reachable from the program.

A public module-level function or class of ``sc_control``, or a public
method of a module-level class, must be referred to by ``src/`` or
``scripts/`` somewhere outside its own definition: as a name, an attribute,
an import or a string constant.  A name only tests call is either a test
oracle, which belongs in ``tests/``, or dead code.
"""

import ast
from pathlib import Path

import sc_control

PACKAGE = Path(sc_control.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
# public names that wait on a planned caller: solve_barriers will return the
# dividend-only solution when no tangency exists
ALLOWED = {"bank_full.solve_dividend_only"}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree, module):
    """(qualified name, bare name, node) of each checked definition."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if _public(node.name):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _references(tree):
    """(name, line) of every name, attribute, import and string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _program_files():
    return sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def unreachable() -> list:
    """Qualified names of the checked definitions that nothing refers to."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in _program_files()}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    out = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualified, name, node in _definitions(tree, path.stem):
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(ref == name and (other != path or line not in inside)
                       for other, found in refs.items() for ref, line in found):
                out.append(qualified)
    return out


def test_every_public_name_is_reachable():
    missing = [name for name in unreachable() if name not in ALLOWED]
    assert not missing, "public names only tests call: " + ", ".join(missing)


def test_allowlist_is_not_stale():
    assert ALLOWED <= set(unreachable())
