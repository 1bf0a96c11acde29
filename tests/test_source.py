"""Source hygiene: every definition in the package is used by the package."""
import ast
from pathlib import Path

import kahlerid

SRC = Path(__file__).resolve().parent.parent / "src" / "kahlerid"

# wrapped by name from outside the package (the benchmark's tracer counts its calls)
ALLOWED = {"ExactMatrix.frobenius_inner"}


def _definitions(tree: ast.Module):
    """(qualified name, name) of each top-level function and class, and of
    each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_in_src_is_referenced_in_src():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    used = {name for module, tree in trees.items() if module != "__init__.py"
            for name in _references(tree)}
    dead = [f"{module}: {qual}" for module, tree in trees.items()
            for qual, name in _definitions(tree) if name not in used and qual not in ALLOWED]
    assert not dead, dead


def test_every_exported_name_resolves():
    missing = [name for name in kahlerid.__all__ if not hasattr(kahlerid, name)]
    assert not missing, missing
