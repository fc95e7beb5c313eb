"""Imports inside the package go one way: each module imports only from
modules on a strictly lower layer.  The package `__init__` sits on the bottom
layer, so it imports nothing from the package."""

import ast
from pathlib import Path

import vclab

LAYERS = [
    {"__init__", "errors", "groups", "rational"},
    {"constructible"},
    {"cantor"},
    {"approx", "border", "counterexample", "vc", "witness"},
    {"cli"},
]
LAYER_OF = {name: i for i, names in enumerate(LAYERS) for name in names}
PACKAGE = Path(vclab.__file__).parent


def relative_imports(path):
    """(line, module) for every `from .x import ...`, at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            yield node.lineno, node.module


def test_imports_point_to_lower_layers():
    upward = []
    for path in sorted(PACKAGE.glob("*.py")):
        for line, module in relative_imports(path):
            if LAYER_OF.get(module, len(LAYERS)) >= LAYER_OF[path.stem]:
                upward.append(f"{path.name}:{line} imports .{module}")
    assert not upward
