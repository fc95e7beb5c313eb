"""No floating point enters the package outside a short, named allowlist:
every `float(...)` call, float literal and float-valued `math` name in
`src/vclab/*.py` is found with `ast` and must be one of the uses below.

True division of two ints also yields a float; that cannot be seen without
types and is not checked here."""

import ast
from collections import Counter
from pathlib import Path

import vclab

PACKAGE = Path(vclab.__file__).parent
FLOAT_MATH = {"inf", "nan", "e", "pi", "tau", "exp", "log", "log2", "log10", "sqrt"}

# (file, enclosing function, use) -> how often it may occur
ALLOWED = Counter({
    # the *_float CSV columns, for plotting only
    ("cli.py", "cmd_steinhaus", "float()"): 1,
    ("cli.py", "cmd_border_sweep", "float()"): 1,
    # the hitting-set point count ceil(ln|U| / epsilon)
    ("approx.py", "hitting_set_for_translates", "math.log"): 1,
    ("approx.py", "hitting_set_for_translates", "float()"): 1,
    # rng.random() < 0.5 coin flips
    ("border.py", "random_constructible", "0.5"): 2,
})


def _float_use(node):
    """A label for a node that brings in a float, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return repr(node.value)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
        return "float()"
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "math" and node.attr in FLOAT_MATH):
        return f"math.{node.attr}"
    if isinstance(node, ast.ImportFrom) and node.module == "math":
        names = sorted(a.name for a in node.names if a.name in FLOAT_MATH)
        return f"from math import {', '.join(names)}" if names else None
    return None


def float_uses(path):
    """(file, enclosing function, use) for every float use in the file."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            use = _float_use(child)
            if use is not None:
                found.append((path.name, ".".join(scope), use))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_floats_only_where_allowed():
    found = Counter(use for path in sorted(PACKAGE.glob("*.py")) for use in float_uses(path))
    assert found == ALLOWED


def test_guard_sees_each_kind_of_use(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import math\nfrom math import inf, lcm\n"
        "class A:\n    def f(self, x):\n        return float(x) + 1e-9 + math.log(2) + math.inf\n"
    )
    assert sorted(float_uses(probe)) == sorted([
        ("probe.py", "", "from math import inf"),
        ("probe.py", "A.f", "float()"),
        ("probe.py", "A.f", "1e-09"),
        ("probe.py", "A.f", "math.log"),
        ("probe.py", "A.f", "math.inf"),
    ])
