"""Mutation audit of the exact kernels: does a test module notice a one-site change?

For each kernel below, every mutation site in its body is changed alone, one
site per mutant:

- a comparison operator is swapped (< and <=, > and >=, == and !=, in and
  not in, is and is not);
- + and - are swapped, in binary operations, augmented assignments and the
  `operator.add`/`operator.sub` names the kernels map over lists;
- an integer constant is bumped by one.

Each mutant is written, as `ast.unparse` of the mutated module, into a copy of
`src/` and `tests/` in a temporary directory (the checkout is never touched,
and the copy is removed at the end), and the kernel's test module runs against
it for at most TIMEOUT seconds. A mutant is killed when the tests fail or time
out, and survives when they pass. Every survivor is either a missing test or
code that changes nothing, a deletion candidate.

Run from the repository root; it takes about a second per mutant:

    python tests/mutation_audit.py

The name keeps pytest from collecting it, and CI does not run it. It exits 1
if the unmutated copy fails its tests, and 0 otherwise, survivors or not.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 60  # seconds per test run; a mutant that loops forever is killed

# module -> (kernels as qualified names, the test module that guards them)
AUDITS = {
    "src/vclab/approx.py": (
        ("FiniteTranslateFamily.translate_counts", "FiniteTranslateFamily.sup_deviation",
         "_circular_arcs", "covering_check", "sample_complexity_sweep"),
        "tests/test_approx.py",
    ),
}

COMPARE_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
ARITH_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add}
NAME_SWAPS = {"add": "sub", "sub": "add"}


def kernel_nodes(tree: ast.Module, kernels) -> dict:
    """The function definitions of the named kernels, by qualified name."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found[f"{node.name}.{item.name}"] = item
    missing = [k for k in kernels if k not in found]
    if missing:
        raise SystemExit(f"kernels not found: {', '.join(missing)}")
    return {k: found[k] for k in kernels}


def sites(tree: ast.Module, kernels) -> list:
    """(kernel, line:column, description, apply) for every mutation site, in
    source order, so the i-th site of two parses of one source is the same."""
    found = []
    for rank, (kernel, fn) in enumerate(kernel_nodes(tree, kernels).items()):
        for node in ast.walk(fn):
            where = (rank, getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
            if isinstance(node, ast.Compare):
                for j, op in enumerate(node.ops):
                    new = COMPARE_SWAPS.get(type(op))
                    if new:
                        found.append((where + (j,), kernel, f"{type(op).__name__} -> {new.__name__}",
                                      lambda node=node, j=j, new=new: node.ops.__setitem__(j, new())))
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in ARITH_SWAPS:
                new = ARITH_SWAPS[type(node.op)]
                found.append((where, kernel, f"{type(node.op).__name__} -> {new.__name__}",
                              lambda node=node, new=new: setattr(node, "op", new())))
            elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                  and node.id in NAME_SWAPS):
                new = NAME_SWAPS[node.id]
                found.append((where, kernel, f"{node.id} -> {new}",
                              lambda node=node, new=new: setattr(node, "id", new)))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, int)
                  and not isinstance(node.value, bool)):
                found.append((where, kernel, f"{node.value} -> {node.value + 1}",
                              lambda node=node: setattr(node, "value", node.value + 1)))
    found.sort(key=lambda site: site[0])
    return [(kernel, f"{where[1]}:{where[2]}", what, apply) for where, kernel, what, apply in found]


def run_tests(work: Path, test_module: str) -> tuple[str, float]:
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test_module],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT)
        status = "survived" if done.returncode == 0 else "killed"
    except subprocess.TimeoutExpired:
        status = "timeout"
    return status, time.perf_counter() - start


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutation-audit-") as work:
        work = Path(work)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        return audit(work)


def audit(work: Path) -> int:
    survivors, total_killed, total = [], 0, 0
    for module, (kernels, test_module) in AUDITS.items():
        source = (ROOT / module).read_text()
        count = len(sites(ast.parse(source), kernels))
        target = work / module
        target.write_text(ast.unparse(ast.parse(source)))
        status, _ = run_tests(work, test_module)
        if status != "survived":
            print(f"{module}: the unmutated copy does not pass {test_module} ({status})")
            return 1
        print(f"{module}: {count} mutants, guarded by {test_module}")
        tally = {k: [0, 0] for k in kernels}
        for i in range(count):
            tree = ast.parse(source)
            kernel, line, what, apply = sites(tree, kernels)[i]
            apply()
            target.write_text(ast.unparse(tree))
            status, seconds = run_tests(work, test_module)
            tally[kernel][0] += status != "survived"
            tally[kernel][1] += 1
            print(f"  {status:8} {kernel:40} {line:>7}  {what:16} {seconds:5.1f} s", flush=True)
            if status == "survived":
                survivors.append(f"{module}:{line} {kernel} {what}")
        target.write_text(source)
        for kernel, (killed, n) in tally.items():
            print(f"  {kernel:40} {killed} of {n} killed")
            total_killed += killed
            total += n
    print(f"{total_killed} of {total} mutants killed; {len(survivors)} survived")
    for survivor in survivors:
        print(f"  survivor: {survivor}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
