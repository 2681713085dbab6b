"""Fail if a tolerance is stated outside the package's one table.

    python .github/check_tolerances.py [PACKAGE_DIR]

Parses every module under PACKAGE_DIR (default ``src/biverify``) and reports
each assignment to a name ending in ``_ATOL`` and each float literal equal
to 1e-8, 1e-10 or 1e-12 in code (comments and docstrings are not code),
except inside ``class Tolerance`` in ``errors.py``, which must state
exactly those three values.
"""
import ast
import sys
from pathlib import Path

VALUES = {1e-8, 1e-10, 1e-12}


def _assigned_names(node):
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return []
    return [t.id if isinstance(t, ast.Name) else getattr(t, "attr", "") for t in targets]


def main(argv: list[str]) -> int | str:
    root = Path(argv[0] if argv else "src/biverify")
    problems, table_values = [], None
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        table = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and (path.name, node.name) == ("errors.py", "Tolerance"):
                table = {id(n) for n in ast.walk(node)}
                table_values = sorted(
                    n.value for n in ast.walk(node)
                    if isinstance(n, ast.Constant) and type(n.value) is float
                )
        for node in ast.walk(tree):
            if id(node) in table:
                continue
            if isinstance(node, ast.Constant) and type(node.value) is float and node.value in VALUES:
                problems.append(f"{path}:{node.lineno}: tolerance literal {node.value!r}")
            for name in _assigned_names(node):
                if name.endswith("_ATOL"):
                    problems.append(f"{path}:{node.lineno}: tolerance constant {name}")
    if table_values != sorted(VALUES):
        problems.append(f"errors.Tolerance states {table_values}, expected {sorted(VALUES)}")
    return "\n".join(problems) or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
