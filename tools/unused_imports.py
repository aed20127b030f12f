"""Lists the names that a module of src/cy3, tests or tools imports and never
references, one `file:line name` per line, and exits 1 when there is one.

    python tools/unused_imports.py

A name counts as referenced where it is read or written anywhere in the
module, an attribute chain `a.b` counting for `a`. `from __future__` imports
and src/cy3/__init__.py, whose imports are the package's exports, are
skipped. Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src/cy3", "tests", "tools")
SKIPPED = {"src/cy3/__init__.py"}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the module never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def main() -> int:
    found = []
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            rel = path.relative_to(ROOT).as_posix()
            if rel not in SKIPPED:
                found += [f"{rel}:{line} {name}"
                          for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    print("\n".join(found) if found else "no unused imports")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
