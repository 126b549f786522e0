"""Every imported name in a program file is used in that file.

The scan parses each module under ``src/``, ``tests/``, ``benchmarks/``
and ``examples/`` and lists the names its ``import`` statements bind
(``import a.b`` binds ``a``; ``from m import x as y`` binds ``y``).  A
name is used when it appears as a name anywhere in the module, or
inside a string constant that parses as an expression (a quoted
annotation such as ``"Optional[_Pack]"``, or a name listed in
``__all__``).  A package ``__init__.py`` is skipped: its imports are
re-exports.  ``from __future__`` imports are directives, not names.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED_DIRS = ("src", "tests", "benchmarks", "examples")


def unused_imports(path: Path) -> list[str]:
    """``name (line N)`` for each imported name ``path`` never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def scan(root: Path = ROOT) -> dict[str, list[str]]:
    """``{relative path: unused imports}`` over the scanned folders."""
    found = {}
    for folder in SCANNED_DIRS:
        for path in sorted((root / folder).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            unused = unused_imports(path)
            if unused:
                found[str(path.relative_to(root))] = unused
    return found


def test_no_program_file_imports_a_name_it_does_not_use():
    found = scan()
    assert not found, f"unused imports; delete them: {found}"


def _module(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "mod.py"
    path.write_text(text)
    return path


def test_scan_reports_unused_plain_from_and_aliased_imports(tmp_path):
    path = _module(
        tmp_path,
        "import math\nimport os.path\nfrom typing import List, Tuple as T\n\n"
        "x: List[int] = []\n",
    )
    assert unused_imports(path) == ["math (line 1)", "os (line 2)", "T (line 3)"]


def test_scan_counts_quoted_annotations_and_all(tmp_path):
    path = _module(
        tmp_path,
        "from __future__ import annotations\n"
        "from typing import Optional\nfrom .pack import Pack, helper\n\n"
        '__all__ = ["helper"]\n\n'
        'def f(p: "Optional[Pack]") -> None:\n    """Uses math in prose only."""\n',
    )
    assert unused_imports(path) == []


def test_scan_skips_package_init_reexports(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "__init__.py").write_text("from .mod import thing\n")
    (tmp_path / "src" / "pkg" / "mod.py").write_text("import json\n\nthing = 1\n")
    assert scan(tmp_path) == {"src/pkg/mod.py": ["json (line 1)"]}
