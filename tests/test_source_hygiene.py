"""Source hygiene: every module-level import in ``src/`` is used.

An AST scan, not a linter run: a name bound by a module-level import must
be referenced somewhere in its module (code, a quoted annotation or
``__all__``).  ``__init__.py`` files re-export by importing, so they are
skipped; an import line marked ``# noqa`` is kept on purpose.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set

SRC = Path(__file__).resolve().parent.parent / "src"


def _module_imports(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """The import statements at module level, including those nested in
    module-level ``if``/``try`` blocks."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            yield from _module_imports(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            yield from _module_imports(
                node.body + node.orelse + node.finalbody
                + [stmt for handler in node.handlers for stmt in handler.body])


def _bound_names(node: ast.stmt) -> Iterator[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname:
            yield alias.asname
        elif isinstance(node, ast.Import):
            yield alias.name.split(".")[0]
        else:
            yield alias.name


def _referenced_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    annotations: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            names.update(element.value for element in ast.walk(node.value)
                         if isinstance(element, ast.Constant)
                         and isinstance(element.value, str))
    # Quoted annotations ("Trace", "Optional[Trace]") name what they use.
    for annotation in annotations:
        for element in ast.walk(annotation):
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                try:
                    quoted = ast.parse(element.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(node.id for node in ast.walk(quoted)
                             if isinstance(node, ast.Name))
    return names


def unused_imports(path: Path) -> List[str]:
    """The names bound by module-level imports of ``path`` and never
    referenced, as ``line:name``."""
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    bound: Dict[str, int] = {}
    for node in _module_imports(tree.body):
        if "# noqa" not in lines[node.lineno - 1]:
            for name in _bound_names(node):
                bound[name] = node.lineno
    used = _referenced_names(tree)
    return [f"{line}:{name}" for name, line in bound.items()
            if name not in used]


def test_src_has_no_unused_module_imports():
    unused = [f"{path.relative_to(SRC)}:{finding}"
              for path in sorted(SRC.rglob("*.py"))
              if path.name != "__init__.py"
              for finding in unused_imports(path)]
    assert unused == []


def test_the_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa\n"
        "from typing import List, Optional\n"
        "from collections import Counter as Tally\n"
        "import os.path as osp\n"
        "__all__ = ['Tally']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return osp.sep\n")
    assert unused_imports(module) == ["2:os", "4:List"]
