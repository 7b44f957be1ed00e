"""Source hygiene: every module-level import in ``src/`` is used, and every
config field is read.

AST scans, not a linter run.  A name bound by a module-level import must
be referenced somewhere in its module (code, a quoted annotation or
``__all__``).  ``__init__.py`` files re-export by importing, so they are
skipped; an import line marked ``# noqa`` is kept on purpose.  A field of
a ``@dataclass`` named ``*Config`` or ``*Options`` must be loaded as an
attribute, or through ``getattr`` with a constant name, somewhere in
``src/``: a field nothing reads still splits every content key.
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", None)
        if name == "dataclass":
            return True
    return False


def config_fields(tree: ast.Module) -> Iterator[str]:
    """``Class.field`` for every field of a ``*Config``/``*Options``
    dataclass defined in ``tree``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.ClassDef) and _is_dataclass(node)
                and node.name.endswith(("Config", "Options"))):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.dump(stmt.annotation)):
                    yield f"{node.name}.{stmt.target.id}"


def attribute_reads(tree: ast.Module) -> Iterator[str]:
    """Every attribute name ``tree`` loads: ``x.name`` in a load context,
    or ``getattr(x, "name"[, default])``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            yield node.args[1].value


def unread_config_fields(root: Path) -> List[str]:
    fields: List[str] = []
    reads: Set[str] = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        fields.extend(config_fields(tree))
        reads.update(attribute_reads(tree))
    return [field for field in fields if field.split(".")[1] not in reads]


def test_every_config_field_is_read():
    assert unread_config_fields(SRC / "repro") == []


def test_the_scan_finds_an_unread_config_field(tmp_path):
    (tmp_path / "module.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class CoreConfig:\n"
        "    width: int = 4\n"
        "    depth: int = 20\n"
        "    ports: int = 2\n"
        "@dataclass\n"
        "class RunOptions:\n"
        "    verbose: bool = False\n"
        "class Plain:\n"
        "    ignored: int = 0\n"
        "def use(config):\n"
        "    config.depth = 1\n"
        "    return config.width + getattr(config, 'ports')\n")
    assert unread_config_fields(tmp_path) == ["CoreConfig.depth",
                                              "RunOptions.verbose"]
