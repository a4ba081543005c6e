"""Every name a module of `sli` imports is used in that module, and every
private name a module defines is read somewhere in `sli`.

An imported name counts as used when the module reads it (a bare name, or
the root of an attribute chain), names it in a string annotation, or lists
it in its `__all__`.  `from __future__` imports are directives, not names.

A private name is one a module binds at its top level (a function, a
class, or an assignment's target) that starts with one underscore.  It
counts as read when some module loads it, names it as an attribute, or
imports it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sli"
MODULES = sorted(SRC.glob("*.py"))


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """The names source imports and never uses, as 'line: name'."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann) if ann is not None else ():
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= {m.id for m in ast.walk(ast.parse(n.value)) if isinstance(m, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"{line}: {name}" for line, name in unused]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import math, sys as system\n"
        "from typing import Iterable, Iterator\n"
        "from .logic import Variable\n"
        "__all__ = ['Variable']\n"
        "def f(xs: 'Iterator[int]') -> int:\n"
        "    return math.prod(xs) + len(os.path.sep)\n"
    )
    assert unused_imports(source) == ["3: system", "4: Iterable"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private names the modules in sources (name -> source) define at
    their top level and none of them reads, as 'module:line: name'."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            private = [n for n in names if n.startswith("_") and not n.startswith("__")]
            defined += [(module, node.lineno, n) for n in private]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    return [f"{m}:{line}: {n}" for m, line, n in defined if n not in read]


def test_every_private_name_is_read():
    assert unread_private_names({p.name: p.read_text() for p in MODULES}) == []


def test_an_unread_private_name_is_found():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_kept: int = 1\n"
            "__all__ = []\n"
            "def _helper():\n"
            "    _local = 2\n"
            "    return _local\n"
            "class _Unused:\n"
            "    def _method(self):\n"
            "        return _LIMIT\n"
            "def _dead():\n"
            "    _dead = 1\n"
        ),
        "b.py": "from .a import _helper\nimport a\nprint(a._kept)\n",
    }
    assert unread_private_names(sources) == ["a.py:7: _Unused", "a.py:10: _dead"]
