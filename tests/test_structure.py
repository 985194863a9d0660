"""Every public name the package defines is used inside the package.

The test parses each module of ``src/phishlife`` with ``ast``. It collects
the public top-level functions and classes, and the public methods of
those classes. Each must be referenced by name, as a variable or as an
attribute, somewhere in ``src/phishlife``. A definition that only tests
call has no command behind it, so it should be wired in or deleted.
``cli.main`` is exempt, because it is the console entry point. Each
public name that a top-level assignment binds, a constant, must be read
somewhere in ``src/phishlife``: its assignment and an import of it do not
count, so a second copy of a table that nothing reads is flagged.

Matching by name is coarse. A use of any attribute called ``load``
counts for every method of that name, and a name used only in its own
body counts as used. So the test can miss an unused definition, but a
definition it flags is used by name nowhere in the package.

A fresh interpreter also imports every module, to check that none of them
loads ``dataclasses`` or ``inspect``, whose imports and generated methods
every command would pay for at start-up.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "phishlife"
ENTRY_POINTS = {"cli.main"}


def public_definitions(tree: ast.Module, module: str) -> list[tuple[str, str]]:
    """(qualified name, bare name) of each public top-level function, class and method."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        found.append((f"{module}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            found += [(f"{module}.{node.name}.{item.name}", item.name) for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return found


def public_constants(tree: ast.Module, module: str) -> list[tuple[str, str]]:
    """(qualified name, bare name) of each public name a top-level assignment binds."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        found += [(f"{module}.{name.id}", name.id) for target in targets
                  for name in ast.walk(target)
                  if isinstance(name, ast.Name) and not name.id.startswith("_")]
    return found


def loaded_names(tree: ast.Module) -> set[str]:
    """Every variable name and attribute name the module reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def referenced_names(tree: ast.Module) -> set[str]:
    """Every variable name and attribute name the module uses."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unreferenced(src: Path) -> list[str]:
    definitions, constants, used, loaded = [], [], set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        definitions += public_definitions(tree, path.stem)
        constants += public_constants(tree, path.stem)
        used |= referenced_names(tree)
        loaded |= loaded_names(tree)
    return ([qualified for qualified, name in definitions
             if name not in used and qualified not in ENTRY_POINTS]
            + [qualified for qualified, name in constants if name not in loaded])


def test_every_public_definition_is_referenced():
    assert unreferenced(SRC) == []


def test_an_unused_definition_is_flagged(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n"
        "def unused():\n    return used()\n\n"
        "class Box:\n    def open(self):\n        pass\n\n    def _hidden(self):\n        pass\n\n"
        "def main():\n    return Box()\n")
    assert unreferenced(tmp_path) == ["mod.unused", "mod.Box.open", "mod.main"]


def test_an_unread_constant_is_flagged(tmp_path):
    (tmp_path / "mod.py").write_text(
        "READ = 1\nUNREAD = 2\nSTORED: int = 3\n_PRIVATE = 4\nPAIR, SPARE = READ, 5\n\n"
        "def bump():\n    global STORED\n    STORED = PAIR\n\n"
        "bump()\n")
    (tmp_path / "other.py").write_text("from . import mod\nfrom .mod import UNREAD\n\n"
                                       "SUM = mod.READ + 1\nprint(SUM)\n")
    assert unreferenced(tmp_path) == ["mod.UNREAD", "mod.STORED", "mod.SPARE"]


def test_no_module_imports_dataclasses_or_inspect():
    # pytest and hypothesis import both, so the imports run in a new
    # interpreter, without site, against what that one has loaded at start
    modules = sorted(f"phishlife.{p.stem}" for p in SRC.glob("*.py") if p.stem != "__init__")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); start = set(sys.modules)\n"
            f"import {', '.join(modules)}\n"
            "print(' '.join(sorted(set(sys.modules) - start)))")
    added = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)], check=True,
                           capture_output=True, text=True).stdout.split()
    assert set(modules) <= set(added)
    assert {"dataclasses", "inspect"}.isdisjoint(added)
