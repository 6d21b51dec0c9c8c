"""The package source holds no dead names.

An `ast` read of every module of `src/cbvcost`: each import is used in its
module, and each private top-level name (a leading underscore) is
referenced somewhere in the package.  `__init__.py` imports only to
re-export, so its imports are the package's interface and not checked.
"""

import ast
import pathlib

import cbvcost

PACKAGE = pathlib.Path(cbvcost.__file__).resolve().parent

# imports kept for a reader outside the package: perfbench/tracer.py wraps
# machine_r.decode_theta by name, though nothing in machine_r calls it
KEPT_IMPORTS = {("machine_r", "decode_theta")}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _loads(tree):
    """The names a module reads, and the attributes it reads of anything."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported(tree):
    """The names a module binds by importing, but `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _top_level(tree):
    """The names a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def test_every_import_is_used():
    # and a kept import that its module comes to use is kept no longer
    unused = {(module, name)
              for module, tree in _modules().items() if module != "__init__"
              for name in _imported(tree) if name not in _loads(tree)}
    assert unused == KEPT_IMPORTS


def test_every_private_top_level_name_is_referenced():
    modules = _modules()
    referenced = set()
    for tree in modules.values():
        referenced |= _loads(tree) | set(_imported(tree))
    dead = [(module, name) for module, tree in modules.items()
            for name in _top_level(tree)
            if name.startswith("_") and not name.startswith("__") and name not in referenced]
    assert dead == []
