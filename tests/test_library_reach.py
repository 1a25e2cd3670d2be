"""Every top-level function and class of the library has a caller in the
library or is exported by the package: code that only tests reach belongs
in the tests."""

import ast
from collections import defaultdict
from pathlib import Path

import serrinlab

SRC = Path(serrinlab.__file__).parent


def _used_names(node):
    """Identifiers a piece of code reads: names and attribute names.
    Docstrings and comments hold no such nodes, so they do not count."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unreached_definitions(src=SRC):
    """(module, name) of each top-level def or class that no library code
    outside its own definition uses and `__init__` does not export."""
    init = ast.parse((src / "__init__.py").read_text())
    exported = {
        alias.name
        for node in init.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    top_level = [
        (path.stem, node)
        for path in sorted(src.glob("*.py")) if path.name != "__init__.py"
        for node in ast.parse(path.read_text()).body
    ]
    users = defaultdict(set)   # name -> top-level nodes whose code uses it
    for key, (_, node) in enumerate(top_level):
        for name in _used_names(node):
            users[name].add(key)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (module, node.name)
        for key, (module, node) in enumerate(top_level)
        if isinstance(node, defs) and node.name not in exported
        and not users[node.name] - {key}
    ]


def test_every_library_definition_has_a_library_caller():
    assert unreached_definitions() == []
