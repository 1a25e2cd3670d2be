"""Every top-level function and class of the library has a caller in the
library: code that only tests reach belongs in the tests."""

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
    outside its own definition uses."""
    top_level = [
        (path.stem, node)
        for path in sorted(src.glob("*.py"))
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
        if isinstance(node, defs) and not users[node.name] - {key}
    ]


def test_every_library_definition_has_a_library_caller():
    assert unreached_definitions() == []


# the console entry point: the interpreter calls main() with no argument
ENTRY_POINTS = {("cli", "main", "argv")}


def _passes(call, name, position):
    """Whether a call passes parameter `name` by keyword or, unless it is
    keyword-only (position None), by position; unpacking may pass anything."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
    )


def unset_keyword_defaults(src=SRC):
    """(module, function, parameter) of each parameter with a default that no
    library call passes, by keyword or by position.  A call is matched to a
    definition by name, a constructor call to its class's `__init__`."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    calls = defaultdict(list)   # callee name -> Call nodes
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                calls[getattr(func, "id", getattr(func, "attr", None))].append(node)
    unset = []
    for module, tree in trees.items():
        owners = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            method = isinstance(owners[fn], ast.ClassDef)
            callee = owners[fn].name if method and fn.name == "__init__" else fn.name
            params = fn.args.posonlyargs + fn.args.args
            # a call through an instance or class binds self or cls
            with_default = [(p.arg, i - method)
                            for i, p in enumerate(params)
                            if i >= len(params) - len(fn.args.defaults)]
            with_default += [(p.arg, None)
                             for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                             if d is not None]
            for name, position in with_default:
                if not any(_passes(c, name, position) for c in calls[callee]):
                    unset.append((module, fn.name, name))
    return unset


def test_every_keyword_default_is_set():
    # a default no caller overrides is a constant wearing a parameter's name
    assert set(unset_keyword_defaults()) - ENTRY_POINTS == set()
