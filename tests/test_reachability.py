"""Every function, class, method and property in src/wikivote is reachable.

A name is reachable when something outside the tests refers to it: a
command path in src/, the benchmark in bench/ or a README snippet. Code that
only tests reach, the acceptance suite included, is reported. Reference sites
in src/ count only once the definition holding them is itself reached, so two
helpers that only call each other are both reported. Names are matched
without qualification: a reference to `key` reaches every definition called
`key`.

Roots are the modules' top-level statements, class bodies outside their
methods, dunder methods (Python calls them), decorators, every identifier in
bench/ (code and strings: the tracer looks layers up by name) and in
README.md.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wikivote"
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# name: why it stays although no command reaches it
KEEP: dict[str, str] = {}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _bound(tree: ast.AST) -> set[str]:
    """Names a file binds as variables or parameters: a bare reference to one
    of them is taken to mean the variable, not a definition of that name."""
    bound = {arg.arg for arg in ast.walk(tree) if isinstance(arg, ast.arg)}
    bound.update(sub.id for sub in ast.walk(tree)
                 if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load))
    return bound


def _names(node: ast.AST, bound: set[str], *, strings: bool = False) -> set[str]:
    """Identifiers referenced at node itself: a name not in bound, an
    attribute, and, with strings=True, every identifier inside a string
    constant. An import only binds a name, so it reaches nothing by itself."""
    if isinstance(node, ast.Name):
        return set() if node.id in bound else {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
        return set(IDENTIFIER.findall(node.value))
    return set()


def _body_names(node: ast.AST, bound: set[str]) -> set[str]:
    """Names referenced in node, docstrings aside. The members of a module or
    class are definitions of their own: only their decorators count here. A
    function nested in a function is part of it."""
    found: set[str] = set()

    def visit(sub: ast.AST, parent: ast.AST):
        if isinstance(sub, ast.Expr) and isinstance(sub.value, ast.Constant):
            return  # a docstring or a bare string
        if isinstance(sub, DEFINITIONS) and isinstance(parent, (ast.Module, ast.ClassDef)):
            for decorator in sub.decorator_list:
                visit(decorator, sub)
            return
        found.update(_names(sub, bound))
        for child in ast.iter_child_nodes(sub):
            visit(child, sub)

    for child in ast.iter_child_nodes(node):
        visit(child, node)
    return found


def _src_definitions() -> tuple[list[tuple[str, str, ast.AST, set[str]]], set[str]]:
    """Every definition in src/wikivote as (module, name, node, names its file
    binds), and the names its root code refers to."""
    definitions, roots = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = _bound(tree)
        roots |= _body_names(tree, bound)

        def collect(parent: ast.AST):
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, DEFINITIONS):
                    definitions.append((path.stem, node.name, node, bound))
                    if isinstance(node, ast.ClassDef):
                        roots.update(_body_names(node, bound))
                        collect(node)
                    elif _is_dunder(node.name):
                        roots.update(_body_names(node, bound))
                else:
                    collect(node)

        collect(tree)
    return definitions, roots


def _outside_names() -> set[str]:
    names = set(IDENTIFIER.findall((ROOT / "README.md").read_text(encoding="utf-8")))
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = _bound(tree)
        for node in ast.walk(tree):
            names |= _names(node, bound, strings=True)
    return names


def unreached() -> list[str]:
    """module.name of each non-dunder definition that no root reaches."""
    definitions, roots = _src_definitions()
    reached = roots | _outside_names() | set(KEEP)
    while True:
        grown = set(reached)
        for _, name, node, bound in definitions:
            if name in reached:
                grown |= _body_names(node, bound)
        if grown == reached:
            break
        reached = grown
    return sorted({f"{module}.{name}" for module, name, _, _ in definitions
                   if name not in reached and not _is_dunder(name)})


def test_every_definition_is_reached():
    missing = unreached()
    assert not missing, (
        "defined in src/wikivote but reached by no command, benchmark or README "
        f"snippet: {', '.join(missing)}"
    )


def test_keep_list_names_exist():
    defined = {name for _, name, _, _ in _src_definitions()[0]}
    assert set(KEEP) <= defined
