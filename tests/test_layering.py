"""Layering guard: the algorithm layers never import the engine or the service.

``repro.engine`` runs the algorithms of ``repro.core`` and the layers
beneath it on session machines and ledger sub-accounts, and
``repro.serve`` sits on top of the engine; the dependency points one
way.  This test parses every module of the lower layers with ``ast``
and fails on any import of ``repro.engine`` or ``repro.serve``, at
module scope or inside a function, absolute or relative.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
LOWER = ("core", "monge", "pram", "kernels", "networks", "obs", "resilience", "_util")
UPPER = ("repro.engine", "repro.serve")


def _imports(path: pathlib.Path, tree: ast.AST):
    """``(line, names)`` per import statement: every module it may load."""
    package = path.relative_to(SRC).with_suffix("").parts[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package[:len(package) - node.level + 1]
                base = ".".join(parent + ((base,) if base else ()))
            # ``from repro import engine`` loads the module an alias names
            yield node.lineno, [base] + [f"{base}.{alias.name}" for alias in node.names]


def _upper(names):
    return [n for n in names if any(n == up or n.startswith(up + ".") for up in UPPER)]


@pytest.mark.parametrize("layer", LOWER)
def test_layer_imports_neither_engine_nor_serve(layer):
    modules = sorted((SRC / "repro" / layer).rglob("*.py"))
    assert modules, f"no modules under repro/{layer}"
    offending = [
        f"{path.relative_to(SRC)}:{line}: {_upper(names)[0]}"
        for path in modules
        for line, names in _imports(path, ast.parse(path.read_text(encoding="utf-8")))
        if _upper(names)
    ]
    assert not offending, "\n".join(offending)
