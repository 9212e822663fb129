"""Static import rules for the package, read from the source with ``ast``.

The oracle route (``extremal``, ``decompose``) must not reach the bound
formulas in ``bounds``, directly or through another package module: the
two routes verify each other only while they share no formula code.  No
module may import ``dataclasses``, which pulls in ``inspect`` and about a
megabyte of modules at import time; value classes derive from
``tailbounds._record.Record`` instead.  No module may use ``assert``,
which ``python -O`` strips: internal invariants raise
SoundnessViolationError.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tailbounds"


def imported_modules(path: Path) -> set[str]:
    """Absolute names of the modules one source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "tailbounds" if node.level else ""
            module = ".".join(part for part in (base, node.module) if part)
            names.add(module)
            # "from . import x" may name a submodule.
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def module_name(path: Path) -> str:
    return "tailbounds" if path.stem == "__init__" else f"tailbounds.{path.stem}"


IMPORTS = {module_name(path): imported_modules(path) for path in PACKAGE.glob("*.py")}


def reachable(module: str) -> set[str]:
    """Package modules ``module`` imports, directly or through other package modules."""
    seen: set[str] = set()
    todo = [module]
    while todo:
        for name in IMPORTS.get(todo.pop(), ()):
            if name in IMPORTS and name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


def test_package_found():
    assert {"tailbounds.bounds", "tailbounds.extremal", "tailbounds.decompose"} <= IMPORTS.keys()


@pytest.mark.parametrize("module", ["tailbounds.extremal", "tailbounds.decompose"])
def test_oracle_route_does_not_import_bounds(module):
    assert "tailbounds.bounds" not in reachable(module)


@pytest.mark.parametrize("module", sorted(IMPORTS))
def test_no_dataclasses(module):
    assert not any(
        name == "dataclasses" or name.startswith("dataclasses.") for name in IMPORTS[module]
    )


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
