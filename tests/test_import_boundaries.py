"""Static import rules for the package, read from the source with ``ast``.

The oracle route (``extremal``, ``decompose``) must not reach the bound
formulas in ``bounds``, directly or through another package module: the
two routes verify each other only while they share no formula code.  No
module may import ``dataclasses``, which pulls in ``inspect`` and about a
megabyte of modules at import time; value classes derive from
``tailbounds._record.Record`` instead.  No module may use ``assert``,
which ``python -O`` strips: internal invariants raise
SoundnessViolationError.  Every "must be positive" or "must be
nonnegative" ValidationError comes from ``dist_core.check_sign``, so
each sign check reads alike.  Every float comes from
``dist_core._nearest_float``, which rounds an exact result once: no other
code calls ``float`` or hands it to a call as a converter, so no input is
read as a float and floats never enter the exact paths.
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


SIGN_ENDINGS = ("must be positive", "must be nonnegative")


def sign_messages(tree: ast.AST, where: str) -> list[str]:
    """``where:line`` of each ValidationError message outside ``check_sign`` with a sign ending.

    A message is the call's first argument, a string literal or an
    f-string, read up to its last literal part.
    """
    checker = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "check_sign"
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if (id(node) not in checker and isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "ValidationError"):
            message = node.args[0] if node.args else None
            if isinstance(message, ast.JoinedStr) and message.values:
                message = message.values[-1]
            if (isinstance(message, ast.Constant) and isinstance(message.value, str)
                    and message.value.endswith(SIGN_ENDINGS)):
                found.append(f"{where}:{node.lineno}")
    return found


def test_sign_messages_come_from_check_sign():
    found = [
        line
        for path in sorted(PACKAGE.glob("*.py"))
        for line in sign_messages(ast.parse(path.read_text(), filename=str(path)), path.name)
    ]
    assert found == []
    assert "def check_sign(" in (PACKAGE / "dist_core.py").read_text()


@pytest.mark.parametrize("source, found", [
    ('raise ValidationError("mean must be positive")', ["m.py:1"]),
    ('raise ValidationError(f"{name} must be nonnegative")', ["m.py:1"]),
    ('raise ValidationError(f"mean must be positive: {mu}")', []),
    ('raise ValueError("mean must be positive")', []),
    ('def check_sign(v, name):\n    raise ValidationError(f"{name} must be positive")', []),
    ('def f():\n    raise ValidationError("x must be nonnegative")', ["m.py:2"]),
])
def test_sign_rule_reads_literals_and_f_strings(source, found):
    assert sign_messages(ast.parse(source), "m.py") == found


def float_uses(tree: ast.AST, where: str) -> list[str]:
    """``where:line`` of each call outside ``_nearest_float`` that calls ``float`` or passes it.

    ``float(x)`` makes a float; ``type=float`` or ``map(float, xs)`` hands
    ``float`` to code that makes one.  An annotation names ``float`` in no call.
    """
    helper = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_nearest_float"
        for inner in ast.walk(node)
    }
    return [
        f"{where}:{node.lineno}"
        for node in ast.walk(tree)
        if id(node) not in helper and isinstance(node, ast.Call) and any(
            getattr(expr, "id", None) == "float"
            for expr in [node.func, *node.args, *(k.value for k in node.keywords)]
        )
    ]


def test_floats_come_from_nearest_float():
    found = [
        line
        for path in sorted(PACKAGE.glob("*.py"))
        for line in float_uses(ast.parse(path.read_text(), filename=str(path)), path.name)
    ]
    assert found == []
    assert "def _nearest_float(" in (PACKAGE / "dist_core.py").read_text()


@pytest.mark.parametrize("source, found", [
    ("x = float(y)", ["m.py:1"]),
    ('def f():\n    return float("inf")', ["m.py:2"]),
    ('p.add_argument("--epsilon", type=float)', ["m.py:1"]),
    ("xs = list(map(float, ys))", ["m.py:1"]),
    ("def _nearest_float(v):\n    return float(v)", []),
    ("def f(v: float) -> Union[Fraction, float]:\n    return v", []),
    ("x = math.floor(y)", []),
])
def test_float_rule_reads_calls_and_arguments(source, found):
    assert float_uses(ast.parse(source), "m.py") == found
