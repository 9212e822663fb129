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

A launch pays only for the modules it runs: the package resolves its
public names on first use (PEP 562), and ``cli`` imports at module level
only what ``--version`` and ``--help`` need.  The subprocess checks at
the end read ``sys.modules`` after a real launch.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tailbounds

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "tailbounds"


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


# What cli.py may import at module level: the parser and main() need no
# library module beyond the errors and the tail modes.
CLI_MODULE_LEVEL = {
    "__future__", "argparse", "re", "sys", "typing",
    "tailbounds.__version__", "tailbounds._modes", "tailbounds.errors",
}


def module_level_imports(statements: list[ast.stmt]) -> set[str]:
    """Modules imported when the statements run: not in a function body
    and not under ``if TYPE_CHECKING:``.

    ``from . import x`` counts as ``tailbounds.x``.
    """
    names = set()
    for node in statements:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "tailbounds" if node.level else ""
            if node.module is None:
                names.update(f"{base}.{alias.name}" for alias in node.names)
            else:
                names.add(".".join(part for part in (base, node.module) if part))
        elif isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            names |= module_level_imports(node.orelse)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                names |= module_level_imports(getattr(node, field, []))
    return names


def test_cli_imports_only_the_parser_at_module_level():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    assert module_level_imports(tree.body) <= CLI_MODULE_LEVEL


@pytest.mark.parametrize("source, found", [
    ("import json", {"json"}),
    ("from .extremal import verify_tightness_theorem2", {"tailbounds.extremal"}),
    ("from . import __version__", {"tailbounds.__version__"}),
    ("try:\n    import json\nexcept ImportError:\n    import decimal", {"json", "decimal"}),
    ("class C:\n    import json", {"json"}),
    ("if TYPE_CHECKING:\n    from fractions import Fraction\nelse:\n    import json", {"json"}),
    ("def f():\n    import json", set()),
    ("if TYPE_CHECKING:\n    from .bounds import BoundResult", set()),
])
def test_module_level_rule_reads_nested_statements(source, found):
    assert module_level_imports(ast.parse(source).body) == found


# --- PEP 562: the package's names resolve on first use ---------------------

def test_every_public_name_resolves_to_its_module():
    for name in tailbounds.__all__:
        value = getattr(tailbounds, name)
        module = sys.modules[f"tailbounds.{tailbounds._MODULE_OF[name]}"]
        assert value is getattr(module, name)


def test_dir_lists_every_public_name():
    assert set(tailbounds.__all__) <= set(dir(tailbounds))
    assert "__version__" in dir(tailbounds)


def test_star_import_binds_the_public_names():
    namespace: dict = {}
    exec("from tailbounds import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(tailbounds.__all__)


def test_missing_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'tailbounds' has no attribute 'nope'"):
        tailbounds.nope
    with pytest.raises(ImportError):
        exec("from tailbounds import nope", {})


def test_tail_mode_is_one_class():
    import tailbounds._modes
    import tailbounds.bounds

    assert tailbounds.TailMode is tailbounds.bounds.TailMode is tailbounds._modes.TailMode


# --- What a launch loads ---------------------------------------------------

WATCHED = ("fractions", "decimal", "json")
LAUNCH = """
import sys
import tailbounds.cli
try:
    code = tailbounds.cli.main()
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
sys.stderr.write(repr(sorted(sys.modules)))
sys.exit(code)
"""


def loaded_after(source: str, *argv: str) -> set[str]:
    """Package and watched modules loaded once ``source`` has run with ``argv``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", source, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {
        name for name in ast.literal_eval(proc.stderr)
        if name.split(".")[0] == "tailbounds" or name in WATCHED
    }


def test_import_loads_no_submodule():
    source = "import sys, tailbounds; sys.stderr.write(repr(sorted(sys.modules)))"
    assert loaded_after(source) - set(WATCHED) == {"tailbounds"}


def test_version_loads_no_library_module():
    assert loaded_after(LAUNCH, "--version") == {
        "tailbounds", "tailbounds.cli", "tailbounds.errors", "tailbounds._modes",
    }


@pytest.mark.parametrize("argv, unused", [
    (["bound", "--pmf", "uniform:0..9", "--a", "3"],
     {"tailbounds.extremal", "tailbounds.decompose"}),
    (["decompose", "--pmf", "uniform:0..9", "--kind", "interval"],
     {"tailbounds.extremal", "tailbounds.bounds"}),
], ids=["bound", "decompose"])
def test_command_loads_only_what_it_runs(argv, unused):
    loaded = loaded_after(LAUNCH, *argv)
    assert "tailbounds.dist_core" in loaded
    assert not loaded & unused
