"""The mutant list of ``tools/mutate.py`` stays in step with ``src/``.

Each mutant's snippet must occur exactly once in its module and the
mutated module must still parse, so a rewrite of a certified path
cannot leave the list stale unnoticed.  No mutant's tests are run here.
"""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)


@pytest.mark.parametrize("mutant", mutate.MUTANTS, ids=[m.name for m in mutate.MUTANTS])
def test_snippet_occurs_once_and_mutant_parses(mutant):
    source = (ROOT / "src" / "tailbounds" / mutant.module).read_text()
    assert mutate._mutated(source, mutant) != source

