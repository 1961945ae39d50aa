"""Every public name in src/renet is reached by the package or the benchmark.

A public module-level function or class, or a public method or property, must
appear as a whole word somewhere in `src/renet/*.py` or `perfbench/*.py`
other than at its own definition.  Tests do not count: API that only tests
reach belongs in the tests.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "renet").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(path):
    """(qualified name, bare name) of each public module-level function or
    class, and of each public method or property of a module-level class."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, DEFINITIONS) or node.name.startswith("_"):
            continue
        yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, DEFINITIONS) and not member.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{member.name}", member.name


def test_every_public_name_is_reached_outside_its_definition():
    words = Counter(w for path in READERS for w in re.findall(r"\w+", path.read_text()))
    defined = [d for path in SOURCES for d in public_definitions(path)]
    assert defined
    sites = Counter(name for _, name in defined)  # each definition spells its name once
    unreached = sorted(qual for qual, name in defined if words[name] <= sites[name])
    assert not unreached, "public names nothing in src/renet or perfbench reaches: " + ", ".join(unreached)
