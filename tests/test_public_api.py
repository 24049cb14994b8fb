"""Each module's public names are what its users read, and nothing else.

A name in a module's `__all__` must be read somewhere that ships or gates
the package: a module of `bose_limits`, the benchmark in `perfbench`, or
the acceptance suite.  A name only unit tests read belongs in those tests.
The package `__init__` re-exports modules and errors and is not checked.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bose_limits"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = MODULES + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _declared(tree):
    """The module's `__all__`, or None if it declares none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return None


def _referenced(tree):
    """Every name the code reads: bare names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


DECLARING = [p for p in MODULES if _declared(_tree(p)) is not None]


@pytest.mark.parametrize("path", DECLARING, ids=[p.stem for p in DECLARING])
def test_every_public_name_has_a_reader(path):
    read = set().union(*(_referenced(_tree(p)) for p in READERS))
    unread = [name for name in _declared(_tree(path)) if name not in read]
    assert unread == []


@pytest.mark.parametrize("path", DECLARING, ids=[p.stem for p in DECLARING])
def test_all_lists_the_public_definitions(path):
    tree = _tree(path)
    public = {node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    declared = _declared(tree)
    assert len(declared) == len(set(declared))
    assert set(declared) == public
