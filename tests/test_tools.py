"""The mutation probe's site list (tools/mutants.py), on a small source."""

import ast
import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
)
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)

SOURCE = """\
LIMIT = 3


def outer(x):
    def inner(y):
        return y < 2

    return inner(x + 1) == x


class Box:
    def size(self):
        return self.n * 4
"""


def test_each_site_names_its_innermost_function():
    found = [(node.lineno, op, function) for node, _, op, function in mutants.sites(ast.parse(SOURCE))]
    assert sorted(found) == [
        (1, "3 -> 4", "<module>"),
        (6, "2 -> 3", "inner"),
        (6, "< -> <=", "inner"),
        (8, "+ -> -", "outer"),
        (8, "1 -> 2", "outer"),
        (8, "== -> !=", "outer"),
        (13, "* -> //", "size"),
        (13, "4 -> 5", "size"),
    ]


def test_a_mutant_changes_only_its_site():
    tree = ast.parse(SOURCE)
    k = next(k for k, (_, _, op, _) in enumerate(mutants.sites(tree)) if op == "< -> <=")
    changed = mutants.mutant(SOURCE, k)
    assert "y <= 2" in changed
    assert ast.unparse(ast.parse(SOURCE)).replace("y < 2", "y <= 2") == changed
