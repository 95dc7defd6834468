"""Failure-kind guard: the package defines exactly two exception classes.

Every failure is malformed input (``ValueError``, with ``ParseError`` as the
subclass that carries ``.position``), an exhausted budget
(``BudgetExceededError``) or a broken invariant (``AssertionError``); the CLI
maps them to exit codes 2, 3 and 4.  The guard reads the source, so a new
exception class is caught before any test raises it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "thresholds"


def _exception_classes(tree):
    """Names of the classes whose bases include a name ending in Error or
    Exception: the package only ever derives exceptions from those."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            bases = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                     for b in node.bases]
            if any(b.endswith(("Error", "Exception")) for b in bases):
                out.append(node.name)
    return out


def test_only_parse_and_budget_errors_are_defined():
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        for name in _exception_classes(ast.parse(path.read_text())):
            defined[name] = path.name
    assert defined == {"ParseError": "rings.py", "BudgetExceededError": "rings.py"}
