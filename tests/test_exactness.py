"""Exactness guard: the package computes with exact rationals only.

Floating point may appear in one place, the labeled ``approx`` field of the
``asym`` report (``cli._cmd_asym``).  The guard reads the source, so a float
that no test happens to reach is caught too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "thresholds"


def _floats(tree):
    """Every use of the name ``float`` and every float or complex literal."""
    return [
        node for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "float")
        or (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
    ]


def _approx_fields(tree):
    """The nodes of the values stored under "approx" in ``_cmd_asym``."""
    allowed = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "_cmd_asym":
            for d in ast.walk(fn):
                if isinstance(d, ast.Dict):
                    for key, value in zip(d.keys, d.values):
                        if isinstance(key, ast.Constant) and key.value == "approx":
                            allowed.update(id(n) for n in ast.walk(value))
    return allowed


def test_float_only_in_the_labeled_approx_field():
    stray, labeled = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = _approx_fields(tree) if path.name == "cli.py" else set()
        for node in _floats(tree):
            if id(node) in allowed:
                labeled += 1
            else:
                stray.append(f"{path.name}:{node.lineno}")
    assert not stray, f"floating point outside the approx field: {stray}"
    assert labeled == 1  # the guard still sees the one allowed use
