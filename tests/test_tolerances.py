"""Lint: no numerical threshold hides in a function body.

Tolerances, cutoffs and gate bounds are named in ``modops.tolerances`` (or
in one table next to their single user), so every float literal inside a
function body or a default argument is checked.  A literal is flagged when
it is nonzero and below 1e-3 in magnitude, or when it sits in a comparison
operand and is neither 0.0 nor 1.0.
"""
import ast
from pathlib import Path

import modops

SRC = Path(modops.__file__).parent
SMALL = 1e-3
NEUTRAL = (0.0, 1.0)


def _floats(node):
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Constant) and type(n.value) is float]


def _hidden_thresholds(tree):
    """(line, literal) of every flagged float literal in one module."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults = fn.args.defaults + [d for d in fn.args.kw_defaults if d is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        for node in defaults + body:
            for c in _floats(node):
                if c.value != 0.0 and abs(c.value) < SMALL:
                    found.add((c.lineno, c.value))
            for cmp in (n for n in ast.walk(node) if isinstance(n, ast.Compare)):
                for operand in [cmp.left] + cmp.comparators:
                    for c in _floats(operand):
                        if c.value not in NEUTRAL:
                            found.add((c.lineno, c.value))
    return found


def test_lint_flags_what_it_is_meant_to():
    tree = ast.parse(
        "def f(x, tol=1e-12):\n"
        "    ok = x <= 2.0 * tol and x >= 0.0 and x != 1.0\n"
        "    return ok and max(x, 1e-300) + 0.5\n")
    assert sorted(_hidden_thresholds(tree)) == [(1, 1e-12), (2, 2.0), (3, 1e-300)]


def test_no_hidden_thresholds_in_src():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{line}: {value!r}"
                      for line, value in sorted(_hidden_thresholds(tree))]
    assert not offenders, "\n".join(offenders)
