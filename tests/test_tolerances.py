"""Lint: no numerical threshold hides in a function body, no gate lets a
NaN through, and no function takes a tolerance from its caller.

Tolerances, cutoffs and gate bounds are named in ``modops.tolerances`` (or
in one table next to their single user), so every float literal inside a
function body or a default argument is checked.  A literal is flagged when
it is nonzero and below 1e-3 in magnitude, or when it sits in a comparison
operand and is neither 0.0 nor 1.0.  A call to ``allclose`` or ``isclose``
is flagged too, since its default relative tolerance is a threshold of its
own.  A gate, an ``if`` that raises on a comparison with a constant of
``modops.tolerances``, is flagged unless it is written ``if not ...``: every
comparison with NaN is false, so only a negated pass condition fails on it.
A parameter named ``tol`` (or ``tol_...``) is flagged: a gate reads its
bound from ``modops.tolerances``, and no run or caller sets it.  So is a
call to a function of the package that passes a constant of
``modops.tolerances`` in an argument, except to ``_inclusion`` and
``_same_span`` (``BOUND_TAKERS``); a constant formatted into text is not
passed as a bound.
"""
import ast
from pathlib import Path

import modops
from modops import tolerances

SRC = Path(modops.__file__).parent
SMALL = 1e-3
NEUTRAL = (0.0, 1.0)
TOLERANCE_NAMES = {name for name in vars(tolerances) if name.isupper()}
# the functions whose callers set their bound, as two callers need two
# values: graph_inclusion passes TOL_GRAPH, the correspondence's round trips
# TOL_ALG
BOUND_TAKERS = {"_inclusion", "_same_span"}


def _sources():
    """(file name, syntax tree) of every module of the package."""
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            for path in sorted(SRC.glob("*.py"))]


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


def _implicit_tolerances(tree):
    """Lines of every call to a function named ``allclose`` or ``isclose``."""
    return sorted(n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
                  and isinstance(n.func, ast.Attribute)
                  and n.func.attr in ("allclose", "isclose"))


def _nan_passing_gates(tree):
    """Lines of every ``if`` whose body raises and whose test compares with a
    name of ``modops.tolerances``, unless the test is ``not ...``."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.If)
                and any(isinstance(s, ast.Raise) for s in node.body)):
            continue
        names = {n.id for c in ast.walk(node.test) if isinstance(c, ast.Compare)
                 for n in ast.walk(c) if isinstance(n, ast.Name)}
        negated = isinstance(node.test, ast.UnaryOp) and isinstance(node.test.op, ast.Not)
        if names & TOLERANCE_NAMES and not negated:
            found.append(node.lineno)
    return sorted(found)


def _tolerance_parameters(tree):
    """(line, name) of every function parameter named ``tol`` or ``tol_...``."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        found += [(p.lineno, p.arg) for p in params
                  if p.arg == "tol" or p.arg.startswith("tol_")]
    return sorted(found)


def _functions(trees):
    """Names of every function and method defined in ``trees``."""
    return {fn.name for tree in trees for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _passed_names(node):
    """Names that ``node`` reads as a value it passes on: not inside a call
    of its own, which is checked as a call, nor inside text."""
    if isinstance(node, (ast.Call, ast.JoinedStr)):
        return set()
    if isinstance(node, ast.Name):
        return {node.id}
    return set().union(*map(_passed_names, ast.iter_child_nodes(node)))


def _tolerance_arguments(tree, functions):
    """(line, callee) of every call to one of ``functions``, outside
    ``BOUND_TAKERS``, with an argument that passes a name of
    ``modops.tolerances``."""
    found = []
    for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        if name not in functions or name in BOUND_TAKERS:
            continue
        args = call.args + [k.value for k in call.keywords]
        if set().union(*map(_passed_names, args)) & TOLERANCE_NAMES:
            found.append((call.lineno, name))
    return sorted(found)


def test_lint_flags_what_it_is_meant_to():
    tree = ast.parse(
        "def f(x, tol=1e-12):\n"
        "    ok = x <= 2.0 * tol and x >= 0.0 and x != 1.0\n"
        "    return ok and max(x, 1e-300) + 0.5\n")
    assert sorted(_hidden_thresholds(tree)) == [(1, 1e-12), (2, 2.0), (3, 1e-300)]


def test_implicit_tolerance_lint_flags_what_it_is_meant_to():
    tree = ast.parse(
        "ok = np.allclose(a, b, atol=TOL_ALG)\n"
        "ok = numpy.isclose(a, b) & math.isclose(x, y)\n"
        "ok = np.all(np.abs(a - b) <= TOL_ALG)\n")
    assert _implicit_tolerances(tree) == [1, 2, 2]


def test_gate_lint_flags_what_it_is_meant_to():
    tree = ast.parse(
        "def f(x, y):\n"
        "    if x > TOL_ALG * y:\n"                   # a NaN x passes
        "        raise ValueError\n"
        "    if x <= TOL_GAP or y <= TOL_GAP:\n"      # so does a NaN x and y
        "        raise ValueError\n"
        "    if not (x > TOL_GAP and y <= UNITARY_SLACK * TOL_ALG):\n"
        "        raise ValueError\n"
        "    if x > 1.0:\n"                           # no tolerance compared
        "        raise ValueError\n"
        "    if x <= TOL_ALG:\n"                      # no raise: not a gate
        "        return 0\n")
    assert _nan_passing_gates(tree) == [2, 4]


def test_tolerance_parameter_lint_flags_what_it_is_meant_to():
    tree = ast.parse(
        "def f(x, tol=TOL_GRAPH):\n"
        "    return x <= TOL_GRAPH\n"
        "def g(x, *, tol_graph):\n"
        "    return lambda tol: x\n"
        "def h(x, bound, total, atol=None, *tols):\n"
        "    return x\n")
    assert _tolerance_parameters(tree) == [(1, "tol"), (3, "tol_graph"), (4, "tol")]


def test_tolerance_argument_lint_flags_what_it_is_meant_to():
    tree = ast.parse(
        "def f(x, floor=0.0):\n"
        "    return np.clip(x, TOL_GAP, None)\n"      # not a package function
        "def _inclusion(s, t, bound):\n"
        "    return f(s, floor=2 * TOL_GAP)\n"        # in an expression
        "f(x, TOL_GAP)\n"
        "obj.f(x, floor=TOL_GAP)\n"
        "_inclusion(s, t, TOL_GRAPH)\n"               # a bound taker
        "f(x, f'tol {TOL_GAP}')\n"                    # text, not a bound
        "f(x, TOL)\n"                                 # not a tolerance name
        "f(f(x, floor=TOL_GAP))\n")                   # the inner call only
    assert _tolerance_arguments(tree, _functions([tree])) == [
        (4, "f"), (5, "f"), (6, "f"), (10, "f")]


def test_no_hidden_thresholds_in_src():
    offenders = [f"{name}:{line}: {value!r}" for name, tree in _sources()
                 for line, value in sorted(_hidden_thresholds(tree))]
    assert not offenders, "\n".join(offenders)


def test_no_implicit_tolerances_in_src():
    offenders = [f"{name}:{line}" for name, tree in _sources()
                 for line in _implicit_tolerances(tree)]
    assert not offenders, "\n".join(offenders)


def test_every_gate_in_src_fails_on_nan():
    offenders = [f"{name}:{line}" for name, tree in _sources()
                 for line in _nan_passing_gates(tree)]
    assert not offenders, "\n".join(offenders)


def test_no_function_in_src_takes_a_tolerance():
    offenders = [f"{name}:{line}: {param}" for name, tree in _sources()
                 for line, param in _tolerance_parameters(tree)]
    assert not offenders, "\n".join(offenders)


def test_no_call_in_src_passes_a_tolerance():
    sources = _sources()
    functions = _functions(tree for _, tree in sources)
    offenders = [f"{name}:{line}: {callee}" for name, tree in sources
                 for line, callee in _tolerance_arguments(tree, functions)]
    assert not offenders, "\n".join(offenders)
