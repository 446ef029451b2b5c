"""Coefficient functions of differential forms, parsed from expression strings.

A coefficient is a string in the chart variables y1..ym built from numbers,
``pi``, ``+ - * / **``, unary ``+ -``, parentheses and the one-argument
functions ``sin cos tan exp sqrt log``, e.g. ``"y1*y2**2 + sin(y3)"``;
anything else raises ValueError, and so does nesting right operands, signs
and call arguments deeper than ``MAX_DEPTH`` (left operands, as in a long
sum, do not nest).  The :func:`ast.parse` tree is checked node by node and
folded (constant operations in numpy arithmetic: 1/0 gives inf); a
coefficient evaluates it through nested closures that apply the same Python
operators and numpy functions to the same operands in the same order, so
scenario text never becomes Python code.  The closures are built on the first
call, so a coefficient that is never evaluated costs only its tree.
:meth:`ExprCoeff.partial` differentiates the tree by the chain rule; its
tree shares subtrees, and each shared subtree is evaluated once per call.

Text and numbers are interned per process, as :mod:`re` caches patterns:
:func:`coefficient` returns one shared ExprCoeff per ``(text or number,
dim)``, and :func:`signed_sum` one per tuple of terms, so a form built again
from the same scenario reuses the trees, closures and partials of the first.
Both caches keep at most ``CACHE_SIZE`` entries.  A shared ExprCoeff is read
only: nothing assigns to its ``tree`` or ``dim`` after construction.

Shape contract: chart points ``(N, dim)`` give ``(N,)`` (a constant is
broadcast); one point ``(dim,)`` gives a float.
"""
from __future__ import annotations

import ast
import math
import operator
from ast import Add, Div, Mult, Pow, Sub
from functools import cached_property, lru_cache

import numpy as np

_BINOPS = {Add: np.add, Sub: np.subtract, Mult: np.multiply, Div: np.divide, Pow: np.power}
_OPERATORS = {Add: operator.add, Sub: operator.sub, Mult: operator.mul, Div: operator.truediv,
              Pow: operator.pow}
_FUNCS = {name: getattr(np, name) for name in ("sin", "cos", "tan", "exp", "sqrt", "log")}
MAX_DEPTH = 200  # nested right operands, signs and calls; as deep as parentheses may nest
CACHE_SIZE = 256  # interned coefficients, and signed sums, kept per process


def _num(x) -> ast.Constant:
    return ast.Constant(float(x))


def _call(name: str, a: ast.expr) -> ast.Call:
    return ast.Call(ast.Name(name, ast.Load()), [a], [])


def _bin(op: type, a: ast.expr, b: ast.expr) -> ast.expr:
    """The node ``a op b`` with constants folded and 0s and 1s dropped; -x is -1.0 * x."""
    va, vb = (n.value if isinstance(n, ast.Constant) else None for n in (a, b))
    if va is not None and vb is not None:
        with np.errstate(all="ignore"):
            return _num(_BINOPS[op](va, vb))
    if (op, va) in ((Add, 0), (Mult, 1)):
        return b
    if (op, vb) in ((Add, 0), (Sub, 0), (Mult, 1), (Div, 1), (Pow, 1)):
        return a
    if (op, va) == (Sub, 0):
        return _bin(Mult, _num(-1), b)
    if (op, va) in ((Mult, 0), (Div, 0)) or (op, vb) in ((Mult, 0), (Pow, 0)):
        return _num(op is Pow)
    return ast.BinOp(a, op(), b)


def _parse(text: str, dim: int) -> ast.expr:
    """The checked, folded tree of ``text``; ValueError outside the grammar."""
    names = {f"y{i + 1}" for i in range(dim)} | {"pi"}

    def build(node, depth=0):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return _num(node.value)
        if isinstance(node, ast.Name) and node.id in names:
            return _num(math.pi) if node.id == "pi" else ast.Name(node.id, ast.Load())
        if depth == MAX_DEPTH:
            raise ValueError(f"coefficient {text!r:.80} nests deeper than {MAX_DEPTH} levels")
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _bin(type(node.op), build(node.left, depth), build(node.right, depth + 1))
        if isinstance(node, ast.UnaryOp) and type(node.op) in (ast.UAdd, ast.USub):
            sign = _num(-1 if isinstance(node.op, ast.USub) else 1)
            return _bin(Mult, sign, build(node.operand, depth + 1))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCS and len(node.args) == 1 and not node.keywords):
            return _call(node.func.id, build(node.args[0], depth + 1))
        raise ValueError(f"{ast.unparse(node)!r} is not allowed in coefficient {text!r}")

    try:
        return build(ast.parse(text, mode="eval").body)
    except (SyntaxError, MemoryError, RecursionError, OverflowError) as exc:  # also too deep
        raise ValueError(f"cannot parse coefficient {text!r}: {exc}") from None


def _diff(node: ast.expr, var: str) -> ast.expr:
    """d(node)/d(var) by the chain rule on a tree built by :func:`_parse`."""
    if isinstance(node, ast.Call):
        u = node.args[0]
        outer = {"sin": lambda: _call("cos", u), "exp": lambda: node,
                 "cos": lambda: _bin(Mult, _num(-1), _call("sin", u)),
                 "tan": lambda: _bin(Add, _num(1), _bin(Pow, node, _num(2))),
                 "sqrt": lambda: _bin(Div, _num(0.5), node), "log": lambda: _bin(Div, _num(1), u)}
        return _bin(Mult, outer[node.func.id](), _diff(u, var))
    if not isinstance(node, ast.BinOp):
        return _num(isinstance(node, ast.Name) and node.id == var)
    op, a, b = type(node.op), node.left, node.right
    da, db = _diff(a, var), _diff(b, var)
    if op in (Add, Sub):
        return _bin(op, da, db)
    if op is Mult:
        return _bin(Add, _bin(Mult, da, b), _bin(Mult, a, db))
    if op is Div:  # da / b - a db / b**2
        return _bin(Sub, _bin(Div, da, b), _bin(Div, _bin(Mult, a, db), _bin(Pow, b, _num(2))))
    if isinstance(b, ast.Constant):  # c a**(c-1) da
        return _bin(Mult, _bin(Mult, b, _bin(Pow, a, _num(b.value - 1))), da)
    log_rate = _bin(Mult, db, _call("log", a))  # a**b (db log a + b da / a)
    return _bin(Mult, node, _bin(Add, log_rate, _bin(Div, _bin(Mult, b, da), a)))


def _shared(tree: ast.expr) -> list[ast.expr]:
    """The operations and calls of ``tree`` reached through more than one
    parent edge, children before parents: a partial reuses subtrees such as
    ``a ** b`` itself."""
    parents, order, stack = {}, [], [(tree, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        parents[id(node)] = parents.get(id(node), 0) + 1
        if parents[id(node)] > 1:
            continue
        stack.append((node, True))
        if isinstance(node, ast.BinOp):
            stack += ((node.left, False), (node.right, False))
        elif isinstance(node, ast.Call):
            stack.append((node.args[0], False))
    return [node for node in order
            if isinstance(node, (ast.BinOp, ast.Call)) and parents[id(node)] > 1]


def _closure(node: ast.expr, built: dict):
    """A function of chart points ``Y`` ``(N, dim)`` that evaluates ``node``.

    ``built`` (node id -> closure, for one tree) builds a subtree that a
    partial shares once.  A chain of left operands is one loop that stops at
    a node already built, so closures nest only as deep as right operands and
    call arguments."""
    if id(node) in built:
        return built[id(node)]
    if isinstance(node, ast.Constant):
        value = node.value
        return built.setdefault(id(node), lambda Y: value)
    if isinstance(node, ast.Name):
        i = int(node.id[1:]) - 1
        return built.setdefault(id(node), lambda Y: Y[:, i])
    if isinstance(node, ast.Call):
        f, u = _FUNCS[node.func.id], _closure(node.args[0], built)
        return built.setdefault(id(node), lambda Y: f(u(Y)))
    key, steps = id(node), []  # steps: (operator, right operand), outermost first
    while isinstance(node, ast.BinOp) and id(node) not in built:
        steps.append((_OPERATORS[type(node.op)], _closure(node.right, built)))
        node = node.left
    first = _closure(node, built)
    steps.reverse()

    def chain(Y):
        value = first(Y)
        for op, b in steps:
            value = op(value, b(Y))
        return value

    return built.setdefault(key, chain)


class ExprCoeff:
    """A function of the chart coordinates from a string, a number or a tree built here."""

    def __init__(self, expr, dim: int):
        self.dim = int(dim)
        tree = _parse(expr, self.dim) if isinstance(expr, str) else expr
        self.tree = tree if isinstance(tree, ast.AST) else _num(tree)
        self._partials: dict[int, ExprCoeff] = {}

    @cached_property
    def _evaluate(self):
        # each shared node is built once its shared children are, then read
        # back from memo; a call fills memo in that order before the root, so
        # no evaluation recurses down a chain of shared nodes
        built, memo, fill = {}, {}, []
        for node in _shared(self.tree):
            key = id(node)
            fill.append((key, _closure(node, built)))
            built[key] = lambda Y, key=key: memo[key]
        root = _closure(self.tree, built)
        if not fill:
            return root

        def evaluate(Y):
            try:
                for key, f in fill:
                    memo[key] = f(Y)
                return root(Y)
            finally:
                memo.clear()

        return evaluate

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        Y = np.atleast_2d(y)
        out = np.broadcast_to(np.asarray(self._evaluate(Y), dtype=float), Y.shape[:1])
        return float(out[0]) if y.ndim < 2 else out

    def partial(self, j: int) -> ExprCoeff:
        """Analytic partial derivative with respect to y^{j+1} (0-based j)."""
        if j not in self._partials:
            self._partials[j] = ExprCoeff(_diff(self.tree, f"y{j + 1}"), self.dim)
        return self._partials[j]

    def __repr__(self) -> str:
        try:
            return f"ExprCoeff({ast.unparse(self.tree)!r}, dim={self.dim})"
        except RecursionError:  # ast.unparse takes several frames per level of a deep partial
            return f"ExprCoeff(<tree too deep to print>, dim={self.dim})"


@lru_cache(maxsize=CACHE_SIZE)
def _interned(expr, dim, sign) -> ExprCoeff:
    return ExprCoeff(expr, dim)


def coefficient(expr, dim: int):
    """``expr`` as a coefficient in ``dim`` chart variables.

    A string or real number gives the process's shared ExprCoeff for it
    (a parse error is raised again on every call, never cached); a callable,
    an ExprCoeff included, is returned as is, and any other value, such as a
    0-d array, gives a new ExprCoeff."""
    if callable(expr):
        return expr
    if isinstance(expr, str):
        return _interned(expr, dim, None)
    if isinstance(expr, (int, float)):
        x = float(expr)
        return _interned(x, dim, math.copysign(1.0, x))  # -0.0 == 0.0, but not its bits
    return ExprCoeff(expr, dim)


@lru_cache(maxsize=CACHE_SIZE)
def signed_sum(terms: tuple, dim: int) -> ExprCoeff:
    """sum_i s_i c_i over a tuple of ``(s_i, c_i)`` pairs with s_i = +-1, as
    one coefficient.  Memoized on the terms; an ExprCoeff compares by
    identity, so the same shared partials give back the same sum."""
    tree = _num(0)
    for sign, c in terms:
        tree = _bin(Add if sign > 0 else Sub, tree, c.tree)
    return ExprCoeff(tree, dim)
