"""Symbolic coefficient functions for differential forms.

Scenario files declare form coefficients as expression strings in the
chart variables y1..ym (e.g. ``"y1*y2**2 + sin(y3)"``).  Wrapping them in
sympy keeps analytic partial derivatives available to any order, which the
exterior derivative uses instead of finite differences whenever it can.

Shape contract: an :class:`ExprCoeff` evaluates a stack of chart points
``(N, dim)`` to ``(N,)`` (a constant expression is broadcast to N); one
point ``(dim,)`` gives a float.
"""
from __future__ import annotations

import numpy as np
import sympy as sp
from sympy.parsing.sympy_parser import parse_expr

_ALLOWED = {name: getattr(sp, name) for name in ("sin", "cos", "tan", "exp", "sqrt", "log", "pi")}


class ExprCoeff:
    """A scalar function of chart coordinates backed by a sympy expression."""

    def __init__(self, expr, dim: int):
        self.dim = int(dim)
        self.vars = sp.symbols(f"y1:{self.dim + 1}")
        if isinstance(expr, str):
            local = dict(_ALLOWED)
            local.update({f"y{i + 1}": self.vars[i] for i in range(self.dim)})
            expr = parse_expr(expr, local_dict=local, evaluate=True)
        self.expr = sp.sympify(expr)
        free = self.expr.free_symbols - set(self.vars)
        if free:
            raise ValueError(f"unknown symbols in coefficient: {sorted(map(str, free))}")
        self._fn = None
        self._partials: dict[int, "ExprCoeff"] = {}

    def __call__(self, y):
        if self._fn is None:
            self._fn = sp.lambdify(self.vars, self.expr, modules="numpy")
        y = np.asarray(y, dtype=float)
        Y = np.atleast_2d(y)
        out = np.broadcast_to(np.asarray(self._fn(*Y.T), dtype=float), Y.shape[:1])
        return float(out[0]) if y.ndim < 2 else out

    def partial(self, j: int) -> "ExprCoeff":
        """Analytic partial derivative with respect to y^{j+1} (0-based j)."""
        if j not in self._partials:
            self._partials[j] = ExprCoeff(sp.diff(self.expr, self.vars[j]), self.dim)
        return self._partials[j]

    def __repr__(self) -> str:
        return f"ExprCoeff({self.expr}, dim={self.dim})"
