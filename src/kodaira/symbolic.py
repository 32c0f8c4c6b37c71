"""Symbolic scalars, sympy backed: the one module that imports sympy.

:class:`SymbolicScalar` is a rational function in the formal symbols
``gamma`` (base genus), ``r`` (number of marked points / sections),
``lam`` (curve parameter) and the intersection unknowns ``Rsq``, ``x1``,
``x2``, kept in canonical cancelled form.  The intersection engine and
the invariants build on it; the numeric layers never import this module.
"""

from __future__ import annotations

from fractions import Fraction

import sympy as sp

# Formal symbols available to SymbolicScalar (fixed registry).
SYM_GAMMA = sp.Symbol("gamma")
SYM_R = sp.Symbol("r")
SYM_LAM = sp.Symbol("lam")
SYM_RSQ = sp.Symbol("Rsq")
SYM_X1 = sp.Symbol("x1")
SYM_X2 = sp.Symbol("x2")

_SYMBOLS = {
    "gamma": SYM_GAMMA,
    "r": SYM_R,
    "lam": SYM_LAM,
    "Rsq": SYM_RSQ,
    "x1": SYM_X1,
    "x2": SYM_X2,
}


def _to_sympy(value):
    if isinstance(value, SymbolicScalar):
        return value.expr
    if isinstance(value, Fraction):
        return sp.Rational(value.numerator, value.denominator)
    if isinstance(value, int):
        return sp.Integer(value)
    if isinstance(value, sp.Expr):
        return value
    raise TypeError(f"cannot interpret {type(value).__name__} as a symbolic scalar")


class SymbolicScalar:
    """Rational function in the fixed formal symbols, canonically cancelled.

    Canonical form: ``cancel`` of the expression, i.e. expanded numerator
    and denominator with their polynomial gcd removed and a normalised
    leading sign.  Equality of canonical forms is decidable and is what
    every symbolic identity check in the package uses.
    """

    __slots__ = ("expr",)

    def __init__(self, expr):
        object.__setattr__(self, "expr", sp.cancel(sp.together(_to_sympy(expr))))

    def __setattr__(self, *_):
        raise AttributeError("SymbolicScalar is immutable")

    @classmethod
    def symbol(cls, name: str) -> "SymbolicScalar":
        return cls(_SYMBOLS[name])

    def _binary(self, other, op):
        try:
            o = _to_sympy(other)
        except TypeError:
            return NotImplemented
        return SymbolicScalar(op(self.expr, o))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _to_sympy(other)
        if o == 0:
            raise ZeroDivisionError("division by zero")
        return SymbolicScalar(self.expr / o)

    def __rtruediv__(self, other):
        if self.expr == 0:
            raise ZeroDivisionError("division by zero")
        return self._binary(other, lambda a, b: b / a)

    def __neg__(self):
        return SymbolicScalar(-self.expr)

    def __pow__(self, n: int):
        return SymbolicScalar(self.expr ** n)

    def __eq__(self, other):
        try:
            o = _to_sympy(other)
        except TypeError:
            return NotImplemented
        return sp.cancel(self.expr - o) == 0

    def __hash__(self):
        return hash(self.expr)

    def is_zero(self) -> bool:
        return self.expr == 0

    def free_symbol_names(self) -> set:
        return {s.name for s in self.expr.free_symbols}

    def substitute(self, assignments: dict) -> "SymbolicScalar":
        """Substitute ``{symbol name: exact value or SymbolicScalar}``."""
        subs = {_SYMBOLS[name]: _to_sympy(val) for name, val in assignments.items()}
        return SymbolicScalar(self.expr.subs(subs, simultaneous=True))

    def as_fraction(self) -> Fraction:
        """Exact rational value of a constant expression."""
        v = sp.nsimplify(self.expr)
        if not v.is_Rational:
            raise ValueError(f"not a constant rational: {self.expr}")
        return Fraction(int(v.p), int(v.q))

    def __repr__(self):
        return f"SymbolicScalar({self.expr})"

    def __str__(self):
        return str(self.expr)


def symbols(*names: str):
    """Convenience constructor: ``gamma, r = symbols('gamma', 'r')``."""
    made = tuple(SymbolicScalar.symbol(n) for n in names)
    return made[0] if len(made) == 1 else made


def from_string(text: str) -> SymbolicScalar:
    """Parse the ``str`` of a SymbolicScalar back, over the fixed symbols."""
    return SymbolicScalar(sp.sympify(text, locals=_SYMBOLS))
