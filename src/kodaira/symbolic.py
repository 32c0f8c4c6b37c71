"""Symbolic scalars: exact rational functions over six fixed symbols.

:class:`SymbolicScalar` is a rational function in the formal symbols
``gamma`` (base genus), ``r`` (number of marked points / sections),
``lam`` (curve parameter) and the intersection unknowns ``Rsq``, ``x1``,
``x2``.  The intersection engine and the invariants build on it; the
numeric layers never import this module.

A value is a numerator/denominator pair of polynomials.  A polynomial is
a dict from exponent tuples over :data:`NAMES` to nonzero ``Fraction``
coefficients, and comparing two tuples is the lex order on monomials.
The pair is kept canonical: numerator and denominator are coprime (their
gcd is divided out; see :func:`_heuristic_gcd`), a constant
denominator is 1, and otherwise both sides have coprime integer
coefficients and the denominator's leading coefficient is positive.  So
equal values print and hash equal, and a constant hashes like its
``Fraction``.

``str`` of a polynomial is sympy's ``str`` of the same expression, byte
for byte: terms in lex order over :data:`NAMES`, highest first, printed
as ``3*r*x1/2``, ``-x1/2`` or ``gamma**2``.  A rational function prints
as ``(num)/(den)``.  :func:`from_string` parses what ``str`` prints.

The sympy bridge -- the ``SYM_*`` module attributes (sympy Symbols),
:attr:`SymbolicScalar.expr` and ``SymbolicScalar(<sympy expression>)``
-- imports sympy inside the call and is used by nothing in the package.
It stays only because the benchmark's K^2 gate (``perfbench/gate.py``)
reads ``SYM_GAMMA``, ``SYM_R`` and ``k_squared_closed_form().expr``; the
next benchmark change can drop it.
"""

from __future__ import annotations

import ast
import math
import operator
from fractions import Fraction
from functools import cache

# the fixed symbols, in sympy's print order (default_sort_key of the names)
NAMES = ("Rsq", "gamma", "lam", "r", "x1", "x2")
_INDEX = {name: i for i, name in enumerate(NAMES)}
_CONST = (0,) * len(NAMES)
_ONE = {_CONST: Fraction(1)}


# -- polynomials: {exponent tuple: nonzero Fraction} ---------------------------


def _p_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + sign * c
        if v:
            out[m] = v
        else:
            del out[m]
    return out


def _p_mul(a: dict, b: dict) -> dict:
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(operator.add, ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _p_scale(a: dict, c) -> dict:
    return {m: v * c for m, v in a.items()}


def _p_pow(a: dict, n: int) -> dict:
    out = _ONE
    for bit in bin(n)[2:]:
        out = _p_mul(out, out)
        if bit == "1":
            out = _p_mul(out, a)
    return out


def _is_constant(a: dict) -> bool:
    return len(a) == 1 and _CONST in a


def _monic(a: dict) -> dict:
    return _p_scale(a, 1 / a[max(a)])


def _p_divexact(a: dict, b: dict) -> dict:
    """``a / b`` for a divisor ``b`` of ``a``, by division on leading terms."""
    lead = max(b)
    quotient, rest = {}, a
    while rest:
        top = max(rest)
        shift = tuple(map(operator.sub, top, lead))
        if min(shift) < 0:
            raise ArithmeticError("polynomial division is not exact")
        term = {shift: Fraction(rest[top], b[lead])}
        quotient[shift] = term[shift]
        rest = _p_add(rest, _p_mul(term, b), -1)
    return quotient


def _p_gcd(a: dict, b: dict) -> dict:
    """Monic greatest common divisor of two nonzero polynomials."""
    if len(a) == 1 or len(b) == 1:
        # a monomial's divisors are monomials: the least exponent of each symbol
        return {tuple(map(min, *a, *b)): Fraction(1)}
    found = _heuristic_gcd(_integral(a), _integral(b))
    return _monic({m: Fraction(c) for m, c in found.items()})


def _integer_scale(coefficients: list) -> Fraction:
    """The positive rational that makes these coefficients coprime ints."""
    return Fraction(math.lcm(*(c.denominator for c in coefficients)),
                    math.gcd(*(c.numerator for c in coefficients)))


def _integral(a: dict) -> dict:
    """``a`` scaled to a primitive polynomial with int coefficients."""
    scale = _integer_scale(list(a.values()))
    return {m: int(c * scale) for m, c in a.items()}


def _heuristic_gcd(f: dict, g: dict) -> dict:
    """gcd in ``Z[NAMES]`` of two nonzero int polynomials.

    The heuristic gcd of Char, Geddes and Gonnet: evaluate the first symbol
    at an integer ``x``, take the gcd of the values recursively, and read
    the symbol's coefficients back as balanced base-``x`` digits.  With
    ``x >= 2 * min(|f|, |g|) + 2`` a primitive candidate that divides both
    is the gcd.  An unlucky ``x`` gives a candidate that does not divide,
    and ``x`` grows; every large enough ``x`` is lucky, so the loop ends.
    """
    common = math.gcd(*f.values(), *g.values())
    f = {m: c // common for m, c in f.items()}
    g = {m: c // common for m, c in g.items()}
    present = [i for i in range(len(NAMES)) if any(m[i] for m in (*f, *g))]
    if not present:
        return {_CONST: common * math.gcd(f[_CONST], g[_CONST])}
    var = present[0]
    x = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    while True:
        at_x = [_evaluate(p, var, x) for p in (f, g)]
        if all(at_x):
            candidate = {}
            for m, c in _heuristic_gcd(*at_x).items():
                k = 0
                while c:
                    digit = c % x
                    if digit > x // 2:
                        digit -= x
                    if digit:
                        candidate[m[:var] + (k,) + m[var + 1:]] = digit
                    c, k = (c - digit) // x, k + 1
            content = math.gcd(*candidate.values())
            candidate = {m: c // content for m, c in candidate.items()}
            if _divides(candidate, f) and _divides(candidate, g):
                return {m: common * c for m, c in candidate.items()}
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011


def _evaluate(a: dict, var: int, x: int) -> dict:
    """``a`` with the symbol ``var`` set to ``x``."""
    out = {}
    for m, c in a.items():
        key = m[:var] + (0,) + m[var + 1:]
        out[key] = out.get(key, 0) + c * x ** m[var]
    return {m: c for m, c in out.items() if c}


def _divides(b: dict, a: dict) -> bool:
    try:
        _p_divexact(a, b)
    except ArithmeticError:
        return False
    return True


def _canonical(num: dict, den: dict) -> tuple:
    """The canonical pair of the quotient ``num / den``."""
    if not den:
        raise ZeroDivisionError("division by zero")
    if not num:
        return {}, _ONE
    if not _is_constant(den):
        common = _p_gcd(num, den)
        if not _is_constant(common):
            num, den = _p_divexact(num, common), _p_divexact(den, common)
    if _is_constant(den):
        return _p_scale(num, 1 / den[_CONST]), _ONE
    scale = _integer_scale([*num.values(), *den.values()])
    if den[max(den)] < 0:
        scale = -scale
    return _p_scale(num, scale), _p_scale(den, scale)


def _p_str(a: dict) -> str:
    """sympy's ``str`` of a polynomial: lex order, highest term first."""
    if not a:
        return "0"
    out = []
    for m, c in sorted(a.items(), reverse=True):
        out.append(" - " if c < 0 else " + ")
        c = abs(c)
        factors = "*".join(name if e == 1 else f"{name}**{e}"
                           for name, e in zip(NAMES, m) if e)
        if not factors:
            out.append(str(c))
            continue
        if c.numerator != 1:
            factors = f"{c.numerator}*{factors}"
        out.append(factors if c.denominator == 1 else f"{factors}/{c.denominator}")
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def _q_add(a: dict, b: dict, c: dict, d: dict) -> tuple:
    """``a/b + c/d`` as a (not yet canonical) pair."""
    if b == d:
        return _p_add(a, c), b
    return _p_add(_p_mul(a, d), _p_mul(c, b)), _p_mul(b, d)


# -- the scalar ----------------------------------------------------------------


def _parts(value) -> tuple:
    """The canonical ``(num, den)`` of a value usable as a symbolic scalar."""
    if isinstance(value, SymbolicScalar):
        return value._num, value._den
    if isinstance(value, (int, Fraction)):
        return ({_CONST: Fraction(value)} if value else {}), _ONE
    if type(value).__module__.startswith("sympy."):
        return _parts(from_string(str(value)))  # sympy bridge
    raise TypeError(f"cannot interpret {type(value).__name__} as a symbolic scalar")


class SymbolicScalar:
    """Rational function in the fixed formal symbols, in canonical form.

    Built from an int, a ``Fraction``, another SymbolicScalar, a sympy
    expression over the fixed symbols (the bridge), or a ``(num, den)``
    pair of polynomial dicts, which is brought to canonical form.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, value):
        num, den = _canonical(*value) if isinstance(value, tuple) else _parts(value)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, *_):
        raise AttributeError("SymbolicScalar is immutable")

    @classmethod
    def symbol(cls, name: str) -> "SymbolicScalar":
        exponents = tuple(int(i == _INDEX[name]) for i in range(len(NAMES)))
        return cls(({exponents: Fraction(1)}, _ONE))

    def _binary(self, other, combine):
        try:
            c, d = _parts(other)
        except TypeError:
            return NotImplemented
        return SymbolicScalar(combine(self._num, self._den, c, d))

    def __add__(self, other):
        return self._binary(other, _q_add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b, c, d: _q_add(a, b, _p_scale(c, -1), d))

    def __rsub__(self, other):
        return self._binary(other, lambda a, b, c, d: _q_add(c, d, _p_scale(a, -1), b))

    def __mul__(self, other):
        return self._binary(other, lambda a, b, c, d: (_p_mul(a, c), _p_mul(b, d)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, lambda a, b, c, d: (_p_mul(a, d), _p_mul(b, c)))

    def __rtruediv__(self, other):
        return self._binary(other, lambda a, b, c, d: (_p_mul(c, b), _p_mul(d, a)))

    def __neg__(self):
        return SymbolicScalar((_p_scale(self._num, -1), self._den))

    def __pow__(self, n: int):
        num, den = (self._num, self._den) if n >= 0 else (self._den, self._num)
        return SymbolicScalar((_p_pow(num, abs(n)), _p_pow(den, abs(n))))

    def __eq__(self, other):
        try:
            c, d = _parts(other)
        except TypeError:
            return NotImplemented
        return _p_mul(self._num, d) == _p_mul(c, self._den)

    def __hash__(self):
        if not self.free_symbol_names():
            return hash(self.as_fraction())
        return hash((frozenset(self._num.items()), frozenset(self._den.items())))

    def is_zero(self) -> bool:
        return not self._num

    def free_symbol_names(self) -> set:
        return {name for m in (*self._num, *self._den)
                for name, e in zip(NAMES, m) if e}

    def substitute(self, assignments: dict) -> "SymbolicScalar":
        """Substitute ``{symbol name: exact value or SymbolicScalar}`` at once.

        Each symbol ``i`` takes a value ``n_i / d_i``; numerator and
        denominator are both multiplied by ``d_i ** D_i``, with ``D_i`` the
        symbol's highest power in either, so both stay polynomials.
        """
        values = {_INDEX[name]: _parts(value) for name, value in assignments.items()}
        top = {i: max(m[i] for m in (*self._num, *self._den)) for i in values}

        def homogenized(poly):
            out = {}
            for m, c in poly.items():
                term = {tuple(0 if i in values else e for i, e in enumerate(m)): c}
                for i, (n, d) in values.items():
                    term = _p_mul(term, _p_mul(_p_pow(n, m[i]), _p_pow(d, top[i] - m[i])))
                out = _p_add(out, term)
            return out

        return SymbolicScalar((homogenized(self._num), homogenized(self._den)))

    def as_fraction(self) -> Fraction:
        """Exact rational value of a constant expression."""
        if self.free_symbol_names():
            raise ValueError(f"not a constant rational: {self}")
        return self._num.get(_CONST, Fraction(0))

    @property
    def expr(self):
        """This value as a sympy expression (the sympy bridge; loads sympy)."""
        import sympy

        return sympy.parse_expr(str(self), local_dict=_sympy_symbols())

    def __repr__(self):
        return f"SymbolicScalar({self})"

    def __str__(self):
        if self._den == _ONE:
            return _p_str(self._num)
        return f"({_p_str(self._num)})/({_p_str(self._den)})"


def symbols(*names: str):
    """Convenience constructor: ``gamma, r = symbols('gamma', 'r')``."""
    made = tuple(SymbolicScalar.symbol(n) for n in names)
    return made[0] if len(made) == 1 else made


_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.Div: operator.truediv}


def from_string(text: str) -> SymbolicScalar:
    """Parse the ``str`` of a SymbolicScalar back, over the fixed symbols."""

    def value(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exponent = value(node.right).as_fraction()
            if exponent.denominator == 1:
                return value(node.left) ** exponent.numerator
        elif isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            return _OPERATORS[type(node.op)](value(node.left), value(node.right))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            operand = value(node.operand)
            return -operand if isinstance(node.op, ast.USub) else operand
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            return SymbolicScalar(node.value)
        elif isinstance(node, ast.Name) and node.id in _INDEX:
            return SymbolicScalar.symbol(node.id)
        raise ValueError(f"not a rational function of {', '.join(NAMES)}: {text!r}")

    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse {text!r}") from exc
    return value(tree.body)


# -- the sympy bridge ----------------------------------------------------------

_BRIDGED = {f"SYM_{name.upper()}": name for name in NAMES}


@cache
def _sympy_symbols() -> dict:
    import sympy

    return {name: sympy.Symbol(name) for name in NAMES}


def __getattr__(attr):
    # SYM_GAMMA, SYM_R, ...: the fixed symbols as sympy Symbols, made once
    if attr in _BRIDGED:
        return _sympy_symbols()[_BRIDGED[attr]]
    raise AttributeError(f"module {__name__!r} has no attribute {attr!r}")
