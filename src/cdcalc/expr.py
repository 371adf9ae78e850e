"""Exact differential-polynomial arithmetic.

Polynomials over the rationals in three families of symbols: independent
variables, jet coordinates (a dependent variable tagged with a multi-index
of independents), and named parameters.  Values are kept in a canonical
sparse normal form (int numerators over one positive denominator, no zero
numerators, no common factor), so equality is literal and every operation
is exact: fraction-free, with one gcd per result.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from types import MappingProxyType

INDEP = 0
JET = 1
PARAM = 2

_KIND_NAMES = {INDEP: "independent", JET: "jet", PARAM: "parameter"}


class Coord(tuple):
    """One symbol: an independent variable, a jet coordinate, or a parameter.

    A ``Coord`` is the tuple ``(kind, index, sigma)``.  ``index`` is the
    0-based position of the variable in its declaration list (the dependent
    variable's position for jets).  ``sigma`` is the multi-index of a jet
    coordinate: a non-decreasing tuple of independent variable indices,
    empty for the dependent variable itself; it is sorted at construction,
    so ``Coord(JET, 0, (1, 0)) == Coord(JET, 0, (0, 1))``.  Being a tuple,
    a ``Coord`` hashes, orders and compares equal like the plain tuple
    ``(kind, index, sigma)``; that order is the canonical coordinate order.
    """

    __slots__ = ()

    def __new__(cls, kind: int, index: int, sigma=()):
        return tuple.__new__(cls, (kind, index, tuple(sorted(sigma))))

    kind = property(itemgetter(0))
    index = property(itemgetter(1))
    sigma = property(itemgetter(2))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        if self.kind == JET:
            return f"Coord(jet {self.index} sigma={self.sigma})"
        return f"Coord({_KIND_NAMES[self.kind]} {self.index})"


# A monomial maps coordinates to positive integer exponents; stored as a
# tuple of (Coord, exponent) pairs sorted by coordinate.
Monomial = tuple


def _lower(mono: Monomial, pos: int, e: int) -> Monomial:
    """``mono`` with the exponent ``e`` of its ``pos``-th coordinate lowered by one."""
    if e == 1:
        return mono[:pos] + mono[pos + 1:]
    return mono[:pos] + ((mono[pos][0], e - 1),) + mono[pos + 1:]


def _raise(mono: Monomial, coord: Coord) -> Monomial:
    """``mono`` times ``coord``: its exponent raised by one, or a new pair in order."""
    at = bisect_left(mono, (coord,))
    if at < len(mono) and mono[at][0] == coord:
        return mono[:at] + ((coord, mono[at][1] + 1),) + mono[at + 1:]
    return mono[:at] + ((coord, 1),) + mono[at:]


def _accumulate(out: dict, key, value) -> None:
    """Add ``value`` to ``out[key]`` in place, dropping the key when the sum is zero.

    Form and operator coefficients keep their no-zero-values invariant
    through this one routine.  The int numerator loops of ``_mul_into``,
    ``_sum`` and ``jet.total_derivative`` write it inline: calling it there
    made the polynomial-heavy benchmark workload about 12% slower.
    """
    s = out[key] + value if key in out else value
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _mul_into(out: dict, nums1: dict, nums2: dict, scale: int = 1) -> None:
    """Accumulate ``scale`` times the product of two numerator maps into ``out``."""
    for m1, c1 in nums1.items():
        c1 *= scale
        d1 = dict(m1)
        for m2, c2 in nums2.items():
            d = dict(d1)
            for coord, e in m2:
                d[coord] = d.get(coord, 0) + e
            m = tuple(sorted(d.items()))
            if s := out.get(m, 0) + c1 * c2:
                out[m] = s
            else:
                del out[m]


def _rational(value) -> Fraction:
    """``value`` as a Fraction; only int and Fraction are exact inputs."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be int or Fraction, not {type(value).__name__}")


def _over_common_denominator(values: dict, limit: int | None = None) -> tuple[int, dict] | None:
    """``(den, nums)`` with ``values[k] == nums[k] / den``, den the lcm of the denominators.

    None as soon as that lcm passes ``limit``: it is built one value at a
    time and stops at the first value that takes it past the limit.
    """
    values = {k: _rational(v) for k, v in values.items()}
    den = 1
    for v in values.values():
        den = lcm(den, v.denominator)
        if limit is not None and den > limit:
            return None
    return den, {k: v.numerator * (den // v.denominator) for k, v in values.items()}


# A point's values are brought to one common denominator for DiffPoly.evaluate
# only while it stays at most this; past it the powers of the denominator that
# scale each term cost more than a Fraction per value (see the README), and the
# point's stored numerators would grow with its size times the lcm's digits.
MAX_POINT_DENOMINATOR = 2 ** 512


class EvaluationError(ValueError):
    """A coordinate needed during evaluation has no assigned value."""


class DiffPoly:
    """Sparse multivariate polynomial with rational coefficients.

    ``nums`` maps monomials to nonzero int numerators over the one positive
    int denominator ``den``; the empty monomial carries the constant term.
    The form is canonical: gcd(den, *nums.values()) == 1, so den == 1 when
    every coefficient is an integer and the zero polynomial is ``{}`` over
    1.  ``terms`` is a read-only view of the coefficients as Fractions.
    Instances are immutable by convention: no method mutates ``nums``
    after construction.
    """

    __slots__ = ("nums", "den")

    def __init__(self, terms: dict | None = None):
        """From a map monomial -> int or Fraction; zero values are dropped."""
        values = {m: q for m, c in terms.items() if (q := _rational(c))} if terms else {}
        self.den, self.nums = _over_common_denominator(values)

    @property
    def terms(self) -> MappingProxyType:
        """Monomial -> nonzero Fraction coefficient (a view built on each access)."""
        den = self.den
        return MappingProxyType({m: Fraction(c, den) for m, c in self.nums.items()})

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "DiffPoly":
        return DiffPoly()

    @staticmethod
    def const(value) -> "DiffPoly":
        """The constant ``value``, an int or a Fraction (floats raise TypeError)."""
        q = _rational(value)
        return _poly({(): q.numerator} if q else {}, q.denominator)

    @staticmethod
    def var(coord: Coord, exp: int = 1) -> "DiffPoly":
        if exp < 0:
            raise ValueError("negative exponents are not supported")
        if exp == 0:
            return DiffPoly.const(1)
        return _poly({((coord, exp),): 1}, 1)

    # -- ring structure ------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        if isinstance(other, DiffPoly):
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            return self == DiffPoly.const(other)
        return NotImplemented

    __hash__ = None  # mutable-looking container; not meant as a dict key

    def __add__(self, other) -> "DiffPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "DiffPoly":
        return _poly({m: -c for m, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "DiffPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum_products(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DiffPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = DiffPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus ------------------------------------------------------

    def partial(self, coord: Coord) -> "DiffPoly":
        """Formal partial derivative; every Coord counts as independent."""
        out: dict = {}
        for mono, c in self.nums.items():
            for pos, (x, e) in enumerate(mono):
                if x == coord:
                    # lowering one coordinate maps distinct monomials apart
                    out[_lower(mono, pos, e)] = c * e
                    break
        return _poly(out, self.den)

    def evaluate(self, assignment) -> Fraction:
        """Evaluate at a point.

        ``assignment`` is either a mapping Coord -> rational or a jet-space
        point (an object with ``value(coord)``).  At a point whose values
        share a common denominator of at most ``MAX_POINT_DENOMINATOR``
        (a JetPoint's ``scaled`` is then that denominator and the values'
        int numerators over it), the sum is taken in int, with one Fraction
        at the end; otherwise each value is a Fraction.  Raises
        EvaluationError naming the first unassigned coordinate of a mapping.
        """
        if hasattr(assignment, "value"):
            value = assignment.value
            scaled = getattr(assignment, "scaled", None)
            if scaled is not None:
                return self._evaluate_scaled(*scaled, value)
        else:
            def value(coord):
                return _assigned(assignment, coord)
        total = Fraction(0)
        for mono, v in self.nums.items():
            for coord, e in mono:
                v *= value(coord) ** e
            total += v
        return total / self.den

    def _evaluate_scaled(self, vden: int, vals: dict, value) -> Fraction:
        """The value where each coordinate is ``vals[coord] / vden``; ``value`` reports a missing one."""
        total = top = 0  # the sum so far is total / (den * vden^top)
        for mono, v in self.nums.items():
            degree = 0
            for coord, e in mono:
                try:
                    x = vals[coord]
                except KeyError:
                    value(coord)
                    raise
                v *= x if e == 1 else x ** e
                degree += e
            if degree > top:
                total *= vden ** (degree - top)
                top = degree
            elif degree < top:
                v *= vden ** (top - degree)
            total += v
        return Fraction(total, self.den * vden ** top)

    # -- queries ---------------------------------------------------------

    def coords(self) -> set:
        out = set()
        for mono in self.nums:
            out.update(c for c, _ in mono)
        return out

    def jet_order(self) -> int:
        """Highest |sigma| among jet coordinates occurring here (0 if none)."""
        best = 0
        for mono in self.nums:
            for c, _ in mono:
                if c.kind == JET and len(c.sigma) > best:
                    best = len(c.sigma)
        return best

    def degree(self) -> int:
        """Total degree (0 for constants and for the zero polynomial)."""
        return max((sum(e for _, e in m) for m in self.nums), default=0)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial; error if non-constant."""
        if not self.nums:
            return Fraction(0)
        if set(self.nums) == {()}:
            return Fraction(self.nums[()], self.den)
        raise ValueError("polynomial is not constant")

    def __repr__(self) -> str:
        return f"DiffPoly({len(self.nums)} terms)"


def _assigned(mapping, coord: Coord) -> Fraction:
    try:
        return _rational(mapping[coord])
    except KeyError:
        raise EvaluationError(f"no value assigned to coordinate {coord!r}") from None


_new = object.__new__


def _poly(nums: dict, den: int) -> DiffPoly:
    """The DiffPoly ``nums / den`` in canonical form.

    ``nums`` has no zero values and is owned by the result from here on;
    its content with ``den`` is divided out with one gcd.
    """
    if den != 1:
        if not nums:
            den = 1
        else:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {m: c // g for m, c in nums.items()}
    p = _new(DiffPoly)
    p.nums = nums
    p.den = den
    return p


def _sum(polys) -> DiffPoly:
    """The sum of a nonempty sequence of DiffPolys, in one dict over the lcm of their denominators."""
    first = polys[0]
    if len(polys) == 1:
        return first
    den = lcm(*[p.den for p in polys])
    k = den // first.den
    out = {m: c * k for m, c in first.nums.items()}
    for p in polys[1:]:
        k = den // p.den
        for m, c in p.nums.items():
            if s := out.get(m, 0) + c * k:
                out[m] = s
            else:
                del out[m]
    return _poly(out, den)


def _sum_by_key(pairs) -> dict:
    """``{key: the sum of the DiffPolys given under it}`` over (key, poly) pairs; zero sums dropped."""
    out: dict = {}
    groups: dict = {}  # key -> all its polys, for the keys given more than once
    for key, poly in pairs:
        if poly.nums:
            if key in out:
                groups.setdefault(key, [out[key]]).append(poly)
            else:
                out[key] = poly
    for key, polys in groups.items():
        if s := _sum(polys):
            out[key] = s
        else:
            del out[key]
    return out


def _sum_products(pairs) -> DiffPoly:
    """The sum of ``a * b`` over (a, b) pairs of DiffPolys, in one dict over one denominator."""
    den = lcm(*(a.den * b.den for a, b in pairs))
    out: dict = {}
    for a, b in pairs:
        _mul_into(out, a.nums, b.nums, den // (a.den * b.den))
    return _poly(out, den)


def _coerce(value):
    if isinstance(value, DiffPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return DiffPoly.const(value)
    return NotImplemented


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """Syntax or declaration error, with a 0-based text offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at offset {pos}")
        self.pos = pos


_SYMBOLS = set("+-*/^(){}_,")
_DIGITS = frozenset("0123456789")

# Parentheses and unary minus recurse through the grammar (up to four frames a
# level); this bound keeps malformed input far below Python's recursion limit.
MAX_NESTING = 100
# Powers expand in full, so a large literal exponent is a size blow-up.
MAX_EXPONENT = 64
# Longer integer literals are rejected before int() meets Python's own limit.
MAX_DIGITS = 1000

_RATIONAL = re.compile(r"[+-]?(\d+/\d+|\d+\.?\d*|\.\d+)", re.ASCII)
_INTEGER = re.compile(rf"[+-]?[0-9]{{1,{MAX_DIGITS}}}")


def _parse_rational(text: str, where: str) -> Fraction:
    """An integer, ``p/q`` or plain decimal of at most ``MAX_DIGITS`` digits.

    Exponent notation is rejected; the ValueError names ``where``, the line
    or argument the value came from.
    """
    text = text.strip()
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"{where}: expected an integer, p/q or plain decimal")
    if sum(ch.isdigit() for ch in text) > MAX_DIGITS:
        raise ValueError(f"{where}: value longer than {MAX_DIGITS} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{where}: zero denominator") from None


def _parse_integers(text: str, where: str) -> tuple[int, ...]:
    """Comma-separated ASCII integers of at most MAX_DIGITS digits; errors begin with where."""
    tokens = [tok.strip() for tok in text.split(",")]
    if not all(_INTEGER.fullmatch(tok) for tok in tokens):
        raise ValueError(f"{where} entries must be integers of at most {MAX_DIGITS} digits")
    return tuple(int(tok) for tok in tokens)


def _tokenize(text: str):
    """Yield (kind, lexeme, offset) triples; kinds: num, ident, sym, end."""
    tokens = []
    i, size = 0, len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < size and text[j] in _DIGITS:
                j += 1
            if j - i > MAX_DIGITS:
                raise ParseError(f"integer literal longer than {MAX_DIGITS} digits", i)
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < size and text[j].isalnum():
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(("sym", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", size))
    return tokens


class ExprParser:
    """Recursive-descent parser for the expression grammar.

    expr   := term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := base ("^" uint)?
    base   := rational | coord | "(" expr ")" | "-" factor
    coord  := ident jetsuffix?
    A jet suffix is "_{i1,i2,...}" or, when every independent variable has a
    one-character name, a bare run of those characters ("u_xxt").
    """

    def __init__(self, text: str, ctx):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    # -- token plumbing -------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, sym: str):
        kind, lex, off = self.peek()
        if kind != "sym" or lex != sym:
            raise ParseError(f"expected {sym!r}", off)
        return self.advance()

    def at_sym(self, sym: str) -> bool:
        kind, lex, _ = self.peek()
        return kind == "sym" and lex == sym

    # -- grammar ---------------------------------------------------------

    def parse(self) -> DiffPoly:
        value = self.expression()
        kind, lex, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {lex!r}", off)
        return value

    def expression(self) -> DiffPoly:
        value = self.term()
        while self.at_sym("+") or self.at_sym("-"):
            _, op, _ = self.advance()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> DiffPoly:
        value = self.factor()
        while self.at_sym("*"):
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> DiffPoly:
        value = self.base()
        if self.at_sym("^"):
            self.advance()
            kind, lex, off = self.peek()
            if kind != "num":
                raise ParseError("expected integer exponent", off)
            if int(lex) > MAX_EXPONENT:
                raise ParseError(f"exponent {lex} exceeds {MAX_EXPONENT}", off)
            self.advance()
            value = value ** int(lex)
        return value

    def base(self) -> DiffPoly:
        kind, lex, off = self.peek()
        if kind == "sym" and lex in ("-", "("):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"expression nested deeper than {MAX_NESTING} levels", off)
            self.advance()
            if lex == "-":
                value = -self.factor()
            else:
                value = self.expression()
                self.expect_sym(")")
            self.depth -= 1
            return value
        if kind == "num":
            self.advance()
            numer = int(lex)
            if self.at_sym("/"):
                self.advance()
                dkind, dlex, doff = self.peek()
                if dkind != "num" or int(dlex) == 0:
                    raise ParseError("expected nonzero integer denominator", doff)
                self.advance()
                return DiffPoly.const(Fraction(numer, int(dlex)))
            return DiffPoly.const(numer)
        if kind == "ident":
            return DiffPoly.var(self.coordinate())
        raise ParseError(f"unexpected {lex!r}" if lex else "unexpected end of input", off)

    def coordinate(self) -> Coord:
        kind, name, off = self.advance()
        ctx = self.ctx
        if self.at_sym("_"):
            _, _, uoff = self.advance()
            if name not in ctx.dep_index:
                raise ParseError(f"jet suffix on non-dependent identifier {name!r}", off)
            sigma = self.jet_suffix(uoff)
            return ctx.jet_coord_checked(name, sigma, off)
        if name in ctx.indep_index:
            return Coord(INDEP, ctx.indep_index[name])
        if name in ctx.dep_index:
            return Coord(JET, ctx.dep_index[name])
        if name in ctx.param_index:
            return Coord(PARAM, ctx.param_index[name])
        raise ParseError(f"undeclared identifier {name!r}", off)

    def jet_suffix(self, uoff: int) -> tuple:
        ctx = self.ctx
        if self.at_sym("{"):
            self.advance()
            indices = []
            while True:
                kind, lex, off = self.peek()
                if kind != "ident" or lex not in ctx.indep_index:
                    raise ParseError("malformed jet suffix: expected independent name", off)
                self.advance()
                indices.append(ctx.indep_index[lex])
                if self.at_sym(","):
                    self.advance()
                    continue
                break
            self.expect_sym("}")
            return tuple(indices)
        kind, lex, off = self.peek()
        if kind != "ident":
            raise ParseError("malformed jet suffix", uoff)
        if not all(len(nm) == 1 for nm in ctx.indep):
            raise ParseError(
                "shorthand jet suffix needs single-character independent names; "
                "use u_{i,j,...}", off)
        indices = []
        for ch in lex:
            if ch not in ctx.indep_index:
                raise ParseError(f"malformed jet suffix: {ch!r} is not independent", off)
            indices.append(ctx.indep_index[ch])
        self.advance()
        return tuple(indices)


def parse_expr(text: str, ctx) -> DiffPoly:
    """Parse ``text`` against the declarations in ``ctx``; canonical result."""
    return ExprParser(text, ctx).parse()


def parse_coord(text: str, ctx) -> Coord:
    """Parse a single coordinate name ("x", "u_{x,t}", "lam")."""
    parser = ExprParser(text, ctx)
    kind, _, off = parser.peek()
    if kind != "ident":
        raise ParseError("expected a coordinate name", off)
    coord = parser.coordinate()
    kind, lex, off = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected {lex!r}", off)
    return coord


def evaluate(f: DiffPoly, point) -> Fraction:
    """Evaluate ``f`` at a point (mapping or JetPoint); exact rational."""
    return f.evaluate(point)


def partial(f: DiffPoly, coord: Coord) -> DiffPoly:
    """Formal partial derivative of ``f`` with respect to one coordinate."""
    return f.partial(coord)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def format_coord(coord: Coord, ctx) -> str:
    if coord.kind == INDEP:
        return ctx.indep[coord.index]
    if coord.kind == PARAM:
        return ctx.params[coord.index]
    name = ctx.dep[coord.index]
    if not coord.sigma:
        return name
    if all(len(nm) == 1 for nm in ctx.indep):
        return name + "_" + "".join(ctx.indep[i] for i in coord.sigma)
    return name + "_{" + ",".join(ctx.indep[i] for i in coord.sigma) + "}"


def _monomial_key(mono: Monomial) -> tuple:
    return (sum(e for _, e in mono), mono)


def _format_monomial(mono: Monomial, coeff: Fraction, ctx) -> tuple[int, str]:
    """Return (sign, body) with body the unsigned printed monomial."""
    sign = 1 if coeff > 0 else -1
    mag = abs(coeff)
    parts = []
    if mag != 1 or not mono:
        parts.append(str(mag))
    for coord, e in mono:
        name = format_coord(coord, ctx)
        parts.append(name if e == 1 else f"{name}^{e}")
    return sign, "*".join(parts)


def _join_signed(terms) -> str:
    """Join (sign, unsigned body) pairs as "a - b + c"; a leading sign only if negative."""
    pieces = []
    for sign, body in terms:
        if not pieces:
            pieces.append(body if sign > 0 else "-" + body)
        else:
            pieces.append((" + " if sign > 0 else " - ") + body)
    return "".join(pieces)


def format_poly(p: DiffPoly, ctx) -> str:
    """Deterministic printing; output re-parses to an equal polynomial."""
    terms = p.terms
    if not terms:
        return "0"
    return _join_signed(_format_monomial(mono, terms[mono], ctx)
                        for mono in sorted(terms, key=_monomial_key))
