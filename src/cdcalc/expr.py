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


# A monomial is stored as one int, the product of one prime per unit of
# exponent: u*u_x^2 is p(u) * p(u_x)^2 and the constant monomial is 1, so a
# product of monomials is one int multiplication and cannot overflow.  Each
# coordinate has a small int id from one append-only table, in order of first
# use, and the id-th prime; ids, hence keys, can differ between runs, so nothing
# printed or compared may depend on id order.  ``_FACTORS`` decodes a key into
# the sorted tuple of its ids, each repeated once per unit of exponent
# (u*u_x^2 is (id(u), id(u_x), id(u_x))); every routine that makes a key
# registers it there on first sight, and the registry lives for the whole
# process (it holds each distinct monomial once, whatever made it).
# The public view (``DiffPoly.terms``) keeps (Coord, exponent) pairs in Coord order.
_COORDS: list = []  # id -> Coord
_IDS: dict = {}  # Coord -> id
_PRIMES: list = []  # id -> its prime
_FACTORS: dict = {1: ()}  # key -> the sorted tuple of its ids


def _next_prime() -> int:
    """The smallest prime above the last one handed out (2 first)."""
    if not _PRIMES:
        return 2
    n = _PRIMES[-1] + 1 | 1
    while True:
        for p in _PRIMES:  # trial division up to the square root only
            if p * p > n:
                return n
            if n % p == 0:
                break
        n += 2


def _coord_id(coord: Coord) -> int:
    """The id of ``coord``, interned with its prime on first use."""
    i = _IDS.get(coord)
    if i is None:
        i = _IDS[coord] = len(_COORDS)
        _COORDS.append(coord if type(coord) is Coord else Coord(*coord))
        _PRIMES.append(_next_prime())
    return i


def _key(pairs) -> int:
    """The key of a monomial given as (Coord, exponent) pairs, in any order, registered."""
    key, ids = 1, []
    for coord, e in pairs:
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponents must be non-negative integers")
        i = _coord_id(coord)
        key *= _PRIMES[i] ** e
        ids += [i] * e
    if key not in _FACTORS:
        _FACTORS[key] = tuple(sorted(ids))
    return key


def _lowered(key: int, ids: tuple, pos: int) -> int:
    """``key`` without the coordinate at ``pos`` of its ids ``_FACTORS[key]``, registered."""
    m = key // _PRIMES[ids[pos]]
    if m not in _FACTORS:
        _FACTORS[m] = ids[:pos] + ids[pos + 1:]
    return m


def _replaced(key: int, ids: tuple, pos: int, new: int) -> int:
    """``key`` with the coordinate at ``pos`` of its ids ``_FACTORS[key]`` made id ``new``."""
    m = key // _PRIMES[ids[pos]] * _PRIMES[new]
    if m not in _FACTORS:
        f = list(ids)
        f[pos] = new
        f.sort()
        _FACTORS[m] = tuple(f)
    return m


def _pairs(key: int) -> tuple:
    """The (Coord, exponent) pairs of a key, sorted by coordinate."""
    ids = _FACTORS[key]
    return tuple(sorted((_COORDS[i], ids.count(i)) for i in set(ids)))


def _accumulate(out: dict, key, value) -> None:
    """Add ``value`` to ``out[key]`` in place, dropping the key when the sum is zero.

    Form and operator coefficients keep their no-zero-values invariant
    through this one routine.  The numerator loops of ``_mul_into``,
    ``_sum_multiples``, ``jet._derivative_into`` and the Leibniz leaves of
    ``ops.adjoint``, over int monomial keys and int numerators, write it
    inline: calling it there made the polynomial-heavy benchmark workload
    about 7% slower, and ``_mul_into`` also registers each new product key
    in ``_FACTORS`` on the way.
    """
    s = out[key] + value if key in out else value
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _mul_into(out: dict, nums1: dict, nums2: dict, scale: int = 1) -> None:
    """Accumulate ``scale`` times the product of two numerator maps into ``out``.

    A product of keys is registered in ``_FACTORS`` the first time it is
    made; a key already in ``out`` is registered, so only new ones are looked up.
    """
    for m1, c1 in nums1.items():
        c1 *= scale
        for m2, c2 in nums2.items():
            m = m1 * m2
            if m in out:
                if s := out[m] + c1 * c2:
                    out[m] = s
                else:
                    del out[m]
            else:
                if m not in _FACTORS:
                    _FACTORS[m] = tuple(sorted(_FACTORS[m1] + _FACTORS[m2]))
                out[m] = c1 * c2


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


# Powers expand in full, and a monomial's key grows with its degree, so
# DiffPoly.var and ** reject a power of higher total degree, and the parser a
# larger literal exponent.
MAX_EXPONENT = 64

# A product expands in full: m by n terms form m * n term products, and when
# none meet (distinct binomials) each is a term of the result.  ** and the
# parser's products refuse to form more than this in one multiply, a bound
# set from a timed sweep (see the README).
MAX_PRODUCT_TERMS = 20000


class EvaluationError(ValueError):
    """A coordinate needed during evaluation has no assigned value."""


class DiffPoly:
    """Sparse multivariate polynomial with rational coefficients.

    ``nums`` maps monomials (int keys, products of one prime per unit of
    exponent; ``_FACTORS`` decodes them, see ``_key``) to nonzero int
    numerators over the one positive int denominator ``den``; the key 1, the
    empty monomial, carries the constant term.
    The form is canonical: gcd(den, *nums.values()) == 1, so den == 1 when
    every coefficient is an integer and the zero polynomial is ``{}`` over
    1.  ``terms`` is a read-only view of the coefficients as Fractions, keyed
    by tuples of (Coord, exponent) pairs sorted by coordinate.
    Instances are immutable by convention: no method mutates ``nums``
    after construction.
    """

    __slots__ = ("nums", "den")

    def __init__(self, terms: dict | None = None):
        """From a map monomial -> int or Fraction, a monomial being (Coord, exponent) pairs.

        Monomials that name the same exponents add up; zero sums are dropped.
        """
        values: dict = {}
        for pairs, c in (terms or {}).items():
            k = _key(pairs)
            values[k] = values.get(k, 0) + _rational(c)
        self.den, self.nums = _over_common_denominator({k: q for k, q in values.items() if q})

    @property
    def terms(self) -> MappingProxyType:
        """Monomial -> nonzero Fraction coefficient (a view built on each access)."""
        den = self.den
        return MappingProxyType({_pairs(m): Fraction(c, den) for m, c in self.nums.items()})

    def __reduce__(self):
        # through the public terms: ids are local to one process
        return DiffPoly, (dict(self.terms),)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "DiffPoly":
        return DiffPoly()

    @staticmethod
    def const(value) -> "DiffPoly":
        """The constant ``value``, an int or a Fraction (floats raise TypeError)."""
        q = _rational(value)
        return _poly({1: q.numerator} if q else {}, q.denominator)

    @staticmethod
    def var(coord: Coord, exp: int = 1) -> "DiffPoly":
        if exp < 0:
            raise ValueError("negative exponents are not supported")
        if exp > MAX_EXPONENT:
            raise ValueError(f"power of total degree {exp} exceeds {MAX_EXPONENT}")
        i = _coord_id(coord)
        key = _PRIMES[i] ** exp
        if key not in _FACTORS:
            _FACTORS[key] = (i,) * exp
        return _poly({key: 1}, 1)

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "DiffPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum_products(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DiffPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        if n > 1 and (degree := self.degree() * n) > MAX_EXPONENT:
            raise ValueError(f"power of total degree {degree} exceeds {MAX_EXPONENT}")
        result, base = None, self  # None for 1: no multiply by it
        while n:
            if n & 1:
                result = base if result is None else _bounded_product(result, base)
            n >>= 1
            if n:
                base = _bounded_product(base, base)
        return DiffPoly.const(1) if result is None else result

    # -- calculus ------------------------------------------------------

    def partial(self, coord: Coord) -> "DiffPoly":
        """Formal partial derivative; every Coord counts as independent."""
        i = _IDS.get(coord)
        out: dict = {}
        if i is not None:
            p = _PRIMES[i]
            for mono, c in self.nums.items():
                if not mono % p:
                    ids = _FACTORS[mono]
                    # lowering one coordinate maps distinct monomials apart
                    out[_lowered(mono, ids, ids.index(i))] = c * ids.count(i)
        return _poly(out, self.den)

    def evaluate(self, assignment) -> Fraction:
        """Evaluate at a mapping Coord -> rational or a jet-space point (an
        object with ``value(coord)``), by ``_ratio``.  Raises EvaluationError
        naming the first unassigned coordinate of a mapping.
        """
        return Fraction(*self._ratio(assignment))

    def _ratio(self, assignment) -> tuple[int, int]:
        """The value at a point as an unreduced (numerator, denominator) pair.

        A constant reads nothing of the point, so a drawn point stays
        undrawn.  Otherwise, at a point with a ``scaled`` (JetPoint: its
        values' common denominator and int numerators, keyed by coordinate
        id) the sum is taken in int by ``_evaluate_scaled``; elsewhere each
        value is a Fraction.  A prolongation tower (``spencer._Tower.rows``)
        brings the pairs to one lcm per point.
        """
        nums = self.nums
        if not nums or len(nums) == 1 and 1 in nums:  # zero, or the constant monomial alone
            return nums.get(1, 0), self.den
        if hasattr(assignment, "value"):
            value = assignment.value
            scaled = getattr(assignment, "scaled", None)
            if scaled is not None:
                return self._evaluate_scaled(*scaled, value)
        else:
            def value(coord):
                return _assigned(assignment, coord)
        total = Fraction(0)
        for mono, v in nums.items():
            for coord, e in _pairs(mono):
                v *= value(coord) ** e
            total += v
        return (total / self.den).as_integer_ratio()

    def _evaluate_scaled(self, vden: int, vals: dict, value) -> tuple[int, int]:
        """The value where coordinate id i is ``vals[i] / vden``; ``value`` reports a missing one.

        Returned as the unreduced pair ``(numerator, den * vden^top)``, top
        being the highest degree met.
        """
        total = top = 0  # the sum so far is total / (den * vden^top)
        for mono, v in self.nums.items():
            ids = _FACTORS[mono]
            try:
                for i in ids:
                    v *= vals[i]
            except KeyError:
                for coord, _ in _pairs(mono):  # the first missing one in coordinate order
                    value(coord)
                raise
            degree = len(ids)
            if degree > top:
                total *= vden ** (degree - top)
                top = degree
            elif degree < top:
                v *= vden ** (top - degree)
            total += v
        return total, self.den * vden ** top

    # -- queries ---------------------------------------------------------

    def coords(self) -> set:
        return {_COORDS[i] for i in set().union(*map(_FACTORS.__getitem__, self.nums))}

    def jet_order(self) -> int:
        """Highest |sigma| among jet coordinates occurring here (0 if none)."""
        return max((len(c.sigma) for c in self.coords() if c.kind == JET), default=0)

    def degree(self) -> int:
        """Total degree (0 for constants and for the zero polynomial)."""
        return max((len(_FACTORS[m]) for m in self.nums), default=0)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial; error if non-constant."""
        if not self.nums:
            return Fraction(0)
        if set(self.nums) == {1}:
            return Fraction(self.nums[1], self.den)
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
    return _sum_multiples([(1, p) for p in polys])


def _sum_multiples(pairs) -> DiffPoly:
    """The sum of ``k * p`` over a nonempty list of (int k, DiffPoly p) pairs, in one dict."""
    (k, first), *rest = pairs
    if not rest and k == 1:
        return first
    den = lcm(first.den, *[p.den for _, p in rest])
    k *= den // first.den
    out = {m: c * k for m, c in first.nums.items()}
    for k, p in rest:
        k *= den // p.den
        for m, c in p.nums.items():
            if s := out.get(m, 0) + c * k:
                out[m] = s
            else:
                del out[m]
    return _poly(out, den)


def _too_large(a: dict, b: dict) -> str:
    """Why a product of the terms ``a`` by those of ``b`` is refused."""
    return f"product of {len(a)} by {len(b)} terms exceeds {MAX_PRODUCT_TERMS} term products"


def _bounded_product(a: DiffPoly, b: DiffPoly) -> DiffPoly:
    """``a * b``, refused by a ValueError before it forms over MAX_PRODUCT_TERMS term products."""
    if len(a.nums) * len(b.nums) > MAX_PRODUCT_TERMS:
        raise ValueError(_too_large(a.nums, b.nums))
    return a * b


def _product(polys, stars) -> DiffPoly:
    """The product of a nonempty list of parsed DiffPolys, in one numerator dict with
    one gcd; ``stars`` are the offsets of the "*" before each later factor, where a
    product past MAX_PRODUCT_TERMS is refused before it is formed."""
    first, *rest = polys
    if not rest:
        return first
    nums, den = first.nums, first.den
    for p, star in zip(rest, stars):
        if len(nums) * len(p.nums) > MAX_PRODUCT_TERMS:
            raise ParseError(_too_large(nums, p.nums), star)
        out: dict = {}
        _mul_into(out, nums, p.nums)
        nums, den = out, den * p.den
    return _poly(nums, den)


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


def _as_poly(value) -> DiffPoly:
    """``value`` as a DiffPoly: an int or Fraction is a constant (floats raise TypeError)."""
    return value if isinstance(value, DiffPoly) else DiffPoly.const(value)


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
# Longer integer literals are rejected before int() meets Python's own limit.
MAX_DIGITS = 1000

# sign, then p/q or a plain decimal's digits before and after its point
_RATIONAL = re.compile(r"([+-]?)(?:(\d+)/(\d+)|(?=\.?\d)(\d*)(?:\.(\d*))?)", re.ASCII)
_INTEGER = re.compile(rf"[+-]?[0-9]{{1,{MAX_DIGITS}}}")


def _parse_rational(text: str, where: str) -> Fraction:
    """An integer, ``p/q`` or plain decimal of at most ``MAX_DIGITS`` digits.

    Exponent notation is rejected; the ValueError names ``where``, the line
    or argument the value came from.
    """
    text = text.strip()
    if not (match := _RATIONAL.fullmatch(text)):
        raise ValueError(f"{where}: expected an integer, p/q or plain decimal")
    if sum(ch.isdigit() for ch in text) > MAX_DIGITS:
        raise ValueError(f"{where}: value longer than {MAX_DIGITS} digits")
    sign, p, q, whole, frac = match.groups()
    if p is None:
        frac = frac or ""
        p, q = whole + frac, 10 ** len(frac)
    try:
        return Fraction(-int(p) if sign == "-" else int(p), int(q))
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

    expr    := term (("+"|"-") term)*
    term    := factor ("*" factor)*
    factor  := base ("^" uint)?
    base    := rational | coord | "(" expr ")" | "-" factor
    coord   := ident jetsuffix?
    indices := "{" ident ("," ident)* "}"   over independent names
    A jet suffix is "_" indices or, when every independent variable has a
    one-character name, a bare run of those characters ("u_xxt").

    Each value is built once: an expression sums its signed terms in one dict
    (``_sum_multiples``), a term multiplies its factors into one and reduces
    it once (``_product``), and a literal is made canonical directly.  Every
    rule reads ``self.tokens[self.pos]`` and moves ``self.pos`` itself, and
    compares lexemes alone: "+", "*", "^" and the like are only ever symbol
    tokens.
    """

    def __init__(self, text: str, ctx):
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def expect_sym(self, sym: str) -> None:
        kind, lex, off = self.tokens[self.pos]
        if kind != "sym" or lex != sym:
            raise ParseError(f"expected {sym!r}", off)
        self.pos += 1

    def expect_end(self) -> None:
        kind, lex, off = self.tokens[self.pos]
        if kind != "end":
            raise ParseError(f"unexpected {lex!r}", off)

    def parse(self) -> DiffPoly:
        value = self.expression()
        self.expect_end()
        return value

    def expression(self) -> DiffPoly:
        terms = [(1, self.term())]
        while (op := self.tokens[self.pos][1]) in ("+", "-"):
            self.pos += 1
            terms.append((1 if op == "+" else -1, self.term()))
        return _sum_multiples(terms)

    def term(self) -> DiffPoly:
        factors, stars = [self.factor()], []
        while (token := self.tokens[self.pos])[1] == "*":
            stars.append(token[2])
            self.pos += 1
            factors.append(self.factor())
        return _product(factors, stars)

    def factor(self) -> DiffPoly:
        value = self.base()
        tokens = self.tokens
        if tokens[self.pos][1] == "^":
            kind, lex, off = tokens[self.pos + 1]
            if kind != "num":
                raise ParseError("expected integer exponent", off)
            if int(lex) > MAX_EXPONENT:
                raise ParseError(f"exponent {lex} exceeds {MAX_EXPONENT}", off)
            self.pos += 2
            try:
                value = value ** int(lex)
            except ValueError as exc:
                raise ParseError(str(exc), off) from None
        return value

    def base(self) -> DiffPoly:
        tokens = self.tokens
        kind, lex, off = tokens[self.pos]
        if lex == "-" or lex == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"expression nested deeper than {MAX_NESTING} levels", off)
            self.pos += 1
            if lex == "-":
                value = -self.factor()
            else:
                value = self.expression()
                self.expect_sym(")")
            self.depth -= 1
            return value
        if kind == "num":
            self.pos += 1
            numer, den = int(lex), 1
            if tokens[self.pos][1] == "/":
                dkind, dlex, doff = tokens[self.pos + 1]
                if dkind != "num" or int(dlex) == 0:
                    raise ParseError("expected nonzero integer denominator", doff)
                self.pos += 2
                den = int(dlex)
            return _poly({1: numer} if numer else {}, den)
        if kind == "ident":
            return DiffPoly.var(self.coordinate())
        raise ParseError(f"unexpected {lex!r}" if lex else "unexpected end of input", off)

    def coordinate(self) -> Coord:
        tokens, ctx = self.tokens, self.ctx
        _, name, off = tokens[self.pos]
        self.pos += 1
        if tokens[self.pos][1] == "_":
            uoff = tokens[self.pos][2]
            self.pos += 1
            if name not in ctx.dep_index:
                raise ParseError(f"jet suffix on non-dependent identifier {name!r}", off)
            return ctx.jet_coord_checked(name, self.jet_suffix(uoff), off)
        if name in ctx.indep_index:
            return Coord(INDEP, ctx.indep_index[name])
        if name in ctx.dep_index:
            return Coord(JET, ctx.dep_index[name])
        if name in ctx.param_index:
            return Coord(PARAM, ctx.param_index[name])
        raise ParseError(f"undeclared identifier {name!r}", off)

    def indices(self, message: str) -> tuple:
        """``"{" name ("," name)* "}"`` over independent names, as their indices."""
        tokens, index = self.tokens, self.ctx.indep_index
        self.expect_sym("{")
        out = []
        while True:
            kind, lex, off = tokens[self.pos]
            if kind != "ident" or lex not in index:
                raise ParseError(message, off)
            out.append(index[lex])
            self.pos += 1
            if tokens[self.pos][1] != ",":
                break
            self.pos += 1
        self.expect_sym("}")
        return tuple(out)

    def jet_suffix(self, uoff: int) -> tuple:
        ctx = self.ctx
        kind, lex, off = self.tokens[self.pos]
        if lex == "{":
            return self.indices("malformed jet suffix: expected independent name")
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
        self.pos += 1
        return tuple(indices)


def parse_expr(text: str, ctx) -> DiffPoly:
    """Parse ``text`` against the declarations in ``ctx``; canonical result."""
    return ExprParser(text, ctx).parse()


def parse_coord(text: str, ctx) -> Coord:
    """Parse a single coordinate name ("x", "u_{x,t}", "lam")."""
    parser = ExprParser(text, ctx)
    kind, _, off = parser.tokens[0]
    if kind != "ident":
        raise ParseError("expected a coordinate name", off)
    coord = parser.coordinate()
    parser.expect_end()
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


def _signed_terms(p: DiffPoly, ctx) -> list[tuple[int, str]]:
    """(sign, unsigned body) of each term of ``p`` in printing order.

    Terms go by total degree, then by their (coordinate, exponent) pairs in
    Coord order; the pairs are compared through each coordinate's rank among
    the coordinates of ``p``, sorted once per call.
    """
    factors = [(_FACTORS[mono], c) for mono, c in p.nums.items()]
    ids = sorted(set().union(*[f for f, _ in factors]), key=_COORDS.__getitem__)
    rank = {i: r for r, i in enumerate(ids)}
    names = [format_coord(_COORDS[i], ctx) for i in ids]
    keyed = [(len(f), sorted((rank[i], f.count(i)) for i in set(f)), c) for f, c in factors]
    out = []
    for _, pairs, c in sorted(keyed):
        mag = Fraction(abs(c), p.den)
        parts = [str(mag)] if mag != 1 or not pairs else []
        parts += [names[r] if e == 1 else f"{names[r]}^{e}" for r, e in pairs]
        out.append((1 if c > 0 else -1, "*".join(parts)))
    return out


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
    return _join_signed(_signed_terms(p, ctx)) if p.nums else "0"
