"""Exact scalar arithmetic: the rationals and prime fields.

Over the rationals a scalar is a plain ``int`` when it is integral and a
``fractions.Fraction`` otherwise; over a prime field it is a small ``Fp``
wrapper object.  All downstream code uses ordinary operators, except for
division: ``int / int`` is a ``float``, so every quotient of scalars goes
through ``Field.div``.  Sums and products of ``Fraction`` values may be
integral ``Fraction`` values; they compare and hash equal to the ``int``.
A ``Field`` object is only needed to construct scalars, divide them, parse
them from text, and serialize them back.  Conversion into GF(p) lives here
only (``residue``), and so does rendering: a report prints ``str`` of a
scalar, the digits of a residue or of a rational.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt

from .errors import InvalidInput


def rational(c, what: str) -> Fraction:
    """c, read from JSON or the command line, exactly: an int, a ``Fraction``
    or a string such as "3/4"; a float, a bool or other value is bad input."""
    try:
        if not isinstance(c, (bool, float)):
            return Fraction(c)
    except (ValueError, TypeError, ZeroDivisionError):
        pass
    raise InvalidInput(f'{what} {c!r} is not a rational number (give an int '
                       'or a string such as "1/10")')


def integer(n, what: str) -> int:
    """n, read from JSON, exactly: an int or an integer string.  A float
    (3.9 would be cut to 3), a bool or anything else is bad input."""
    try:
        if type(n) is int or isinstance(n, str):
            return int(n)
    except ValueError:
        pass
    raise InvalidInput(f"{what} {n!r} is not an integer")


def json_object(data, what: str, *keys: str) -> dict:
    """data, a JSON text or its parse, as an object that has every one of
    ``keys``; anything else is bad input that names what is wrong."""
    if isinstance(data, str):
        data = json.loads(data)
    return _json_is(data, dict, f"{what} JSON", keys)


def json_entries(data: dict, key: str, what: str, kind: type,
                 *keys: str) -> list:
    """data[key], a list in the parsed JSON object ``what``, each entry a
    ``kind``: a list, or an object that has every one of ``keys``.  An
    entry is not parsed again; anything else is bad input naming it."""
    where = f"{what} {key}"
    items = _json_is(data, dict, what, (key,))[key]
    return [_json_is(x, kind, f"{where}[{i}]", keys)
            for i, x in enumerate(_json_is(items, list, where, ()))]


def _json_is(x, kind: type, what: str, keys):
    if not isinstance(x, kind):
        a = "an object" if kind is dict else "a list"
        raise InvalidInput(f"{what} must be {a}, not {type(x).__name__}")
    if missing := [k for k in keys if k not in x]:
        raise InvalidInput(f"{what} needs the key {missing[0]!r}")
    return x


def residue(x, p: int) -> int:
    """The int or ``Fraction`` x mod the prime p, in 0..p-1; a denominator
    divisible by p is bad input."""
    if x.denominator % p == 0:
        raise InvalidInput(f"denominator divisible by {p}")
    return x.numerator * pow(x.denominator, -1, p) % p


def _integral(q: Fraction):
    """q as an ``int`` when it is integral, else q itself."""
    return q.numerator if q.denominator == 1 else q


class Fp:
    """Residue in a prime field, with operator arithmetic.

    Mixed arithmetic with ints is allowed (ints are reduced mod p); mixing
    residues from different primes is an error.
    """

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _coerce(self, other) -> "Fp":
        if isinstance(other, Fp):
            if other.p != self.p:
                raise InvalidInput(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, (int, Fraction)):
            return Fp(residue(other, self.p), self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Fp(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Fp(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Fp(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Fp(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.v == 0:
            raise ZeroDivisionError("division by zero residue")
        return Fp(self.v * pow(o.v, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o / self

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __bool__(self):
        return self.v != 0

    def __hash__(self):
        return hash((self.v, self.p))

    def __str__(self):
        return str(self.v)

    def __repr__(self):
        return f"{self.v}~{self.p}"


class Field:
    """Constructor/serializer for scalars of one ground field."""

    def __init__(self, p: int | None = None):
        if p is not None and (p < 2 or not all(
                p % d for d in range(2, isqrt(p) + 1))):
            raise InvalidInput(f"{p} is not prime")
        self.p = p

    def zero(self):
        """0 over Q (an ``int``), the zero residue over GF(p)."""
        return 0 if self.p is None else Fp(0, self.p)

    def one(self):
        """1 over Q (an ``int``), the unit residue over GF(p)."""
        return 1 if self.p is None else Fp(1, self.p)

    def of(self, x):
        """Coerce an int, Fraction, Fp or 'p/q' string into this field.
        Over Q the result is an ``int`` when the value is integral (``3``,
        ``Fraction(6, 2)``, ``"4/2"``) and a ``Fraction`` otherwise.  A
        float or a bool is not an exact scalar: ``InvalidInput``."""
        if type(x) is int:
            return x if self.p is None else Fp(x, self.p)
        if isinstance(x, (bool, float)):
            raise InvalidInput(f"scalar {x!r} is not exact (give an int, a "
                               'Fraction or a string such as "1/10")')
        if self.p is None:
            if isinstance(x, Fp):
                raise InvalidInput("cannot lift a residue to the rationals")
            return _integral(Fraction(x))
        got = self.zero()._coerce(Fraction(x) if isinstance(x, str) else x)
        return Fp(int(x), self.p) if got is NotImplemented else got

    def div(self, a, b):
        """The scalar a / b.  Over Q it is an ``int`` when the quotient is
        integral and a ``Fraction`` otherwise, never the ``float`` that
        ``int / int`` gives; over GF(p) it is the residue a / b."""
        if self.p is None:
            return _integral(Fraction(a, b))
        return a / b

    def elements(self):
        """Iterate over all field elements (prime fields only)."""
        if self.p is None:
            raise InvalidInput("cannot enumerate the rationals")
        return (Fp(v, self.p) for v in range(self.p))

    @property
    def tag(self) -> str:
        return "q" if self.p is None else f"fp:{self.p}"

    @staticmethod
    def from_tag(tag: str) -> "Field":
        if tag == "q":
            return Field()
        if tag.startswith("fp:"):
            return Field(integer(tag[3:], "field modulus"))
        raise InvalidInput(f"unknown field tag {tag!r}")

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = Field()


def GF(p: int) -> Field:
    return Field(p)
