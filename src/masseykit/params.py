"""Small multivariate polynomials in search parameters.

Kernel freedom discovered while solving a defining system stage by stage is
carried symbolically: every cochain coefficient becomes a ``Poly`` in the
parameters introduced so far.  Monomials are sorted tuples of variable
indices with multiplicity, so ``t0^2 t3`` is the key ``(0, 0, 3)``.

The fast paths rely on two rules.  Every coefficient in ``terms`` is a
nonzero field scalar (an ``Fp`` over GF(p), never an ``int``), and a
``Poly`` is never mutated, so a result may be one of its operands (``p * 1``
is ``p``) and cochains may share values (``linalg.axpy``).  ``_poly``
trusts its input: a fresh term dict keeping both, wrapped as it is.  A
``Poly`` does not know its field, so it adds ``Poly``s and 0 only: a
constant enters as ``Poly.const`` of a field scalar, made by the field.
"""

from __future__ import annotations

from .errors import InvalidInput
from .fields import Field
from .linalg import axpy


def _merge(m1: tuple, m2: tuple) -> tuple:
    return tuple(sorted(m1 + m2))


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(): c})

    @staticmethod
    def var(i: int, one) -> "Poly":
        return Poly({(i,): one})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant(self):
        """Constant term (field zero is represented as absence)."""
        return self.terms.get((), 0)

    def variables(self) -> set:
        return {v for m in self.terms for v in m}

    def is_affine(self) -> bool:
        return all(len(m) <= 1 for m in self.terms)

    def affine_parts(self):
        """(constant, {var: coeff}); raises when the polynomial is not affine."""
        lin = {}
        const = 0
        for m, c in self.terms.items():
            if m == ():
                const = c
            elif len(m) == 1:
                lin[m[0]] = c
            else:
                raise InvalidInput("polynomial is not affine")
        return const, lin

    def __add__(self, other):
        if isinstance(other, Poly):
            out = dict(self.terms)
            for m, c in other.terms.items():
                s = out.get(m, 0) + c
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
            return _poly(out)
        return self if other == 0 else NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, Poly):
            if other.is_constant():
                other = other.constant()
            elif self.is_constant():
                self, other = other, self.constant()
            else:
                out: dict = {}
                for m1, c1 in self.terms.items():
                    for m2, c2 in other.terms.items():
                        m = _merge(m1, m2)
                        s = out.get(m, 0) + c1 * c2
                        if s == 0:
                            out.pop(m, None)
                        else:
                            out[m] = s
                return _poly(out)
        if other == 1:
            return self
        if other == 0:
            return Poly()
        return _poly({m: x for m, c in self.terms.items()
                      if (x := c * other) != 0})

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if other == 0:
            return not self.terms
        return self.terms == {(): other}

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def substitute(self, assign: dict) -> "Poly":
        """Replace variables by Polys or scalars; missing variables stay.
        A term with no assigned variable is copied as it is, any other is
        its kept part (a field coefficient) times the assigned values."""
        out: dict = {}
        for m, c in self.terms.items():
            reps = [assign[v] for v in m if v in assign]
            pairs = ((m, c),)
            if reps:
                term = _poly({tuple(v for v in m if v not in assign): c})
                for rep in reps:
                    term = term * rep
                pairs = term.terms.items()
            axpy(out, 1, pairs)
        return _poly(out)

    def evaluate(self, assign: dict, field: Field):
        """Full evaluation to a scalar; unassigned variables default to zero."""
        acc = field.zero()
        for m, c in self.terms.items():
            val = c
            dead = False
            for v in m:
                a = assign.get(v)
                if a is None or a == 0:
                    dead = True
                    break
                val = val * a
            if not dead:
                acc = acc + val
        return acc

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(f"t{v}" for v in m) if m else "1"
            bits.append(f"({c})*{mono}")
        return " + ".join(bits)


def _poly(terms: dict) -> Poly:
    """A ``Poly`` over ``terms`` as given: unchecked and not copied."""
    p = Poly.__new__(Poly)
    p.terms = terms
    return p
