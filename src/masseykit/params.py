"""Small multivariate polynomials in search parameters.

Kernel freedom discovered while solving a defining system stage by stage is
carried symbolically: every cochain coefficient becomes a ``Poly`` in the
parameters introduced so far.  Monomials are sorted tuples of variable
indices with multiplicity, so ``t0^2 t3`` is the key ``(0, 0, 3)``.
"""

from __future__ import annotations

from .errors import InvalidInput
from .fields import Field


def _merge(m1: tuple, m2: tuple) -> tuple:
    return tuple(sorted(m1 + m2))


class Poly:
    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        if terms:
            for m, c in terms.items():
                if c != 0:
                    self.terms[m] = c

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(): c})

    @staticmethod
    def var(i: int, one) -> "Poly":
        return Poly({(i,): one})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

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
            return Poly(out)
        if other == 0:
            return self
        return self + Poly.const(other)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly.const(other).__neg__())

    def __mul__(self, other):
        if isinstance(other, Poly):
            out: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = _merge(m1, m2)
                    s = out.get(m, 0) + c1 * c2
                    if s == 0:
                        out.pop(m, None)
                    else:
                        out[m] = s
            return Poly(out)
        if other == 0:
            return Poly()
        return Poly({m: c * other for m, c in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if other == 0:
            return not self.terms
        return self.terms == {(): other}

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def substitute(self, assign: dict) -> "Poly":
        """Replace variables by Polys or scalars; missing variables stay."""
        out = Poly()
        for m, c in self.terms.items():
            term = Poly.const(c)
            for v in m:
                rep = assign.get(v)
                if rep is None:
                    rep = Poly({(v,): 1})
                elif not isinstance(rep, Poly):
                    rep = Poly.const(rep)
                term = term * rep
            out = out + term
        return out

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
