"""Monomial quotient rings: Koszul homology, polarization, minimal graded
resolutions and Poincare series bounds.

The Koszul complex Lambda A^n of a finite-dimensional monomial quotient is a
differential graded algebra; it is embedded in the generic window machinery
with cohomological degree -i (i the exterior degree) so that the product adds
degrees and d raises the degree by one.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .dga import DGAlgebra, MultiDegree
from .errors import CapExceeded, InvalidInput
from .fields import QQ, Field
from .linalg import EchelonSolver, _SpanTracker

BASIS_CAP = 20000


@dataclass
class MonomialQuotient:
    """k[x_1..x_n] / (monomial generators), generators as exponent tuples."""

    n_vars: int
    generators: list

    def __post_init__(self):
        gens = sorted({tuple(int(e) for e in g) for g in self.generators})
        for g in gens:
            if len(g) != self.n_vars or any(e < 0 for e in g) or not any(g):
                raise InvalidInput("bad generator exponent vector")
        for a in gens:
            for b in gens:
                if a != b and all(x <= y for x, y in zip(a, b)):
                    raise InvalidInput("generators must be divisibility-minimal")
        self.generators = gens

    def in_ideal(self, exp) -> bool:
        return any(all(g[i] <= exp[i] for i in range(self.n_vars))
                   for g in self.generators)

    def standard_monomials(self, cap: int = BASIS_CAP) -> list:
        """Basis of the quotient; raises when it is not finite-dimensional."""
        # finite dimension needs a pure-power generator in every variable
        for i in range(self.n_vars):
            if not any(all(g[j] == 0 for j in range(self.n_vars) if j != i)
                       and g[i] > 0 for g in self.generators):
                raise InvalidInput(
                    "quotient is not finite-dimensional as a vector space")
        bounds = []
        for i in range(self.n_vars):
            powers = [g[i] for g in self.generators
                      if all(g[j] == 0 for j in range(self.n_vars) if j != i)]
            bounds.append(min(powers))
        out = []
        for exp in itertools.product(*(range(b) for b in bounds)):
            if not self.in_ideal(exp):
                out.append(exp)
            if len(out) > cap:
                raise CapExceeded("quotient basis exceeds the cap")
        return sorted(out)

    def to_json(self) -> str:
        return json.dumps({"n": self.n_vars,
                           "gens": [list(g) for g in self.generators]},
                          sort_keys=True)

    @staticmethod
    def from_json(data) -> "MonomialQuotient":
        if isinstance(data, str):
            data = json.loads(data)
        return MonomialQuotient(int(data["n"]),
                                [tuple(g) for g in data["gens"]])


def anr(n: int, r: int) -> MonomialQuotient:
    """k[x_1..x_n] / (x_1,...,x_n)^r: generators are all degree-r monomials."""
    if n < 1 or r < 2:
        raise InvalidInput("need n >= 1 and r >= 2")
    gens = []
    for combo in itertools.combinations_with_replacement(range(n), r):
        exp = [0] * n
        for i in combo:
            exp[i] += 1
        gens.append(tuple(exp))
    return MonomialQuotient(n, gens)


class KoszulAlgebra(DGAlgebra):
    """Koszul complex of a finite-dimensional monomial quotient as a DGA
    window: monomials (x-exponent, e-subset), cohomological degree -|subset|,
    auxiliary degree the total x-exponent vector."""

    def __init__(self, ring: MonomialQuotient, field: Field = QQ):
        self.ring = ring
        self.field = field
        self.aux_len = ring.n_vars
        self._amonos = ring.standard_monomials()
        self._aset = set(self._amonos)
        self._bases: dict = {}
        n = ring.n_vars
        for a in self._amonos:
            for r in range(n + 1):
                for S in itertools.combinations(range(n), r):
                    aux = list(a)
                    for i in S:
                        aux[i] += 1
                    deg = MultiDegree(-r, tuple(aux))
                    self._bases.setdefault(deg, []).append((a, S))
        for monos in self._bases.values():
            monos.sort()

    def in_window(self, deg: MultiDegree) -> bool:
        # the whole complex is materialized; degrees outside the populated
        # range are zero spaces, not window violations
        return True

    def window_degrees(self) -> list:
        return sorted(self._bases, key=lambda d: (d.q, d.aux))

    def basis(self, deg: MultiDegree) -> list:
        return self._bases.get(deg, [])

    def degree_of_mono(self, mono) -> MultiDegree:
        a, S = mono
        aux = list(a)
        for i in S:
            aux[i] += 1
        return MultiDegree(-len(S), tuple(aux))

    def d_mono(self, mono) -> list:
        a, S = mono
        out = []
        one = self.field.one()
        for t, i in enumerate(S):
            b = list(a)
            b[i] += 1
            b = tuple(b)
            if b in self._aset:
                sign = one if t % 2 == 0 else -one
                out.append(((b, S[:t] + S[t + 1:]), sign))
        return out

    def mul_mono(self, m1, m2) -> list:
        a1, S1 = m1
        a2, S2 = m2
        if set(S1) & set(S2):
            return []
        prod = tuple(x + y for x, y in zip(a1, a2))
        if prod not in self._aset:
            return []
        inv = sum(1 for x in S1 for y in S2 if x > y)
        sign = self.field.one() if inv % 2 == 0 else -self.field.one()
        return [((prod, tuple(sorted(S1 + S2))), sign)]

    def homology_classes(self, i: int) -> list:
        """Representative cochains of H_i, grouped across multidegrees."""
        out = []
        for deg in self.window_degrees():
            if deg.q != -i:
                continue
            qb = self.cohomology_basis(deg)
            bas = self.basis(deg)
            for rep in qb.representatives:
                out.append((deg, {bas[c]: v for c, v in rep.items()}))
        return out

    def betti(self) -> dict:
        """b_i = dim H_i of the Koszul complex, all i >= 0."""
        out: dict = {}
        for deg in self.window_degrees():
            d = self.cohomology_dim(deg)
            if d:
                out[-deg.q] = out.get(-deg.q, 0) + d
        return out

    def product_table(self) -> dict:
        """Pairwise products of positive-part homology classes, reduced:
        {(i, a, j, b): coordinate dict}, zero entries omitted."""
        classes: dict = {}
        for i in range(1, self.ring.n_vars + 1):
            for a, (deg, coch) in enumerate(self.homology_classes(i)):
                classes[(i, a)] = coch
        table: dict = {}
        for (i, a), c1 in classes.items():
            for (j, b), c2 in classes.items():
                prod = self.wedge(c1, c2)
                coords = {}
                for deg, comp in self.components(prod).items():
                    vec = self.to_vector(comp, deg)
                    red = self.cohomology_basis(deg).reduce(vec)
                    for k, v in red.items():
                        coords[(deg, k)] = v
                if coords:
                    table[(i, a, j, b)] = coords
        return table


def koszul_homology(ring: MonomialQuotient, field: Field = QQ):
    """(Koszul window, betti dict); the window carries the product."""
    alg = KoszulAlgebra(ring, field)
    return alg, alg.betti()


def polarization(ring: MonomialQuotient):
    """Squarefree ideal in the standard polarization variables.

    Variable i with maximal exponent d_i contributes copies (i, 1..d_i);
    x_i^a polarizes to the product of the first a copies.  The resulting
    complex has the same total Betti numbers (checked in the tests).
    """
    from .simplicial import SimplicialComplex

    n = ring.n_vars
    depth = [max((g[i] for g in ring.generators), default=0) or 1
             for i in range(n)]
    index = {}
    v = 1
    for i in range(n):
        for c in range(depth[i]):
            index[(i, c)] = v
            v += 1
    m = v - 1
    nonfaces = []
    for g in ring.generators:
        nf = []
        for i in range(n):
            nf.extend(index[(i, c)] for c in range(g[i]))
        nonfaces.append(tuple(sorted(nf)))
    return SimplicialComplex(m, nonfaces)


# ---- graded minimal resolutions and Poincare series -------------------------

class GradedQuotient:
    """Degreewise data of a finite-dimensional monomial quotient."""

    def __init__(self, ring: MonomialQuotient, field: Field = QQ):
        self.ring = ring
        self.field = field
        monos = ring.standard_monomials()
        self.by_degree: dict = {}
        for a in monos:
            self.by_degree.setdefault(sum(a), []).append(a)
        for v in self.by_degree.values():
            v.sort()
        self.top = max(self.by_degree)
        self.index = {d: {a: i for i, a in enumerate(monos_)}
                      for d, monos_ in self.by_degree.items()}

    def dim(self, d: int) -> int:
        return len(self.by_degree.get(d, []))

    def multiply(self, a, b):
        prod = tuple(x + y for x, y in zip(a, b))
        if self.ring.in_ideal(prod):
            return None
        return prod


def minimal_resolution_betti(ring: MonomialQuotient, i_cap: int = 6,
                             field: Field = QQ, degree_cap: int = 60) -> list:
    """Dimensions of Tor_i over the quotient, i = 0..i_cap, by stepwise
    minimal free resolution of the residue field.

    Free modules are tracked as generator-degree lists; kernels are computed
    degree by degree and their minimal generators (a basis modulo the
    maximal-ideal multiples) become the next module.
    """
    A = GradedQuotient(ring, field)
    one = field.one()

    # module elements are dicts {(gen_index, A-monomial): scalar}
    betti = [1]
    # kernel of F_0 -> k is spanned by (0, mono) for mono != 1
    def aug_kernel_by_degree():
        out: dict = {}
        for d, monos in A.by_degree.items():
            if d == 0:
                continue
            out[d] = [{(0, a): one} for a in monos]
        return out

    kernel_by_degree = aug_kernel_by_degree()

    for step in range(1, i_cap + 1):
        # minimal generators of the kernel: per degree, a basis of
        # K_d modulo sum_j x_j K_{d-1}
        new_gens: list = []  # (degree, element)
        max_d = max(kernel_by_degree, default=-1)
        if max_d > degree_cap:
            raise CapExceeded("resolution degree exceeded the cap")
        for d in sorted(kernel_by_degree):
            kd = kernel_by_degree[d]
            if not kd:
                continue
            prev = kernel_by_degree.get(d - 1, [])
            span = _SpanTracker(field)
            key_index: dict = {}

            def vec_of(el):
                out = {}
                for key, c in el.items():
                    if key not in key_index:
                        key_index[key] = len(key_index)
                    out[key_index[key]] = c
                return out

            for el in prev:
                for var in range(ring.n_vars):
                    shifted = {}
                    for (gen, mono), c in el.items():
                        unit = tuple(1 if t == var else 0
                                     for t in range(ring.n_vars))
                        prod = A.multiply(mono, unit)
                        if prod is not None:
                            shifted[(gen, prod)] = shifted.get(
                                (gen, prod), field.zero()) + c
                    shifted = {k: c for k, c in shifted.items() if c != 0}
                    if shifted:
                        span.add(vec_of(shifted))
            for el in kd:
                if span.add(vec_of(el)):
                    new_gens.append((d, el))
        betti.append(len(new_gens))
        if step == i_cap or not new_gens:
            if not new_gens:
                betti.extend([0] * (i_cap - step))
            break
        # next map: F_step -> F_{step-1}, generators |-> kernel elements
        next_gen_degs = [d for d, _el in new_gens]
        next_images = [el for _d, el in new_gens]

        # compute the kernel of the new map degree by degree
        kernel_by_degree = {}
        degrees = set()
        for gd in next_gen_degs:
            for ad in A.by_degree:
                degrees.add(gd + ad)
        for d in sorted(degrees):
            # basis of F_step in degree d
            dom_keys = []
            for g, gd in enumerate(next_gen_degs):
                for mono in A.by_degree.get(d - gd, []):
                    dom_keys.append((g, mono))
            if not dom_keys:
                continue
            # map each basis vector into F_{step-1} coordinates
            cod_index: dict = {}
            rows: dict = {}
            cols = []
            for j, (g, mono) in enumerate(dom_keys):
                col = {}
                for (tg, tmono), c in next_images[g].items():
                    prod = A.multiply(tmono, mono)
                    if prod is not None:
                        key = (tg, prod)
                        if key not in cod_index:
                            cod_index[key] = len(cod_index)
                        idx = cod_index[key]
                        col[idx] = col.get(idx, field.zero()) + c
                cols.append({k: c for k, c in col.items() if c != 0})
            n_rows = len(cod_index)
            rows_list = [dict() for _ in range(n_rows)]
            for j, col in enumerate(cols):
                for i_, c in col.items():
                    rows_list[i_][j] = c
            solver = EchelonSolver(field, len(dom_keys), rows_list)
            kb = solver.kernel_basis()
            kernel_by_degree[d] = [
                {dom_keys[j]: c for j, c in v.items()} for v in kb]
    return betti[:i_cap + 1]


@dataclass
class PowerSeries:
    """Truncated power series with exact rational coefficients."""

    coeffs: list  # length order + 1

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def from_poly(poly: dict, order: int) -> "PowerSeries":
        coeffs = [Fraction(0)] * (order + 1)
        for k, c in poly.items():
            if 0 <= k <= order:
                coeffs[k] = Fraction(c)
        return PowerSeries(coeffs)

    def mul(self, other: "PowerSeries") -> "PowerSeries":
        order = min(self.order, other.order)
        out = [Fraction(0)] * (order + 1)
        for i, a in enumerate(self.coeffs[:order + 1]):
            if a == 0:
                continue
            for j in range(0, order - i + 1):
                out[i + j] += a * other.coeffs[j]
        return PowerSeries(out)

    def inverse(self) -> "PowerSeries":
        if self.coeffs[0] == 0:
            raise InvalidInput("inverse needs a nonzero constant term")
        inv0 = 1 / self.coeffs[0]
        out = [Fraction(0)] * (self.order + 1)
        out[0] = inv0
        for k in range(1, self.order + 1):
            s = Fraction(0)
            for j in range(1, k + 1):
                s += self.coeffs[j] * out[k - j]
            out[k] = -inv0 * s
        return PowerSeries(out)

    def __le__(self, other: "PowerSeries") -> bool:
        order = min(self.order, other.order)
        return all(self.coeffs[k] <= other.coeffs[k]
                   for k in range(order + 1))

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerSeries) and \
            self.coeffs[:min(self.order, other.order) + 1] == \
            other.coeffs[:min(self.order, other.order) + 1]


def serre_bound(m: int, betti: dict, order: int) -> PowerSeries:
    """(1+t)^m / (1 - sum b_i t^{i+1}) truncated at the given order."""
    num = PowerSeries.from_poly(
        {k: _binom(m, k) for k in range(m + 1)}, order)
    den = {0: 1}
    for i, b in betti.items():
        if i >= 1:
            den[i + 1] = den.get(i + 1, 0) - b
    return num.mul(PowerSeries.from_poly(den, order).inverse())


def _binom(n: int, k: int) -> int:
    from math import comb
    return comb(n, k)


def serre_equality(tor: list, bound: PowerSeries) -> bool:
    """Compare the Poincare series sum dim Tor_i t^i with Serre's bound up to
    the bound's order: the bound holds always, equality is the series side
    of the Golod property."""
    actual = PowerSeries.from_poly(dict(enumerate(tor)), bound.order)
    if not actual <= bound:
        raise AssertionError("Serre bound violated: internal inconsistency")
    return actual == bound


def golod_series_check(ring: MonomialQuotient, order: int = 6,
                       field: Field = QQ) -> bool:
    """``serre_equality`` of the ring's resolution and Serre bound."""
    _alg, betti = koszul_homology(ring, field)
    bound = serre_bound(ring.n_vars, betti, order)
    return serre_equality(minimal_resolution_betti(ring, order, field), bound)
