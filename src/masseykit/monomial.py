"""Monomial quotient rings: Koszul homology, polarization, minimal graded
resolutions and Poincare series bounds.

The Koszul complex Lambda A^n of a finite-dimensional monomial quotient is a
differential graded algebra; it is embedded in the generic window machinery
with cohomological degree -i (i the exterior degree) so that the product adds
degrees and d raises the degree by one.

A monomial quotient A = k[x]/I is graded by exponent vectors, and so is its
residue field k.  The minimal resolution of k is resolved one exponent
vector at a time (``minimal_resolution_betti``): in each multidegree a free
module has at most one basis vector per generator, and the multiples
m K of a kernel K in degree a are the shifts x_v K_(a - e_v).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import comb

from .dga import DGAlgebra, MultiDegree, merge_sorted
from .errors import CapExceeded, InvalidInput
from .fields import QQ, Field, integer, json_entries, json_object
from .linalg import EchelonSolver, lead_columns

BASIS_CAP = 20000


@dataclass
class MonomialQuotient:
    """k[x_1..x_n] / (monomial generators), generators as exponent tuples."""

    n_vars: int
    generators: list

    def __post_init__(self):
        if self.n_vars < 0:
            raise InvalidInput(f"need n >= 0 variables, got {self.n_vars}")
        gens = sorted({tuple(integer(e, "generator exponent") for e in g)
                       for g in self.generators})
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

    def standard_monomials(self) -> list:
        """Basis of the quotient; raises when it is not finite-dimensional."""
        # finite dimension needs a pure-power generator in every variable
        bounds = []
        for i in range(self.n_vars):
            powers = [g[i] for g in self.generators
                      if all(g[j] == 0 for j in range(self.n_vars) if j != i)]
            if not any(powers):
                raise InvalidInput(
                    "quotient is not finite-dimensional as a vector space")
            bounds.append(min(powers))
        out = []
        for exp in itertools.product(*(range(b) for b in bounds)):
            if not self.in_ideal(exp):
                out.append(exp)
            if len(out) > BASIS_CAP:
                raise CapExceeded("quotient basis exceeds the cap")
        return sorted(out)

    def to_json(self) -> str:
        return json.dumps({"n": self.n_vars,
                           "gens": [list(g) for g in self.generators]},
                          sort_keys=True)

    @staticmethod
    def from_json(data) -> "MonomialQuotient":
        data = json_object(data, "ring", "n", "gens")
        return MonomialQuotient(integer(data["n"], "variable count n"), [
            tuple(g) for g in json_entries(data, "gens", "ring JSON", list)])


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
        super().__init__(field)
        self.ring = ring
        self.aux_len = ring.n_vars
        self._amonos = ring.standard_monomials()
        self._aset = set(self._amonos)
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
        merged = merge_sorted(S1, S2)  # None: a shared e
        prod = tuple(x + y for x, y in zip(a1, a2))
        if merged is None or prod not in self._aset:
            return []
        return [((prod, merged[0]), self.field.of(merged[1]))]

    def homology_classes(self, i: int) -> list:
        """Representative cochains of H_i, grouped across multidegrees."""
        return [(deg, self.from_vector(rep, deg))
                for deg in self.window_degrees() if deg.q == -i
                for rep in self.cohomology_basis(deg).representatives]

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
                coords = self.coords(self.wedge(c1, c2))
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

def minimal_resolution_betti(ring: MonomialQuotient, i_cap: int = 6,
                             field: Field = QQ, degree_cap: int = 60) -> list:
    """Dimensions of Tor_i over the quotient, i = 0..i_cap, by stepwise
    minimal free resolution of the residue field, one exponent vector at a
    time.

    I is monomial, so A = k[x]/I and k are Z^n-graded and the minimal
    resolution of k can be taken multigraded (Peeva, *Graded Syzygies*,
    ch. 1).  Each generator g of F_i has a multidegree mdeg(g), and F_i in
    multidegree b has the basis vectors x^(b - mdeg g) g for the g with
    b - mdeg g a standard monomial, at most one per generator.  An element
    of F_i in degree b is therefore a dict {generator index: scalar}, and
    the kernel K of F_i -> F_(i-1) is eliminated one multidegree at a time,
    with generators for rows and columns.

    The generators of F_(i+1) in degree a are kernel vectors forming a basis
    of K_a modulo (m K)_a; since m is generated by the variables,
    m K  intersect  K_a = (m K)_a = sum over v of x_v K_(a - e_v).  The
    kernel basis of K_a has one vector per free generator f (1 at f, 0 at
    the other free generators), so a vector of K_a is given by its free
    coordinates, and the kernel vectors taken, greedily in free order, are
    those whose f is the largest free coordinate of no vector in the span of
    the shifts.  ``CapExceeded`` is raised when a multidegree where F_i is
    nonzero has total degree above ``degree_cap``.
    """
    std = ring.standard_monomials()
    n = ring.n_vars
    # b - mdeg g is standard  <=>  b in reach[mdeg g]
    reach = {(0,) * n: set(std)}
    # F_0 = A on one generator of degree 0, and ker(F_0 -> k) = m.  kernel
    # maps multidegrees to kernel bases, {free generator: vector}, in
    # free-generator order; after the first step its keys are all the
    # multidegrees where F_i is nonzero.
    mdegs = [(0,) * n]
    kernel = {a: {0: {0: field.one()}} for a in std if any(a)}
    betti = [1]
    for step in range(1, i_cap + 1):
        if max(map(sum, kernel), default=-1) > degree_cap:
            raise CapExceeded("resolution degree exceeded the cap")
        taken_gens = []
        for a in sorted(kernel):
            ka = kernel[a]
            if not ka:
                continue
            shifts = []
            for v in range(n):
                if a[v]:
                    below = a[:v] + (a[v] - 1,) + a[v + 1:]
                    for el in kernel.get(below, {}).values():
                        # free coordinates of x_v el, keyed -f so that the
                        # smallest key is the largest free generator
                        w = {-f: c for f, c in el.items() if f in ka}
                        if w:
                            shifts.append(w)
            taken = lead_columns(shifts, field)
            taken_gens.extend((sum(a), f, a, el) for f, el in ka.items()
                              if -f not in taken)
        # number the new generators by total degree, then by the free
        # generator each comes from: the numbering fixes the row and column
        # order, hence the kernel vectors, of every later elimination
        taken_gens.sort(key=lambda t: t[:3])
        new_mdegs = [t[2] for t in taken_gens]
        images = [t[3] for t in taken_gens]
        betti.append(len(images))
        if step == i_cap or not images:
            if not images:
                betti.extend([0] * (i_cap - step))
            break
        # F_step in degree b: the generators h with b - mdeg h standard,
        # found once per multidegree of a generator, not once per generator
        groups: dict = {}
        for h, a in enumerate(new_mdegs):
            groups.setdefault(a, []).append(h)
        domains: dict = {}
        for a, hs in groups.items():
            reach[a] = {tuple(x + y for x, y in zip(a, s)) for s in std}
            for b in reach[a]:
                domains.setdefault(b, []).extend(hs)
        kernel = {}
        for b in sorted(domains):
            dom = sorted(domains[b])
            row_of: dict = {}
            rows: list = []
            for j, h in enumerate(dom):
                for g, c in images[h].items():
                    if b in reach[mdegs[g]]:
                        if g not in row_of:
                            row_of[g] = len(rows)
                            rows.append({})
                        rows[row_of[g]][j] = c
            solver = EchelonSolver(field, len(dom), rows)
            kernel[b] = {dom[f]: {dom[j]: c for j, c in v.items()}
                         for f, v in zip(solver.free_cols,
                                         solver.kernel_basis())}
        mdegs = new_mdegs
    return betti[:i_cap + 1]


def serre_bound(m: int, betti: dict, order: int) -> list:
    """Coefficients c_0..c_order of (1+t)^m / (1 - sum_(i>=1) b_i t^(i+1)).
    The denominator has constant term 1, so the coefficients are the ints
    c_k = C(m, k) + sum_(i>=1) b_i c_(k-i-1)."""
    c: list = []
    for k in range(order + 1):
        c.append(comb(m, k) + sum(b * c[k - i - 1] for i, b in betti.items()
                                  if 1 <= i <= k - 1))
    return c


def serre_equality(tor: list, bound: list) -> bool:
    """Compare the Poincare series sum dim Tor_i t^i with Serre's bound up to
    the bound's order: the bound holds always, equality is the series side
    of the Golod property."""
    actual = (list(tor) + [0] * len(bound))[:len(bound)]
    if any(a > b for a, b in zip(actual, bound)):
        raise AssertionError("Serre bound violated: internal inconsistency")
    return actual == bound


def golod_series_check(ring: MonomialQuotient, order: int = 6,
                       field: Field = QQ) -> bool:
    """``serre_equality`` of the ring's resolution and Serre bound."""
    _alg, betti = koszul_homology(ring, field)
    bound = serre_bound(ring.n_vars, betti, order)
    return serre_equality(minimal_resolution_betti(ring, order, field), bound)
