"""The quotient model R(K) of the face ring, its cohomology, the simplicial
product rule, and multidegree-restricted Massey computation.

R(K) = k[K] (x) Lambda[u_1..u_m] / (v_i^2 = u_i v_i = 0) with d u_i = v_i;
its cohomology per squarefree multidegree I is the reduced cohomology of the
induced subcomplex K_I, shifted.  Monomials are pairs (sigma, J) for a face
sigma and a disjoint u-support J; the auxiliary degree is the 0/1 support
vector of sigma + J, so entries of defining systems are confined to unions
of the input supports by additivity, which keeps every search finite.
"""

from __future__ import annotations

import itertools
from bisect import bisect
from dataclasses import dataclass, replace

from .dga import CohomologyClass, DGAlgebra, MultiDegree, merge_sorted
from .errors import CapExceeded, InvalidInput, OverlappingSupports
from .fields import QQ, Field
from .linalg import EchelonSolver, axpy, cached
from .massey import MasseyEngine, MasseyOutcome
from .simplicial import (HOCHSTER_CAP as RK_CAP, BettiTable,
                         SimplicialComplex, _mask, _unmask, check_cap,
                         check_vertices, faces_within, reduced_cache)

MAX_SUPPORT = 4  # vertices of a support in the "h0" triple scan


class RKAlgebra(DGAlgebra):
    """Window of R(K) over every squarefree multidegree of K.  It keeps K's
    faces, not K, so that ``rk_window``'s cache on K is no cycle."""

    def __init__(self, K: SimplicialComplex, field: Field = QQ):
        super().__init__(field)
        self.aux_len = K.m
        self._levels = K.face_table()
        self._faces = {t for level in self._levels for t, _f in level}
        self._transported = {}

    # ---- degrees ----------------------------------------------------------
    def in_window(self, deg: MultiDegree) -> bool:
        # an aux entry >= 2 is materialized as the zero space
        return min(deg.aux, default=0) >= 0

    def window_degrees(self) -> list:
        check_cap(self.aux_len)
        out = []
        for r in range(self.aux_len + 1):
            for S in itertools.combinations(range(1, self.aux_len + 1), r):
                aux = self._aux_of(S)
                for q in range(len(S), 2 * len(S) + 1):
                    out.append(MultiDegree(q, aux))
        return out

    def _aux_of(self, support) -> tuple:
        aux = [0] * self.aux_len
        for v in support:
            aux[v - 1] = 1
        return tuple(aux)

    def basis(self, deg: MultiDegree) -> list:
        def build():
            self._require(deg)
            if any(v >= 2 for v in deg.aux):
                return []
            S = sum(1 << i for i, v in enumerate(deg.aux) if v)
            return rk_basis(self._levels, S, deg.q - S.bit_count())
        return cached(self._bases, deg, build)

    def degree_of_mono(self, mono) -> MultiDegree:
        sigma, J = mono
        return MultiDegree(2 * len(sigma) + len(J),
                           self._aux_of(tuple(sigma) + tuple(J)))

    def d_mono(self, mono) -> list:
        sigma, J = mono
        out = []
        one = self.field.one()
        for t, j in enumerate(J):
            k = bisect(sigma, j)
            new = sigma[:k] + (j,) + sigma[k:]
            if new in self._faces:
                out.append(((new, J[:t] + J[t + 1:]), -one if t % 2 else one))
        return out

    def mul_mono(self, m1, m2) -> list:
        s1, J1 = m1
        s2, J2 = m2
        if (set(s1) | set(J1)) & (set(s2) | set(J2)):
            return []
        sigma = tuple(sorted(s1 + s2))
        if sigma not in self._faces:
            return []
        J, sign = merge_sorted(J1, J2)
        return [((sigma, J), self.field.of(sign))]

    # ---- transport between simplicial cochains and R(K) --------------------
    def from_simplicial(self, I, cochain: dict) -> dict:
        """Chain isomorphism C~^{|sigma|-1}(K_I) -> R(K) in multidegree I:
        chi_sigma |-> (-1)^(sum over i in sigma of #{j in I: j < i})
        v_sigma u_{I minus sigma}."""
        I = tuple(sorted(I))
        iset = set(I)
        out = {}
        for sigma, c in cochain.items():
            sigma = tuple(sorted(sigma))
            if not set(sigma) <= iset:
                raise InvalidInput("cochain face escapes the support")
            J = tuple(sorted(iset - set(sigma)))
            out[(sigma, J)] = self.field.of((-1) ** _inv(sigma, I)) * c
        return out

    def transport(self, c: "ZkClass") -> tuple:
        """(degree, cochain) of a moment-angle class in R(K), by
        ``from_simplicial``; a representative that is not a cocycle raises
        ``InvalidInput``.  Cached on the window by the content of c (its
        support, degree and cochain), so each class is transported once
        per window; the cache holds no class and no window."""
        def build():
            rk = self.from_simplicial(c.I, c.cochain)
            if self.d(rk):
                raise InvalidInput("class representative is not a cocycle")
            return MultiDegree(c.zk_degree, self._aux_of(c.I)), rk
        return cached(self._transported,
                      (c.I, c.q, frozenset(c.cochain.items())), build)


def rk_basis(levels: list, S: int, k: int) -> list:
    """The basis of R(K) in degree (|S| + k, S), S a vertex mask: the
    monomials (sigma, S minus sigma) for the k-vertex faces sigma inside S,
    in the order of K's face table (``levels``)."""
    return [(sigma, _unmask(S ^ f)) for sigma, f in faces_within(levels, k, S)]


def rk_window(K: SimplicialComplex, field: Field = QQ) -> RKAlgebra:
    """The R(K) window of K over the field, built once and cached on K
    (``K._rk_cache``).

    Bases, d-solvers and quotient bases depend only on (K, field, degree),
    so every product over K shares one window."""
    return cached(K.__dict__.setdefault("_rk_cache", {}), field,
                  lambda: RKAlgebra(K, field))


@dataclass
class ZkClass:
    """Cohomology class of the moment-angle complex in one multidegree,
    carried as a reduced simplicial cocycle on the induced subcomplex."""

    I: tuple
    q: int  # reduced simplicial degree
    cochain: dict  # face tuple -> scalar

    @property
    def zk_degree(self) -> int:
        return len(self.I) + self.q + 1


def rk_cohomology(K: SimplicialComplex, field: Field = QQ) -> BettiTable:
    """BettiTable computed from the R(K) model, by ranks of its own
    differential; dims must agree with the Hochster route per multidegree.
    d keeps the support S (a vertex mask), so S is one run q = |S|..2|S|.
    Its bases are built by face size (``rk_basis``), one pass over K's
    face table that stops at the first empty size (faces are closed under
    subsets), and swept once by ``DGAlgebra.run_dims`` with
    ``RKAlgebra.d_mono``.  No cache is read and no elimination state passes
    from one support to the next."""
    check_cap(K.m)
    alg, levels = RKAlgebra(K, field), K.face_table()
    table = BettiTable(field.tag)
    for S in range(1 << K.m):
        bases = [rk_basis(levels, S, 0)]
        while bases[-1]:
            bases.append(rk_basis(levels, S, len(bases)))
        for k, dim in enumerate(alg.run_dims(bases)):
            if dim:
                table.entries[(S.bit_count() - k, _unmask(S))] = dim
    return table


def zk_classes(K: SimplicialComplex, field: Field = QQ) -> list:
    """Basis classes of reduced cohomology per subset, simplicial route."""
    check_cap(K.m)
    out = []
    for r in range(1, K.m + 1):
        for I in itertools.combinations(range(1, K.m + 1), r):
            rc = reduced_cache(K, I, field)
            for q in range(-1, r):
                if rc.dim(q):  # quotient(q).dim is dim(q)
                    out.extend(ZkClass(I, q, c) for c in rc.classes(q))
    return out


def _inv(A, B) -> int:
    return sum(1 for a in A for b in B if a > b)


def join_sign(s1, I1, s2, I2) -> int:
    """Shuffle parity of the join isomorphism, fixed so that the simplicial
    product rule agrees with the cochain product in the R(K) model."""
    J1 = [v for v in I1 if v not in s1]
    J2 = [v for v in I2 if v not in s2]
    inv = _inv(s1, I2) + _inv(s2, I1) + _inv(J1, J2)
    return 1 if inv % 2 == 0 else -1


def zk_cup(K: SimplicialComplex, x: ZkClass, y: ZkClass,
           field: Field = QQ) -> ZkClass | None:
    """Product rule: zero on overlapping supports, otherwise the signed
    join restricted to the induced subcomplex on the union."""
    if set(x.I) & set(y.I):
        return None
    I = tuple(sorted(set(x.I) | set(y.I)))
    q = x.q + y.q + 1
    out: dict = {}
    for s1, c1 in x.cochain.items():
        for s2, c2 in y.cochain.items():
            tau = tuple(sorted(s1 + s2))
            if K.is_face(tau):
                sgn = field.of(join_sign(s1, x.I, s2, y.I))
                axpy(out, sgn * c1, ((tau, c2),))
    return ZkClass(I, q, out)


def _nonzero_products(K: SimplicialComplex, level: list, basis: list,
                      field: Field):
    """Yield (x, y, x*y, coordinates of x*y) for every x in ``level`` and y
    in ``basis`` whose product is a nonzero class.  A pair is skipped
    without forming the product when the supports overlap or the reduced
    cohomology of the union is zero in the stacked degree."""
    for x in level:
        for y in basis:
            if set(x.I) & set(y.I):
                continue
            rc = reduced_cache(K, set(x.I) | set(y.I), field)
            if not rc.dim(x.q + y.q + 1):
                continue
            prod = zk_cup(K, x, y, field)
            red = rc.reduce(prod.q, prod.cochain)
            if red:
                yield x, y, prod, red


def cup_length(K: SimplicialComplex, field: Field = QQ) -> int:
    """Largest number of positive-degree classes with a nonzero product."""
    basis = zk_classes(K, field)
    if not basis:
        return 0
    level = basis
    length = 1
    while True:
        nxt = []
        seen: dict = {}
        for _x, _y, prod, red in _nonzero_products(K, level, basis, field):
            key = (prod.I, prod.q)
            if key not in seen:
                seen[key] = EchelonSolver(field, 0, [])  # add only
            if seen[key].add(red):
                nxt.append(prod)
        if not nxt:
            return length
        level = nxt
        length += 1


# ---- multidegree-restricted Massey products --------------------------------

def _disjoint_supports(m: int, supports) -> list:
    """The supports as sorted tuples.  ``InvalidInput`` when a vertex is
    not in 1..m, ``OverlappingSupports`` when one lies in two of them."""
    supports = [tuple(sorted(I)) for I in supports]
    check_vertices(m, (v for I in supports for v in I))
    if sum(len(set(I)) for I in supports) != len(set().union(*supports)):
        raise OverlappingSupports("supports must be pairwise disjoint")
    return supports


def zk_massey(K: SimplicialComplex, classes: list, field: Field = QQ,
              budget: int = 8) -> MasseyOutcome:
    """Massey product of moment-angle classes on pairwise disjoint supports,
    computed in the shared R(K) window of K (``rk_window``).  The search is
    homogeneous in the vertex support, so every degree it touches lies over
    the union of the supports.

    For n = 3 the outcome is upgraded to strict when the indeterminacy
    vanishes; for higher orders strictness comes from the vanishing-entry
    certificate, which is the content of the sufficiency conditions checked
    by ``mainlemma_check``.
    """
    supports = _disjoint_supports(K.m, (c.I for c in classes))
    V = [v for I in supports for v in I]
    if len(V) > RK_CAP:
        raise CapExceeded(f"{len(V)} vertices exceed the cap {RK_CAP}")
    alg = rk_window(K, field)
    engine = MasseyEngine(alg, budget=budget, homogeneous_aux=True)
    chain_classes = [CohomologyClass(alg, *alg.transport(c)) for c in classes]
    out = engine.massey(chain_classes)
    if out.status == "affine" and not out.indeterminacy:
        out = replace(
            out, status="strict",
            certificate=engine.strictness_certificate(chain_classes))
    return out


def mainlemma_check(K: SimplicialComplex, supports: list, dims: list,
                    field: Field = QQ) -> dict:
    """Sufficiency conditions for definedness (cond1) and strictness (cond2)
    of the product of classes with the given supports and reduced degrees:
    the reduced cohomology of every consecutive union must vanish in the
    stacked degree (cond1) resp. one below it (cond2).  A degree outside
    0..|I| - 2 on a support I, where K_I has no class, is bad input."""
    k = len(supports)
    supports = _disjoint_supports(K.m, supports)
    if len(dims) != k:
        raise InvalidInput("need one degree per support")
    for I, q in zip(supports, dims):
        if not 0 <= q <= len(I) - 2:
            raise InvalidInput(f"no class on support {I} in degree {q}")
    cond1 = True
    cond2 = True
    for r in range(1, k - 1):
        for s in range(1, k - r + 1):
            d = sum(dims[s - 1:s + r]) + 1
            rc = reduced_cache(K, [v for I in supports[s - 1:s + r]
                                   for v in I], field)
            if rc.dim(d) != 0:
                cond1 = False
            if rc.dim(d - 1) != 0:
                cond2 = False
    return {"cond1": cond1, "cond2": cond2}


def generator_class(K: SimplicialComplex, I, field: Field = QQ,
                    q: int | None = None) -> ZkClass:
    """Canonical generator of the reduced cohomology of K_I (the group must
    be one-dimensional; pass q when several degrees are nonzero)."""
    I = tuple(sorted(I))
    rc = reduced_cache(K, I, field)
    qs = [q] if q is not None else range(-1, len(I))
    hits = [(qq, reps) for qq in qs if (reps := rc.classes(qq))]
    if len(hits) != 1 or len(hits[0][1]) != 1:
        raise InvalidInput(f"K_I has no canonical generator on {I}")
    qq, (rep,) = hits[0]
    return ZkClass(I, qq, rep)


def _disjoint_tuples(supports: list, n: int, room: int, used: int = 0):
    """Ordered n-tuples of pairwise-disjoint supports, in lexicographic
    order of their positions in the list (the order of ``itertools``).
    ``room`` counts the vertices outside the mask ``used``.  A support
    with a class has at least 2 vertices, so no tuple is sought when
    fewer than 2n vertices are left."""
    if n == 0:
        yield ()
        return
    if 2 * n > room:
        return
    for I in supports:
        mask = _mask(I)
        if not mask & used:
            for rest in _disjoint_tuples(supports, n - 1, room - len(I),
                                         used | mask):
                yield (I,) + rest


def _disjoint_products(K: SimplicialComplex, by_support: dict,
                       supports: list, n: int, field: Field, budget: int,
                       screen: bool):
    """Yield (supports, classes, outcome) for every ordered n-tuple of
    pairwise-disjoint supports and every choice of one class per support.
    With ``screen``, a choice is skipped when its value group, the reduced
    cohomology of the union in the stacked degree, is zero."""
    for sups in _disjoint_tuples(supports, n, K.m):
        rc = reduced_cache(K, [v for I in sups for v in I], field)
        for classes in itertools.product(*(by_support[I] for I in sups)):
            if screen and not rc.dim(sum(c.q for c in classes) + 1):
                continue
            yield sups, classes, zk_massey(K, list(classes), field,
                                           budget=budget)


def iter_triple_massey_scan(K: SimplicialComplex, field: Field = QQ,
                            budget: int = 8, support_mode: str = "edges",
                            stop_on_nontrivial: bool = False):
    """Yield ordered triples of classes on pairwise-disjoint supports with the
    outcome of their triple product.

    The supports are the vertex sets I with a disconnected K_I: "edges"
    takes those of 2 vertices, the missing edges; "h0" those of 2 to
    ``MAX_SUPPORT`` vertices (products of 3-dimensional classes alone can
    be trivial throughout even when larger supports carry nontrivial
    products).  Each class is a degree-zero class of its K_I.  In "h0" a
    triple is skipped when its value group, the reduced H^1 of the union,
    is zero.
    """
    check_cap(K.m)
    if support_mode not in ("edges", "h0"):
        raise InvalidInput(f"unknown support mode {support_mode!r}")
    top = 2 if support_mode == "edges" else MAX_SUPPORT
    supports = [I for r in range(2, top + 1)
                for I in itertools.combinations(range(1, K.m + 1), r)
                if reduced_cache(K, I, field).dim(0)]
    by_support = {I: [ZkClass(I, 0, c)
                      for c in reduced_cache(K, I, field).classes(0)]
                  for I in supports}
    for sups, _classes, outcome in _disjoint_products(
            K, by_support, supports, 3, field, budget,
            screen=support_mode != "edges"):
        yield (*sups, outcome)
        if stop_on_nontrivial and outcome.defined and \
                outcome.triviality == "nontrivial":
            return


def triple_massey_scan(K: SimplicialComplex, field: Field = QQ,
                       budget: int = 8, support_mode: str = "edges",
                       stop_on_nontrivial: bool = False) -> list:
    """``iter_triple_massey_scan`` collected into a list."""
    return list(iter_triple_massey_scan(K, field, budget, support_mode,
                                        stop_on_nontrivial))


# ---- Golod certification -----------------------------------------------------

@dataclass
class GolodVerdict:
    status: str  # "golod-up-to-cap" | "not-golod" | "unknown"
    order_cap: int
    witness: tuple | None = None  # ("product", x, y) | ("massey", classes, outcome)
    multiplication_trivial: bool = True
    massey_trivial_up_to_cap: bool = True


def golod_test(K: SimplicialComplex, field: Field = QQ,
               order_cap: int | None = None,
               budget: int = 8) -> GolodVerdict:
    """Trivial multiplication plus trivial defined Massey products up to the
    order cap.  A nonzero product or a nontrivial defined Massey product is
    a definitive counterexample; full Golodness is never certified."""
    if order_cap is None:
        order_cap = min(K.m - 1, 5)
    basis = zk_classes(K, field)
    hit = next(_nonzero_products(K, basis, basis, field), None)
    if hit is not None:
        return GolodVerdict("not-golod", order_cap, ("product", *hit[:2]),
                            multiplication_trivial=False)
    by_support: dict = {}
    for c in basis:
        by_support.setdefault(c.I, []).append(c)
    supports = sorted(by_support)
    unknown = False
    for n in range(3, order_cap + 1):
        for _sups, combo, outcome in _disjoint_products(
                K, by_support, supports, n, field, budget, screen=True):
            if not outcome.defined:
                # an unproven `undefined` may be defined at a larger
                # budget, so it cannot support golod-up-to-cap
                unknown = unknown or outcome.inconclusive
                continue
            if outcome.triviality == "nontrivial":
                return GolodVerdict("not-golod", order_cap,
                                    ("massey", list(combo), outcome),
                                    massey_trivial_up_to_cap=False)
            if outcome.triviality == "unknown":
                unknown = True
    if unknown:
        return GolodVerdict("unknown", order_cap)
    return GolodVerdict("golod-up-to-cap", order_cap)
