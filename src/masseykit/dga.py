"""Finite windows of differential graded algebras.

A window materializes, per multidegree, a basis of named monomials together
with the differential and the product on basis pairs: ``d`` and ``wedge``
store d of a monomial, the product of a monomial pair and the degree of a
monomial on the window the first time they ask for it.  Cochains are plain
dicts ``{monomial: scalar}`` with no stored zeros; all bookkeeping (vectors,
matrices, cohomology bases) happens through the window object.

Cohomology dimensions come from ranks of d alone, in one upward sweep with
clearing per run of degrees (``run_dims``): the leads of im d_(q-1) mark
the sources of d_q whose images are never computed.
Cycle, boundary and quotient bases (``cohomology_basis``) are built only
where cochains are reduced: Massey products, cup products and coordinates.
d has one orientation, the images d b_j as rows, for ``run_dims``,
``boundaries`` and ``d_solver`` (cycles, and solves of d x = b) alike.
``coords`` is the one reduction of a closed cochain to class coordinates;
class tests, Massey values, indeterminacies and product tables all read it.

Degrees are pairs (cohomological degree, auxiliary vector): weight for
Chevalley-Eilenberg windows, vertex-support vectors for face-ring models,
exponent vectors for Koszul complexes of monomial quotients.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import NamedTuple

from .errors import InvalidInput, MixedDegree, WindowTooSmall
from .fields import Field
from .linalg import EchelonSolver, QuotientBasis, axpy, cached, lead_columns


class MultiDegree(NamedTuple):
    """(q, aux); hashes and compares as the plain tuple, in C."""
    q: int
    aux: tuple

    def __add__(self, other: "MultiDegree") -> "MultiDegree":
        return MultiDegree(self.q + other.q,
                           tuple(map(add, self.aux, other.aux)))

    def shift(self, dq: int) -> "MultiDegree":
        return MultiDegree(self.q + dq, self.aux)

    def d_target(self) -> "MultiDegree":
        return MultiDegree(self.q + 1, self.aux)

    def d_source(self) -> "MultiDegree":
        return MultiDegree(self.q - 1, self.aux)


def c_sub(u: dict, v: dict) -> dict:
    return axpy(dict(u), -1, v.items())


def merge_sorted(base: tuple, extra: tuple):
    """Sort the concatenation of two index tuples, tracking the sign of the
    permutation; returns (tuple, sign) or None when an index repeats."""
    items = list(base) + list(extra)
    sign = 1
    # insertion sort, counting transpositions
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and items[j - 1] == items[j]:
            return None
    return tuple(items), sign


class DGAlgebra:
    """Common machinery; concrete windows implement the six hooks below.
    Per-degree caches live on the window, made in ``__init__`` and filled
    through ``linalg.cached``.  Two are ``MasseyEngine``'s: ``_entry_degs``
    (entry degrees per q) and ``_pairs``, the particular solution of a
    stage-one slot per ordered pair of classes, keyed by their content
    (``find_defining_system``).  ``RKAlgebra._transported`` keeps each
    moment-angle class transported into the window.  ``_dtab``,
    ``_multab`` and ``_degtab`` keep what ``d_mono``, ``mul_mono`` and
    ``degree_of_mono`` return, filled on a miss by ``d``, ``wedge`` and
    the degree readers.  Exact: the hooks are pure functions of data the
    window fixes when made, and a hook that raises stores nothing, so it
    raises again.  ``image_rows`` calls ``d_mono`` itself (matrix assembly
    visits each source once)."""

    def __init__(self, field: Field):
        self.field = field
        self._bases, self._idx, self._dsolve, self._coh = {}, {}, {}, {}
        self._hdim, self._entry_degs, self._pairs = {}, {}, {}
        self._dtab, self._multab, self._degtab = {}, {}, {}

    # ---- hooks ---------------------------------------------------------
    def in_window(self, deg: MultiDegree) -> bool:
        raise NotImplementedError

    def basis(self, deg: MultiDegree) -> list:
        raise NotImplementedError

    def degree_of_mono(self, mono) -> MultiDegree:
        raise NotImplementedError

    def d_mono(self, mono) -> list:
        """List of (monomial, coefficient)."""
        raise NotImplementedError

    def mul_mono(self, m1, m2) -> list:
        """List of (monomial, sign), the sign the field's 1 or -1; empty
        when the product vanishes."""
        raise NotImplementedError

    def window_degrees(self) -> list:
        """Every degree the window materializes."""
        raise NotImplementedError

    # ---- cochain operations -------------------------------------------
    def d(self, cochain: dict) -> dict:
        out: dict = {}
        tab = self._dtab
        for m, c in cochain.items():
            img = tab.get(m)
            if img is None:
                img = tab[m] = self.d_mono(m)
            for m2, c2 in img:
                s = out.get(m2, 0) + c * c2
                if s == 0:
                    out.pop(m2, None)
                else:
                    out[m2] = s
        return out

    def wedge(self, u: dict, v: dict) -> dict:
        """u * v, coefficients scalars or ``Poly``; a sign ±1 from
        ``mul_mono`` is applied as c or -c, with no ``Poly`` product."""
        out: dict = {}
        tab = self._multab
        for m1, c1 in u.items():
            for m2, c2 in v.items():
                prod = tab.get((m1, m2))
                if prod is None:
                    prod = tab[m1, m2] = self.mul_mono(m1, m2)
                if not prod:
                    continue
                c = c1 * c2
                for m, cm in prod:
                    s = out.get(m, 0) + (c if cm == 1 else -c)
                    if s == 0:
                        out.pop(m, None)
                    else:
                        out[m] = s
        return out

    def _degree(self, mono) -> MultiDegree:
        deg = self._degtab.get(mono)
        if deg is None:
            deg = self._degtab[mono] = self.degree_of_mono(mono)
        return deg

    def q_degree_of(self, cochain: dict) -> int | None:
        """Common cohomological degree, None for the zero cochain."""
        qs = {self._degree(m).q for m in cochain}
        if not qs:
            return None
        if len(qs) > 1:
            raise MixedDegree(f"mixed cohomological degrees {sorted(qs)}")
        return qs.pop()

    def degree_of(self, cochain: dict) -> MultiDegree | None:
        degs = {self._degree(m) for m in cochain}
        if not degs:
            return None
        if len(degs) > 1:
            raise MixedDegree("cochain is not homogeneous")
        return degs.pop()

    def bar(self, cochain: dict) -> dict:
        """Involution: degree-k elements pick up the sign (-1)^(k+1).  A
        fresh dict; a scalar or ``Poly`` coefficient x becomes -x."""
        k = self.q_degree_of(cochain)
        if k is None or (k + 1) % 2 == 0:
            return dict(cochain)
        return {m: -x for m, x in cochain.items()}

    def components(self, cochain: dict) -> dict:
        out: dict = {}
        for m, c in cochain.items():
            out.setdefault(self._degree(m), {})[m] = c
        return out

    # ---- vectors and cached solvers ------------------------------------
    def _require(self, deg: MultiDegree):
        if not self.in_window(deg):
            raise WindowTooSmall(f"degree {deg} outside the materialized window")

    def index(self, deg: MultiDegree) -> dict:
        return cached(self._idx, deg, lambda: {
            m: i for i, m in enumerate(self.basis(deg))})

    def to_vector(self, cochain: dict, deg: MultiDegree) -> dict:
        idx = self.index(deg)
        return {idx[m]: c for m, c in cochain.items()}

    def from_vector(self, vec: dict, deg: MultiDegree) -> dict:
        bas = self.basis(deg)
        return {bas[i]: c for i, c in vec.items() if c != 0}

    def coords(self, cochain: dict) -> dict:
        """Class coordinates {(degree, index): c} of a closed cochain, one
        block per component degree, in the representatives of
        ``cohomology_basis``.  Entries may be scalars or ``Poly``; a
        component off the cycles raises ``InvalidInput``.  Where
        ``cohomology_dim`` is 0 a cycle is a boundary, so d(comp) alone
        decides, and no d-solver or quotient basis is built there."""
        out: dict = {}
        for deg, comp in self.components(cochain).items():
            if self.cohomology_dim(deg):
                out.update(((deg, i), c) for i, c in self.cohomology_basis(
                    deg).reduce(self.to_vector(comp, deg)).items())
            elif self.d(comp):
                raise InvalidInput("vector is not in the cycle space")
        return out

    def d_images(self, deg: MultiDegree):
        """d of each basis element of deg (``image_rows``)."""
        return self.image_rows(self.basis(deg), self.index(deg.d_target()))

    def image_rows(self, basis: list, idx: dict, skip=()):
        """Yield d of each element of basis whose position is not in skip,
        in basis order, as a sparse vector keyed by idx, the index of the
        target basis; d_mono is not called on a skipped element."""
        return (axpy({}, 1, ((idx[m2], c) for m2, c in self.d_mono(mono)))
                for j, mono in enumerate(basis) if j not in skip)

    def d_solver(self, deg: MultiDegree) -> EchelonSolver:
        """Elimination of the images d b_j of deg's basis, keyed by target
        index: ``coordinates`` of b gives x, r with d x = b - r, r empty
        exactly when b is exact, and the null rows are cycles."""
        def build():
            self._require(deg)
            self._require(deg.d_target())
            return EchelonSolver(self.field, len(self.basis(deg.d_target())),
                                 list(self.d_images(deg)))
        return cached(self._dsolve, deg, build)

    def run_dims(self, bases) -> list:
        """dim H at each degree of a run, given by the bases of its
        consecutive degrees of one aux, lowest first, and then the basis of
        the top degree's target, which gets no dim.  The first degree has
        no boundaries (its source is outside the window or has no basis).

        One upward sweep with clearing (Chen and Kerber's twist): the rows
        are the images d b_j of the basis elements of a degree, keyed by
        target index, and a source j that is a lead of im d of the degree
        below (``lead_columns``) is skipped; its image is never computed.
        This is exact.  d d = 0, so a vector v of im d_(q-1) with smallest
        key sigma has d v = 0, which writes d b_sigma as a combination of
        the d b_tau with tau > sigma.  By descending induction every skipped
        image lies in the span of the kept ones, so the span, its rank and
        its lead set are those of all of im d_q, and the degree above clears
        exactly with them; dim = n - rank d_q - rank d_(q-1)."""
        dims, leads = [], ()
        for src, tgt in zip(bases, bases[1:]):
            idx = {m: i for i, m in enumerate(tgt)}
            new = lead_columns(self.image_rows(src, idx, leads), self.field)
            dims.append(len(src) - len(new) - len(leads))
            leads = new
        return dims

    def cycles(self, deg: MultiDegree) -> list:
        return self.d_solver(deg).null_ts

    def boundaries(self, deg: MultiDegree) -> list:
        prev = deg.d_source()
        if not self.in_window(prev):
            return []
        return [img for img in self.d_images(prev) if img]

    def cohomology_basis(self, deg: MultiDegree) -> QuotientBasis:
        return cached(self._coh, deg, lambda: QuotientBasis(
            self.field, len(self.basis(deg)), self.cycles(deg),
            self.boundaries(deg)))

    def cohomology_dim(self, deg: MultiDegree) -> int:
        """dim H at deg.  Raises ``WindowTooSmall`` where
        ``cohomology_basis`` does (deg and deg + 1 must lie in the window).
        An empty basis gives 0 at once; otherwise a miss sweeps deg's whole
        run (``run_dims``): down while the source is in the window and has a
        basis, up while the next degree has a basis and its target is in the
        window.  Runs so never overlap, and every dim of one is kept."""
        self._require(deg)
        self._require(deg.d_target())
        if deg not in self._hdim:
            if not self.basis(deg):
                return 0
            lo = hi = deg
            while self.in_window(lo.d_source()) and self.basis(lo.d_source()):
                lo = lo.d_source()
            while self.in_window(hi.shift(2)) and self.basis(hi.d_target()):
                hi = hi.d_target()
            run = [lo.shift(k) for k in range(hi.q - lo.q + 2)]
            self._hdim.update(zip(run, self.run_dims(
                [self.basis(d) for d in run])))
        return self._hdim[deg]

    def class_of(self, cochain: dict, deg: MultiDegree | None = None) -> "CohomologyClass":
        if deg is None:
            deg = self.degree_of(cochain)
        if deg is None:
            raise MixedDegree("cannot take the class of the zero cochain without a degree")
        if self.d(cochain):
            raise MixedDegree("representative is not closed")
        return CohomologyClass(self, deg, dict(cochain))


@dataclass
class CohomologyClass:
    """Cohomology class given by a closed representative.

    ``degree`` is the nominal multidegree; the representative may spread over
    several auxiliary degrees (inhomogeneous defining systems produce such
    values), in which case coordinates are keyed by (component degree, index).
    """

    dga: DGAlgebra
    degree: MultiDegree
    rep: dict

    def coords(self) -> dict:
        return self.dga.coords(self.rep)

    def is_zero(self) -> bool:
        return not self.coords()

    def same_class(self, other: "CohomologyClass") -> bool:
        return not self.dga.coords(c_sub(self.rep, other.rep))


def cup(x: CohomologyClass, y: CohomologyClass) -> CohomologyClass:
    """Two-fold product: the class of bar(x) wedge y, canonically reduced."""
    dga = x.dga
    prod = dga.wedge(dga.bar(x.rep), y.rep)
    deg = x.degree + y.degree
    dga._require(deg)
    vec = dga.to_vector(prod, deg)
    proj = dga.cohomology_basis(deg).project(vec)
    return CohomologyClass(dga, deg, dga.from_vector(proj, deg))
