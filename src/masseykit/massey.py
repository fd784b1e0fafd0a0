"""Formal connections, defining systems and higher Massey products.

A formal connection of order n is a strictly upper triangular (n+1) x (n+1)
array of cochains, indexed here by labels (i, j) with 1 <= i <= j <= n (the
label (i, j) sits at matrix position (i, j+1)).  Its Maurer-Cartan defect is

    mu(i, j) = d a(i, j) - sum_{r=i}^{j-1} bar(a(i, r)) ^ a(r+1, j).

A defining system has mu(i, j) = 0 for every (i, j) != (1, n); the related
cocycle c(A) = sum_r bar(a(1, r)) ^ a(r+1, n) represents the product value.
Partial connections solved through stage k-1 (all slots with j - i < k) give
the k-step product: the stage-k obstruction classes form its value tuple.

The search solves the staged equations with the cohomology directions of
every stage carried as symbolic parameters, so the value class comes out as
a vector of polynomials in those parameters; membership and triviality
questions reduce to exact linear algebra whenever that dependence is affine.
A family of connections is a connection whose cochains have ``Poly``
coefficients: the same ``d``, ``wedge``, ``bar`` and ``components`` of the
window, and the same ``mc_sum``, act on both.

One solver, ``MasseyEngine._resolve_constraints``, answers every parameter
question.  A nonzero constant constraint proves a system inconsistent.
Otherwise each variable of a monomial of degree >= 2 is pinned to 0 and the
affine rest is eliminated exactly.  A pin, like a budget stop, makes the
search incomplete.  So an ``undefined`` is proven only when the failing
stage is inconsistent with nothing pinned in it (a nonzero constant before
any pin, or an affine system with no solution) and every earlier stage is
complete; otherwise it is inconclusive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .dga import CohomologyClass, DGAlgebra, MultiDegree, cup
from .errors import (InvalidInput, NotADefiningSystem, SingularMatrix,
                     Undecided, WindowTooSmall)
from .linalg import EchelonSolver, axpy, cached
from .params import Poly


# ---------------------------------------------------------------------------
# concrete connections


@dataclass
class FormalConnection:
    dga: DGAlgebra
    n: int
    entries: dict  # (i, j) -> cochain; diagonal carries the input cocycles

    def entry(self, i: int, j: int) -> dict:
        return self.entries.get((i, j), {})


def mc_sum(dga: DGAlgebra, entries: dict, i: int, j: int) -> dict:
    """sum_{r=i}^{j-1} bar(a(i, r)) ^ a(r+1, j) over the entries present.

    The one Maurer-Cartan sum: the defect, the related cocycle, the stage
    right-hand sides and the k-step tuples all read it.  ``bar`` is its only
    sign source, and the coefficients may be scalars or ``Poly``."""
    acc: dict = {}
    for r in range(i, j):
        left = entries.get((i, r))
        right = entries.get((r + 1, j))
        if left and right:
            axpy(acc, 1, dga.wedge(dga.bar(left), right).items())
    return acc


def _mu(conn: FormalConnection, i: int, j: int) -> dict:
    """The defect entry mu(i, j)."""
    return axpy(conn.dga.d(conn.entry(i, j)), -1,
                mc_sum(conn.dga, conn.entries, i, j).items())


def mc_defect(conn: FormalConnection) -> dict:
    """All defect entries mu(i, j), including the corner."""
    out = {}
    for i in range(1, conn.n + 1):
        for j in range(i, conn.n + 1):
            mu = _mu(conn, i, j)
            if mu:
                out[(i, j)] = mu
    return out


def is_k_step(mu: dict, k: int) -> bool:
    """Defect confined to slots with j - i >= k (stages below k all solved)."""
    return all(j - i >= k for (i, j) in mu)


def is_defining_system(conn: FormalConnection) -> bool:
    """Every defect entry but the corner vanishes; the corner is not
    computed."""
    n = conn.n
    return not any(_mu(conn, i, j) for i in range(1, n + 1)
                   for j in range(i, n + 1) if (i, j) != (1, n))


def related_cocycle(conn: FormalConnection) -> dict:
    if not is_defining_system(conn):
        raise NotADefiningSystem("Maurer-Cartan defect escapes the corner")
    return mc_sum(conn.dga, conn.entries, 1, conn.n)


def conjugate(conn: FormalConnection, C: list) -> FormalConnection:
    """C^{-1} A C for an invertible upper-triangular scalar matrix C."""
    n = conn.n
    size = n + 1
    field = conn.dga.field
    C = [[field.of(C[r][c]) for c in range(size)] for r in range(size)]
    for r in range(size):
        for c in range(r):
            if C[r][c] != 0:
                raise InvalidInput("C must be upper triangular")
        if C[r][r] == 0:
            raise SingularMatrix("C has a zero diagonal entry")
    # invert the triangular matrix by back substitution
    inv = [[field.zero() for _ in range(size)] for _ in range(size)]
    for r in range(size):
        inv[r][r] = field.div(field.one(), C[r][r])
    for r in range(size - 1, -1, -1):
        for c in range(r + 1, size):
            s = field.zero()
            for t in range(r + 1, c + 1):
                s = s + C[r][t] * inv[t][c]
            inv[r][c] = field.div(-s, C[r][r])
    # matrix form: M[r][c] = a(r+1, c) for c >= r+1 (0-indexed rows/cols)
    def mat_entry(r, c):
        return conn.entries.get((r + 1, c), {})

    new_entries = {}
    for i in range(size):
        for j in range(i + 1, size):
            acc: dict = {}
            for r in range(size):
                for c in range(size):
                    co = inv[i][r] * C[c][j]
                    if co == 0:
                        continue
                    axpy(acc, co, mat_entry(r, c).items())
            if acc:
                new_entries[(i + 1, j)] = acc
    return FormalConnection(conn.dga, n, new_entries)


def strong_mc_check(dga: DGAlgebra, assignment: dict, n: int) -> bool:
    """True when the matrices of 1-forms built from a generator assignment
    satisfy dA - bar(A) ^ A = 0 in every slot (corner included), i.e. the
    assignment is a Lie algebra homomorphism into the triangular matrices."""
    entries: dict = {}
    for gen, mat in assignment.items():
        for r in range(n + 1):
            for c in range(n + 1):
                v = mat[r][c]
                if v == 0:
                    continue
                if c <= r:
                    raise InvalidInput("assignment must be strictly upper triangular")
                axpy(entries.setdefault((r + 1, c), {}), 1,
                     (((gen,), dga.field.of(v)),))
    conn = FormalConnection(dga, n, {k: v for k, v in entries.items() if v})
    return not mc_defect(conn)


def lift_obstruction(conn: FormalConnection) -> CohomologyClass:
    """Class of the related cocycle of a defining system of 1-forms; it
    vanishes exactly when the induced homomorphism to the central quotient
    lifts, and a corner entry with d a(1,n) = c(A) completes the lift."""
    dga = conn.dga
    for (i, j), e in conn.entries.items():
        if e and dga.q_degree_of(e) != 1:
            raise NotADefiningSystem("all entries must be 1-forms")
    c = related_cocycle(conn)
    comps = dga.components(c)
    deg = next(iter(comps)) if len(comps) == 1 else \
        MultiDegree(2, (0,) * dga.aux_len)
    return CohomologyClass(dga, deg, c)


def complete_lift(conn: FormalConnection) -> dict | None:
    """Corner entry a(1, n) with d a(1,n) = c(A), when one exists."""
    dga = conn.dga
    out: dict = {}
    for deg, comp in dga.components(related_cocycle(conn)).items():
        x, r = dga.d_solver(deg.d_source()).coordinates(
            dga.to_vector(comp, deg))
        if r:
            return None
        out.update(dga.from_vector(x, deg.d_source()))
    return out


# ---------------------------------------------------------------------------
# parametric cochains: dict monomial -> Poly.  d, wedge, bar and components
# of DGAlgebra apply to them unchanged; only these three are Poly-specific.


def pc_const(cochain: dict) -> dict:
    return {m: Poly.const(c) for m, c in cochain.items()}


def pc_substitute(u: dict, subst: dict) -> dict:
    out = {}
    for m, p in u.items():
        q = p.substitute(subst)
        if not q.is_zero():
            out[m] = q
    return out


def pc_evaluate(u: dict, assign: dict, field) -> dict:
    out = {}
    for m, p in u.items():
        v = p.evaluate(assign, field)
        if v != 0:
            out[m] = v
    return out


# ---------------------------------------------------------------------------
# outcome containers


@dataclass
class ParamInfo:
    var: int
    slot: tuple
    degree: MultiDegree
    kind: str  # always "class": a cohomology direction
    direction: dict  # cochain


@dataclass
class ConnectionFamily(FormalConnection):
    """A connection whose entries are parametric cochains."""
    params: list             # ParamInfo
    complete: bool

    def free_vars(self) -> list:
        seen = set()
        for pc in self.entries.values():
            for p in pc.values():
                seen |= p.variables()
        return sorted(seen)

    def at(self, assign: dict | None = None) -> FormalConnection:
        assign = assign or {}
        entries = {}
        for slot, pc in self.entries.items():
            conc = pc_evaluate(pc, assign, self.dga.field)
            if conc:
                entries[slot] = conc
        return FormalConnection(self.dga, self.n, entries)


@dataclass
class Undefined:
    slot: tuple
    inconclusive: bool


@dataclass
class MasseyOutcome:
    status: str              # "undefined" | "strict" | "affine" | "sampled"
    n: int
    triviality: str          # "trivial" | "nontrivial" | "unknown"
    representative: CohomologyClass | None = None
    classes: list = dc_field(default_factory=list)
    indeterminacy: list = dc_field(default_factory=list)
    witness: FormalConnection | None = None
    complete: bool = True
    inconclusive: bool = False
    certificate: list | None = None
    value_coords: dict | None = None   # {(degree, index): Poly in parameters}

    @property
    def defined(self) -> bool:
        return self.status != "undefined"


@dataclass
class KStepOutcome:
    k: int
    defined: bool
    classes: tuple = ()
    triviality: str = "unknown"
    witness: FormalConnection | None = None
    complete: bool = True
    inconclusive: bool = False


# ---------------------------------------------------------------------------
# the staged search


class MasseyEngine:
    """Staged defining-system search bound to one algebra window.

    ``homogeneous_aux``: constrain entry slots to the sum of the input
    auxiliary degrees (weight additivity / vertex-support additivity).  With
    the flag off, entries range over every auxiliary degree materialized in
    the window, which is what exposes the full indeterminacy of the examples
    with inhomogeneous defining systems.
    """

    def __init__(self, dga: DGAlgebra, budget: int = 8,
                 homogeneous_aux: bool = True):
        self.dga = dga
        self.budget = budget
        self.homogeneous_aux = homogeneous_aux
        self._profiles: dict = {}

    # -- degree bookkeeping ------------------------------------------------
    def _profile(self, classes) -> dict:
        """Nominal degree of every slot (i, j), as running sums along each
        row: deg (i, j) = deg (i, j - 1) + deg a_j - 1 in q, so q is
        sum (q_r - 1) + 1 and aux is sum aux_r over r = i..j.  Cached on
        the engine per degree sequence."""
        key = tuple(cls.degree for cls in classes)

        def build():
            prof = {}
            for i, deg in enumerate(key, start=1):
                prof[(i, i)] = deg
                for j in range(i + 1, len(key) + 1):
                    deg = prof[(i, j)] = deg.shift(-1) + key[j - 1]
            return prof
        return cached(self._profiles, key, build)

    def _materialized(self, deg: MultiDegree) -> bool:
        """deg and deg + 1 lie in the window (cohomology at deg is defined)."""
        return self.dga.in_window(deg) and self.dga.in_window(deg.d_target())

    def _entry_aux_degrees(self, nominal: MultiDegree) -> list:
        """Materialized degrees with a nonempty basis that an entry of
        nominal degree ``nominal`` may occupy: the nominal degree itself
        with ``homogeneous_aux``, else every window degree of the same
        cohomological degree, sorted by auxiliary degree.  The second list
        is the same for every product on the window, so it is built once
        per q and cached on the window (``dga._entry_degs``)."""
        dga = self.dga
        if self.homogeneous_aux:
            return [nominal] if self._materialized(nominal) and \
                dga.basis(nominal) else []
        return cached(dga._entry_degs, nominal.q, lambda: sorted(
            (deg for deg in dga.window_degrees()
             if deg.q == nominal.q and self._materialized(deg)
             and dga.basis(deg)),
            key=lambda d: d.aux))

    # -- the solver ---------------------------------------------------------
    def find_defining_system(self, classes, max_stage: int | None = None):
        """Solve the staged equations through ``max_stage`` (default n-1,
        the full defining system).  Returns a ConnectionFamily or Undefined.

        The search state is the family itself: its entries, its parameters
        and its ``complete`` flag.  It starts from the input cocycles on the
        diagonal and walks the slots in stage order, one ``_solve_slot``
        step per slot; the first ``Undefined`` ends the walk.

        Each entry is a particular solution plus one parameter per
        cohomology direction of each degree it may occupy; ``budget`` caps
        the parameter count.  Boundary directions are gauge (May 1969):

        - Conjugating by 1 + b.E at a slot (i, j) != (1, n), with
          deg b = deg a(i, j) - 1, changes a(i, j) by +-db and no other
          slot of length <= j - i: the terms +-a(r, i-1).b and
          +-b.a(j+1, c) land in the longer slots (r, j) and (i, c).
        - The defect is conjugated too, and the corner defect
          d a(1, n) - c(A) is central, so c(A) changes by the coboundary
          of the new corner entry (a k-step tuple, by those of the new
          length-k entries).
        - So, stage by stage, every defining system is gauge-equivalent to
          one whose kernel part at each slot (a cocycle: representatives
          plus some db) lies in the span of the representatives, with the
          same value class.

        The gauge terms must be window cochains.  With ``homogeneous_aux``
        they sit in the nominal degrees of slots (r, j) and (i, c), which
        the search requires.  With ``homogeneous_aux=False`` on a CE window
        they weigh what a(r, i-1).db and db.a(j+1, c) weigh, so the claim
        covers the defining systems in which these weights stay within
        w_max.  The search over the whole kernel (representatives and
        boundary directions) raises ``WindowTooSmall`` on every such
        product that is nonzero and weighs more.

        A stage-one slot (i, i+1) solves d a = bar(a_i) ^ a_(i+1) from two
        constant entries, so its particular solution depends only on the
        two classes (degree and representative) and on ``homogeneous_aux``;
        no parameter and no earlier slot reaches it, and its obstructions
        are constants.  The window keeps that solution per ordered pair
        (``dga._pairs``) and a later product reuses it, which is exact.  An
        inconsistent pair or a raise stores nothing, so an ``Undefined``
        still takes ``inconclusive`` from this search's ``complete``.  The
        parameter directions are not memoized: they are read from
        ``cohomology_basis`` per slot and per product, under this search's
        budget, so the numbering of ``ParamInfo`` and a replaced
        ``cohomology_basis`` (as in the full-kernel comparison of the tests)
        act as before.
        """
        dga = self.dga
        n = len(classes)
        if n < 2:
            raise InvalidInput("need at least two classes")
        for cls in classes:
            if cls.dga is not dga:
                raise InvalidInput("classes live in a different window")
            if self.homogeneous_aux and len(dga.components(cls.rep)) > 1:
                raise InvalidInput(
                    "inhomogeneous representatives need homogeneous_aux=False")
        if max_stage is None:
            max_stage = n - 1
        prof = self._profile(classes)
        fam = ConnectionFamily(dga, n, {
            (i, i): pc_const(cls.rep) for i, cls in enumerate(classes, 1)},
            [], True)
        for stage in range(1, max_stage + 1):
            for i in range(1, n - stage + 1):
                j = i + stage
                if (i, j) != (1, n):
                    fam = self._solve_slot(fam, classes, i, j, prof[(i, j)])
                    if isinstance(fam, Undefined):
                        return fam
        return fam

    def _solve_slot(self, fam: ConnectionFamily, classes, i: int, j: int,
                    nominal: MultiDegree):
        """One step of the search: enter a(i, j), of nominal degree
        ``nominal``, into ``fam`` and return it, or return an ``Undefined``.
        The entry is a particular solution of d a(i, j) = mc_sum(i, j), from
        the pair memo or the x of x, r = ``coordinates`` of each component in
        its d-solver (d x = component - r) after ``_resolve_constraints`` on
        the values of r, plus the slot's budgeted cohomology directions; a
        pin or a budget stop clears ``fam.complete``."""
        dga = self.dga
        pair = None
        if j == i + 1:
            a, b = classes[i - 1], classes[i]
            pair = (self.homogeneous_aux, a.degree, frozenset(a.rep.items()),
                    b.degree, frozenset(b.rep.items()))
        known = dga._pairs.get(pair)
        if known is not None:
            entry = pc_const(known)
        else:
            rhs = mc_sum(dga, fam.entries, i, j)
            if dga.d(rhs):
                raise NotADefiningSystem(
                    f"stage right-hand side at {(i, j)} is not closed")
            constraints, entry = [], {}
            for deg, comp in sorted(dga.components(rhs).items(),
                                    key=lambda kv: kv[0].aux):
                if self.homogeneous_aux and deg != nominal.d_target():
                    raise NotADefiningSystem(
                        f"inhomogeneous right-hand side at {(i, j)}")
                x, r = dga.d_solver(deg.d_source()).coordinates(
                    dga.to_vector(comp, deg))
                entry.update(dga.from_vector(x, deg.d_source()))
                constraints.extend(r[k] for k in sorted(r))
            subst, pinned = self._resolve_constraints(constraints) \
                if constraints else ({}, False)
            fam.complete = fam.complete and not pinned
            if subst is None:
                return Undefined((i, j), inconclusive=not fam.complete)
            if subst:
                entry = pc_substitute(entry, subst)
                fam.entries = {slot: pc_substitute(pc, subst)
                               for slot, pc in fam.entries.items()}
        # kernel freedom: cohomology directions only (see above)
        if self.homogeneous_aux and not self._materialized(nominal):
            raise WindowTooSmall(f"entry degree {nominal} not materialized")
        if pair is not None and known is None:
            dga._pairs[pair] = {m: p.constant() for m, p in entry.items()}
        for deg in self._entry_aux_degrees(nominal):
            if not fam.complete and len(fam.params) >= self.budget:
                break  # a later degree could only clear complete again
            for kvec in dga.cohomology_basis(deg).representatives:
                if len(fam.params) >= self.budget:
                    fam.complete = False
                    break
                var = len(fam.params)
                direction = dga.from_vector(kvec, deg)
                fam.params.append(ParamInfo(var, (i, j), deg, "class",
                                            direction))
                axpy(entry, 1, ((m, Poly.var(var, c))
                                for m, c in direction.items()))
        if entry:
            fam.entries[(i, j)] = entry
        return fam

    def _resolve_constraints(self, polys):
        """The one exact solver: parameter values at which every poly of
        ``polys`` vanishes.  Returns (subst, pinned).

        A nonzero constant proves the system inconsistent: (None, False).
        Otherwise every variable of a monomial of degree >= 2 is pinned to
        0 (``pinned`` is True when one was), which leaves an affine system.
        One elimination of its rows lin | const, the constant in column
        ``rhs`` after the variables, solves it.  A pivot in ``rhs`` is a row
        0 = c != 0: (None, pinned), a proof only when nothing was pinned.
        Otherwise ``subst`` sends each pinned variable to 0 and each pivot
        variable to a ``Poly`` in the free variables, read off its reduced
        row, so every poly substitutes to 0.
        """
        if any(p.is_constant() and not p.is_zero() for p in polys):
            return None, False
        subst = {v: Poly() for p in polys for m in p.terms if len(m) >= 2
                 for v in m}
        if subst:
            polys = [p.substitute(subst) for p in polys]
        varset = sorted({v for p in polys for v in p.variables()})
        col = {v: c for c, v in enumerate(varset)}
        rhs = len(varset)
        rows = [{col[m[0]] if m else rhs: c for m, c in p.terms.items()}
                for p in polys]  # affine now: every m has at most one var
        solver = EchelonSolver(self.dga.field, rhs + 1, rows)
        pinned = bool(subst)
        if rhs in solver.pivot_cols:
            return None, pinned
        for pcol, erow, _t in solver.piv:
            terms = {(varset[c],): -cf for c, cf in erow.items()
                     if c != pcol and c != rhs}
            terms[()] = -erow.get(rhs, 0)
            subst[varset[pcol]] = Poly(terms)
        return subst, pinned

    # -- products ------------------------------------------------------------
    def _reduce_family_value(self, value: dict):
        """Coordinates {(degree, rep_index): Poly} of a closed parametric
        cochain (``DGAlgebra.coords``); a value off the cycles raises
        ``NotADefiningSystem``."""
        try:
            return self.dga.coords(value)
        except InvalidInput:
            raise NotADefiningSystem("value is not a cocycle") from None

    def _zero_solvable(self, coords: dict):
        """Find an assignment at which every coordinate vanishes.

        Returns an assignment dict, or None when no assignment exists (a
        definitive answer); raises Undecided when the dependence is not
        affine and no definitive fallback applies.  Nonlinear coordinates
        over a small prime field are settled by enumerating the parameter
        box; everything else goes to ``_resolve_constraints``, with the
        free variables set to 0.
        """
        field = self.dga.field
        polys = list(coords.values())
        varset = sorted({v for p in polys for v in p.variables()})
        if (not all(p.is_affine() for p in polys) and field.p is not None
                and field.p ** len(varset) <= 200_000):
            for combo in itertools.product(list(field.elements()),
                                           repeat=len(varset)):
                assign = dict(zip(varset, combo))
                if all(p.evaluate(assign, field) == 0 for p in polys):
                    return assign
            return None
        subst, pinned = self._resolve_constraints(polys)
        if subst is None:
            if pinned:
                raise Undecided("nonlinear parameter dependence")
            return None
        return {v: rep.constant() for v, rep in subst.items()}

    def strictness_certificate(self, classes) -> list | None:
        """Vanishing cohomology degrees making every defining system give one
        class: H at the degree of every proper entry slot must be zero."""
        if not self.homogeneous_aux:
            return None
        dga = self.dga
        n = len(classes)
        prof = self._profile(classes)
        cert = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if (i, j) == (1, n):
                    continue
                deg = prof[(i, j)]
                if not self._materialized(deg):
                    return None
                if dga.cohomology_basis(deg).dim != 0:
                    return None
                cert.append(deg)
        return cert

    # -- public products -----------------------------------------------------
    def massey(self, classes) -> MasseyOutcome:
        """The product of ``classes``.  n = 2 is the cup product, and a
        search that ends in an ``Undefined`` gives ``undefined``.  Every
        other product takes one path: ``status`` is ``affine`` for a
        triple, ``strict`` with a strictness certificate, else ``sampled``;
        the verdict is ``_triviality`` of the value coordinates, and the
        outcome is ``complete`` when the family is and every coordinate is
        affine.  A triple's value is linear in its parameters and a strict
        family has none, so on them the rule is the family's ``complete``,
        and a strict verdict is whether the representative is zero."""
        dga = self.dga
        n = len(classes)
        if n < 2:
            raise InvalidInput("need at least two classes")
        if n == 2:
            value = cup(classes[0], classes[1])
            triv = "trivial" if value.is_zero() else "nontrivial"
            witness = FormalConnection(dga, 2, {
                (1, 1): dict(classes[0].rep), (2, 2): dict(classes[1].rep)})
            return MasseyOutcome("strict", n, triv, representative=value,
                                 classes=[value], witness=witness)
        fam = self.find_defining_system(classes)
        if isinstance(fam, Undefined):
            return MasseyOutcome("undefined", n, "unknown",
                                 inconclusive=fam.inconclusive,
                                 complete=False)
        value = mc_sum(dga, fam.entries, 1, n)
        coords = self._reduce_family_value(value)
        rep_conn = fam.at({})
        nominal = self._profile(classes)[(1, n)]
        value_deg = MultiDegree(nominal.q + 1, nominal.aux)
        cert = None if n == 3 else self.strictness_certificate(classes)
        if n == 3 or cert is not None:
            samples = [CohomologyClass(dga, value_deg,
                                       related_cocycle(rep_conn))]
        else:
            samples = self._sample_classes(fam, value, coords, value_deg)
        indet = self._triple_indeterminacy(classes, value_deg) \
            if n == 3 else []
        triv, _ = self._triviality(coords, fam)
        status = "affine" if n == 3 else \
            "strict" if cert is not None else "sampled"
        return MasseyOutcome(
            status, n, triv, representative=samples[0], classes=samples,
            indeterminacy=indet, witness=rep_conn,
            complete=fam.complete and all(p.is_affine()
                                          for p in coords.values()),
            certificate=cert, value_coords=coords)

    def _triple_indeterminacy(self, classes, value_deg) -> list:
        """Basis of the direction space a1 . H + H . a3 of the affine value
        set of a triple product: a1 . z over H at the degrees of slot
        (2, 3), then z . a3 over those of slot (1, 2), each kept when it
        raises the rank.  Empty at once when H is zero in every entry
        degree of the value: each product has q = value_deg.q, and a
        component off those degrees is zero (empty basis) or raises
        ``WindowTooSmall`` (skipped), so the search would find nothing."""
        dga = self.dga
        if not any(dga.cohomology_dim(d)
                   for d in self._entry_aux_degrees(value_deg)):
            return []
        prof = self._profile(classes)
        left, right = dga.bar(classes[0].rep), classes[2].rep
        seen = EchelonSolver(dga.field, 0, [])  # width unread: add only
        out = []
        for slot, make in (((2, 3), lambda z: dga.wedge(left, z)),
                           ((1, 2), lambda z: dga.wedge(dga.bar(z), right))):
            for deg in self._entry_aux_degrees(prof[slot]):
                for rep in dga.cohomology_basis(deg).representatives:
                    try:
                        prod = make(dga.from_vector(rep, deg))
                        raised = seen.add(dga.coords(prod))
                    except WindowTooSmall:
                        continue
                    if raised:
                        comps = dga.components(prod)
                        out.append(CohomologyClass(dga, next(iter(comps)) if
                                                   len(comps) == 1
                                                   else value_deg, prod))
        return out

    def _triviality(self, coords: dict, fam: ConnectionFamily):
        """(verdict, assignment) for the value coordinates of a family.

        "trivial" comes with an assignment at which every coordinate
        vanishes.  "nontrivial" needs both a definitive "no such assignment"
        and a complete family (every kernel direction parametrized, every
        constraint resolved exactly): over a truncated or pinned family it
        only shows that 0 is outside the part explored.  Anything else is
        "unknown", with assignment None."""
        if not coords:
            return "trivial", {}
        try:
            assign = self._zero_solvable(coords)
        except Undecided:
            return "unknown", None
        if assign is not None:
            return "trivial", assign
        return ("nontrivial" if fam.complete else "unknown"), None

    def contains_value(self, outcome: MasseyOutcome,
                       target_class: CohomologyClass) -> bool:
        """Is ``target_class`` reachable inside the explored value family?

        Raises Undecided when the exact solvers cannot decide.
        """
        if outcome.value_coords is None:
            raise InvalidInput("outcome carries no value coordinates")
        coords = dict(outcome.value_coords)
        for key, t in target_class.coords().items():
            coords[key] = coords.get(key, Poly()) - Poly.const(t)
        return self._zero_solvable(coords) is not None

    def _sample_classes(self, fam: ConnectionFamily, value: dict,
                        coords: dict, value_deg) -> list:
        """Value classes of the family at the origin (first) and at +-1 on
        each of its first six free variables, one per distinct coordinate
        vector.  ``value`` is the parametric related cocycle, ``coords`` its
        class coordinates.

        The family is checked once, symbolically: its ``Poly``-valued
        defect must lie in the corner ideal.  A ``Poly`` that vanishes
        identically vanishes at every assignment, and evaluation commutes
        with d, bar and wedge, hence with ``mc_sum``.  So every sampled
        connection ``fam.at(assign)`` is a defining system, and its related
        cocycle is ``value`` evaluated at ``assign``: what a concrete
        ``related_cocycle`` check of each sample would prove, from one
        defect computation in place of one per sample."""
        dga = self.dga
        field = dga.field
        if not is_defining_system(fam):
            raise NotADefiningSystem("Maurer-Cartan defect escapes the corner")
        free = fam.free_vars()
        assigns = [dict()]
        for v in free[:6]:
            assigns.append({v: field.of(1)})
            assigns.append({v: field.of(-1)})
        out = []
        seen = set()
        for assign in assigns:
            sig = tuple(sorted((str(k), str(v)) for k, v in
                               pc_evaluate(coords, assign, field).items()))
            if sig in seen:
                continue
            seen.add(sig)
            out.append(CohomologyClass(dga, value_deg,
                                       pc_evaluate(value, assign, field)))
        return out

    # -- k-step products -------------------------------------------------------
    def k_step(self, classes, k: int) -> KStepOutcome:
        dga = self.dga
        n = len(classes)
        if not 1 <= k <= n - 1:
            raise InvalidInput("need 1 <= k <= n-1")
        fam = self.find_defining_system(classes, max_stage=k - 1)
        if isinstance(fam, Undefined):
            return KStepOutcome(k, False, complete=False,
                                inconclusive=fam.inconclusive)
        prof = self._profile(classes)
        tuples_pc = [(s, mc_sum(dga, fam.entries, s, s + k))
                     for s in range(1, n - k + 1)]
        all_coords: dict = {}
        for s, acc in tuples_pc:
            for key, p in self._reduce_family_value(acc).items():
                all_coords[(s,) + key] = p
        classes_out = []
        for s, acc in tuples_pc:
            conc = pc_evaluate(acc, {}, dga.field)
            deg = prof[(s, s + k)]
            classes_out.append(CohomologyClass(
                dga, MultiDegree(deg.q + 1, deg.aux), conc))
        triv, assign = self._triviality(all_coords, fam)
        return KStepOutcome(k, True, tuple(classes_out), triv, fam.at(assign),
                            complete=fam.complete)
