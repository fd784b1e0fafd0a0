"""Exact sparse linear algebra over the rationals and prime fields.

Vectors are sparse dicts ``{index: scalar}`` with no stored zeros.  Two
loops eliminate.  ``EchelonSolver.add`` is the one Gauss-Jordan step, with
transform rows: it reduces a row against the stored pivot rows, makes its
lowest remaining nonzero column a pivot and clears that column from the
stored rows.  Rows are taken in order, so repeated runs produce identical
output.  Every solve reads a vector in a row space (``coordinates``).
``extend_pivots`` is the rank path: fraction-free over ints, no transform
rows, and resumable, since it extends a pivot dict of earlier rows into a
new one and leaves the old one as it was (``lead_columns`` starts it from
nothing).  ``QuotientBasis`` selects its bases with one ``EchelonSolver``
pass and reduces a cycle by reading it in the row space of another.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import InvalidInput
from .fields import Field, Fp, residue


def axpy(out: dict, c, pairs) -> dict:
    """In place: out += c * v, v given by its (key, value) pairs; returns
    out.  The one sparse accumulate: zero sums are dropped, and the values
    may be field scalars or ``Poly``.  For c = 1 the values are added as
    they are (scalars and ``Poly`` are never mutated, so sharing is safe)."""
    if c == 0:
        return out
    unit = c == 1
    for k, x in pairs:
        s = out.get(k, 0) + (x if unit else c * x)
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def cached(cache: dict, key, build):
    """cache[key], calling build() and storing its result only on a miss
    (None marks a miss).  The one get-or-build step of every per-object
    cache; build is called, never stored, so a closure over the owner of
    the cache does not keep the owner alive."""
    got = cache.get(key)
    if got is None:
        got = cache[key] = build()
    return got


class EchelonSolver:
    """Gauss-Jordan elimination of a matrix M given by rows, tracking T.

    Keeps T with T . M = E (E in reduced row echelon form), split into
    pivot rows and null rows; a null row y has y . M = 0.  ``coordinates``
    writes v = x . M + r, and the free columns give M x = 0
    (``kernel_basis``).  The transform rows also apply to vectors with
    polynomial entries, which is how the staged defining-system solver
    propagates parameters.  ``add`` takes one row; the constructor adds
    ``rows``."""

    def __init__(self, field: Field, n_cols: int, rows: list[dict]):
        self.field = field
        self.n_cols = n_cols
        self.n_rows = 0
        self.piv: list[tuple[int, dict, dict]] = []  # (pivot_col, E-row, T-row)
        self.null_ts: list[dict] = []
        self._by_col: dict[int, tuple[int, dict, dict]] = {}
        for row in rows:
            self.add(row)

    def add(self, row: dict) -> bool:
        """One Gauss-Jordan step: append row to M; True when the rank grew."""
        one = self.field.one()
        by_col = self._by_col
        cur = {c: v for c, v in row.items() if v != 0}
        t = {self.n_rows: one}
        self.n_rows += 1
        # reduce against existing pivots; stored rows are fully reduced
        # (support = own pivot + free columns), so one pass suffices
        for c in sorted(cur.keys() & by_col.keys()):
            coef = cur[c]
            hit = by_col[c]
            axpy(cur, -coef, hit[1].items())
            axpy(t, -coef, hit[2].items())
        if not cur:
            self.null_ts.append(t)
            return False
        lead = min(cur)
        inv = self.field.div(one, cur[lead])
        cur = {c: inv * v for c, v in cur.items()}
        t = {c: inv * v for c, v in t.items()}
        # eliminate the new pivot column from all stored pivot rows
        for entry in self.piv:
            coef = entry[1].get(lead)
            if coef is not None:
                axpy(entry[1], -coef, cur.items())
                axpy(entry[2], -coef, t.items())
        rec = (lead, cur, t)
        self.piv.append(rec)
        by_col[lead] = rec
        return True

    @property
    def rank(self) -> int:
        return len(self.piv)

    @property
    def pivot_cols(self) -> list[int]:
        return [p[0] for p in self.piv]

    @property
    def free_cols(self) -> list[int]:
        return [c for c in range(self.n_cols) if c not in self._by_col]

    def kernel_basis(self) -> list[dict]:
        """One kernel vector per free column f, in free-column order: 1 at
        f, minus column f of each pivot row at its pivot.  A stored row
        holds its pivot and free columns only, so one pass over the rows
        fills every vector."""
        one = self.field.one()
        out = {f: {f: one} for f in self.free_cols}
        for pcol, erow, _t in self.piv:
            for f, c in erow.items():
                if f != pcol:
                    out[f][pcol] = -c
        return list(out.values())

    def coordinates(self, v: dict) -> tuple[dict, dict]:
        """v read in the row space of M: (x, r) with v = x . M + r, and r
        empty exactly when v lies in the row space.  E is in reduced row
        echelon form, so the coefficient of E-row p is v[p]: x = sum_p v[p]
        T_p and r = v - sum_p v[p] E_p, which vanishes at every pivot; at a
        free column k, r[k] is e_k - sum_p E_p[k] e_p applied to v.  Entries
        of v may lie in any commutative algebra over the field (``Poly``);
        so do the entries of x and r."""
        x, r = {}, {k: y for k, y in v.items() if k not in self._by_col}
        for pcol, erow, t in self.piv:
            c = v.get(pcol)
            if c is None:
                continue
            for i, a in t.items():
                y = c * a
                x[i] = x[i] + y if i in x else y
            for k, a in erow.items():
                if k != pcol:
                    y = c * a
                    r[k] = r[k] - y if k in r else -y
        return ({i: y for i, y in x.items() if y != 0},
                {k: y for k, y in r.items() if y != 0})


def rank(rows: list, field: Field) -> int:
    """Exact rank of a list of sparse row dicts."""
    return len(lead_columns(rows, field))


def lead_columns(rows: list, field: Field) -> set:
    """The leads of the span of sparse rows: every column that is the
    smallest key of some nonzero vector of the span.  The set depends on
    the span only, and its size is the rank."""
    return set(extend_pivots({}, rows, field))


def extend_pivots(start: dict, rows, field: Field) -> dict:
    """The rank loop, resumable: ``start`` is a dict {lead column: stored
    row} returned by an earlier call (or {}), and the result is a new such
    dict for the span of start's rows and ``rows``; its keys are the leads
    of that span.  Neither ``start`` nor its rows are changed, so one state
    can be extended in several ways.

    Plain ints, no transform rows: each row is cleared of denominators
    (over GF(p): taken to residues; an all-int row over Q is only copied),
    then reduced fraction-free against the pivot rows as c*row - a*pivot,
    with a and c the leading entries over their gcd (Bareiss 1968).  A
    scaled row is divided by the gcd of its entries over Q and reduced mod
    p over GF(p)."""
    p = field.p
    pivots = dict(start)
    for row in rows:
        if p is None and all(type(x) is int for x in row.values()):
            cur = {k: x for k, x in row.items() if x}
        elif p is None:
            den = lcm(*(x.denominator for x in row.values()))
            cur = {k: x.numerator * (den // x.denominator)
                   for k, x in row.items() if x}
        else:
            cur = {k: r for k, x in row.items() if (r := (
                x % p if type(x) is int else x.v if isinstance(x, Fp)
                else residue(x, p)))}
        while cur:
            lead = min(cur)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = cur
                break
            g = gcd(cur[lead], piv[lead])
            a, c = cur[lead] // g, piv[lead] // g
            if c != 1:
                cur = {k: c * x for k, x in cur.items()}
            for k, x in piv.items():
                s = cur.get(k, 0) - a * x
                if p is not None:
                    s %= p
                if s:
                    cur[k] = s
                else:
                    del cur[k]
            if c != 1 and p is None:
                g = gcd(*cur.values())
                cur = {k: x // g for k, x in cur.items()}
            elif c != 1:
                cur = {k: r for k, x in cur.items() if (r := x % p)}
    return pivots


class QuotientBasis:
    """Cycles modulo boundaries: representatives of the quotient and a
    reduction map expressing any cycle in them modulo boundaries.

    One ``EchelonSolver`` pass selects both: the boundaries are added, then
    the cycles, and the rows that raise the rank are ``boundary_basis`` and
    ``representatives``.  The boundaries lie in the cycle space exactly when
    that pass has the rank of the cycles alone.  Reductions read a vector in
    the row space of [boundary_basis | representatives] (``coordinates``);
    that solver is built on the first reduction and kept on the basis
    (``_solver``), since most bases only answer ``dim``."""

    def __init__(self, field: Field, ambient_dim: int,
                 cycles: list[dict], boundaries: list[dict]):
        self.field = field
        self.ambient_dim = ambient_dim
        sel = EchelonSolver(field, ambient_dim, [])
        self.boundary_basis = [v for v in boundaries if sel.add(v)]
        self.representatives = [v for v in cycles if sel.add(v)]
        if self.boundary_basis and \
                sel.rank > len(lead_columns(cycles, field)):
            raise InvalidInput("boundaries escape the cycle space")
        self._solver = None

    @property
    def dim(self) -> int:
        return len(self.representatives)

    def _coordinates(self, v: dict) -> tuple[dict, dict]:
        """(coordinates in the representatives, residue off the cycles)."""
        if self._solver is None:
            self._solver = EchelonSolver(
                self.field, self.ambient_dim,
                self.boundary_basis + self.representatives)
        x, r = self._solver.coordinates(v)
        nb = len(self.boundary_basis)
        return {i - nb: y for i, y in x.items() if i >= nb}, r

    def reduce(self, v: dict) -> dict:
        """Coordinates of the class of v in the representatives."""
        coords, residue = self._coordinates(v)
        if residue:
            raise InvalidInput("vector is not in the cycle space")
        return coords

    def reduce_generic(self, v: dict) -> dict:
        """Reduction for vectors with entries from any commutative algebra
        over the field (used with parameter polynomials).  Consistency is the
        caller's concern: the residue of v off the cycle space is returned
        under keys ('obs', column)."""
        coords, residue = self._coordinates(v)
        coords.update((("obs", k), y) for k, y in residue.items())
        return coords

    def project(self, v: dict) -> dict:
        """Canonical representative of the class of v (idempotent)."""
        coords = self.reduce(v)
        out: dict = {}
        for j, c in coords.items():
            axpy(out, c, self.representatives[j].items())
        return out
