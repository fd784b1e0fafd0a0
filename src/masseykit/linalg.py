"""Exact sparse linear algebra over the rationals and prime fields.

Vectors are sparse dicts ``{index: scalar}`` with no stored zeros.  The
elimination is plain fraction arithmetic with a deterministic pivot rule:
rows are processed in index order and each contributes its lowest remaining
nonzero column as pivot, so repeated runs produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import gcd, lcm

from .errors import InvalidInput
from .fields import Field, Fp


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


@dataclass
class SparseMatrix:
    """Sparse matrix with entries keyed by (row, col); zero entries are not stored."""

    rows: int
    cols: int
    entries: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        for (r, c), v in list(self.entries.items()):
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise InvalidInput(f"entry ({r},{c}) out of range")
            if v == 0:
                del self.entries[(r, c)]

    @staticmethod
    def from_rows(rows: int, cols: int, row_dicts: list[dict]) -> "SparseMatrix":
        entries = {}
        for r, row in enumerate(row_dicts):
            for c, v in row.items():
                if v != 0:
                    entries[(r, c)] = v
        return SparseMatrix(rows, cols, entries)

    def row_dicts(self) -> list[dict]:
        out = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def mul_vec(self, x: dict) -> dict:
        return axpy({}, 1, ((r, v * x[c])
                            for (r, c), v in self.entries.items() if c in x))


class EchelonSolver:
    """Gauss-Jordan elimination of a matrix given by rows, with transform tracking.

    Keeps T with T . M = E (E fully reduced), split into pivot rows and
    null rows.  The null rows test consistency of M x = b; the pivot rows
    give a particular solution and the free columns give the kernel.
    The transform rows also apply to vectors with polynomial entries, which
    is how the staged defining-system solver propagates parameters.
    """

    def __init__(self, field: Field, n_cols: int, rows: list[dict]):
        self.field = field
        self.n_cols = n_cols
        self.n_rows = len(rows)
        one = field.one()
        self.piv: list[tuple[int, dict, dict]] = []  # (pivot_col, E-row, T-row)
        self.null_ts: list[dict] = []
        piv_by_col: dict[int, tuple[int, dict, dict]] = {}
        for r_idx, row in enumerate(rows):
            cur = {c: v for c, v in row.items() if v != 0}
            t = {r_idx: one}
            # reduce against existing pivots; stored rows are fully reduced
            # (support = own pivot + free columns), so one pass suffices
            for c in sorted(set(cur) & piv_by_col.keys()):
                coef = cur.get(c)
                if coef is None:
                    continue
                hit = piv_by_col[c]
                axpy(cur, -coef, hit[1].items())
                axpy(t, -coef, hit[2].items())
            if not cur:
                self.null_ts.append(t)
                continue
            lead = min(cur)
            inv = field.div(one, cur[lead])
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
            piv_by_col[lead] = rec

        self.pivot_cols = [p[0] for p in self.piv]
        piv_set = set(self.pivot_cols)
        self.free_cols = [c for c in range(n_cols) if c not in piv_set]

    @property
    def rank(self) -> int:
        return len(self.piv)

    def _dot(self, t: dict, b: dict, zero):
        acc = zero
        for i, c in t.items():
            bi = b.get(i)
            if bi is not None:
                acc = acc + c * bi
        return acc

    def obstructions(self, b: dict, zero=None) -> list:
        """T_null . b; all must vanish for M x = b to be solvable."""
        z = self.field.zero() if zero is None else zero
        return [self._dot(t, b, z) for t in self.null_ts]

    def particular(self, b: dict, zero=None) -> dict:
        """One solution of M x = b with free coordinates set to zero.

        Does not test consistency; call ``obstructions`` first.
        """
        z = self.field.zero() if zero is None else zero
        out = {}
        for pcol, _erow, t in self.piv:
            y = self._dot(t, b, z)
            if y != 0:
                out[pcol] = y
        return out

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

    def in_image(self, b: dict) -> bool:
        return all(obs == 0 for obs in self.obstructions(b))


def rank(matrix, field: Field) -> int:
    """Exact rank of a ``SparseMatrix`` or of a list of sparse row dicts."""
    rows = matrix.row_dicts() if isinstance(matrix, SparseMatrix) else matrix
    return len(lead_columns(rows, field))


def lead_columns(rows: list, field: Field) -> set:
    """The leads of the span of sparse rows: every column that is the
    smallest key of some nonzero vector of the span.  The set depends on
    the span only, and its size is the rank.

    Plain ints, no transform rows: each row is cleared of denominators
    (over GF(p): taken to residues; an all-int row over Q is only copied),
    then reduced fraction-free against the pivot rows as c*row - a*pivot,
    with a and c the leading entries over their gcd (Bareiss 1968).  A
    scaled row is divided by the gcd of its entries over Q and reduced mod
    p over GF(p)."""
    p = field.p
    pivots: dict = {}  # lead column -> stored row
    for row in rows:
        if p is None and all(type(x) is int for x in row.values()):
            cur = {k: x for k, x in row.items() if x}
        elif p is None:
            den = lcm(*(x.denominator for x in row.values()))
            cur = {k: x.numerator * (den // x.denominator)
                   for k, x in row.items() if x}
        else:
            cur = {k: r for k, x in row.items() if (r := (
                x.v if isinstance(x, Fp)
                else x.numerator * pow(x.denominator, -1, p) % p))}
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
    return set(pivots)


class _SpanTracker:
    """Incremental row echelon for membership tests and independent-set selection."""

    def __init__(self, field: Field):
        self.field = field
        self.rows: dict[int, dict] = {}  # lead col -> normalized row

    def residue(self, v: dict) -> dict:
        cur = dict(v)
        while cur:
            lead = min(cur)
            row = self.rows.get(lead)
            if row is None:
                return cur
            axpy(cur, -cur[lead], row.items())
        return cur

    def contains(self, v: dict) -> bool:
        return not self.residue(v)

    def add(self, v: dict) -> bool:
        """Add v to the span; returns True when v was independent."""
        res = self.residue(v)
        if not res:
            return False
        lead = min(res)
        inv = self.field.div(self.field.one(), res[lead])
        self.rows[lead] = {c: inv * x for c, x in res.items()}
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


class QuotientBasis:
    """Basis data for cycles/boundaries: representatives of the quotient plus
    a reduction map expressing any cycle in those representatives modulo
    boundaries."""

    def __init__(self, field: Field, ambient_dim: int,
                 cycles: list[dict], boundaries: list[dict]):
        self.field = field
        self.ambient_dim = ambient_dim

        cyc_span = _SpanTracker(field)
        for v in cycles:
            cyc_span.add(v)
        bnd_span = _SpanTracker(field)
        for v in boundaries:
            if not cyc_span.contains(v):
                raise InvalidInput("boundaries escape the cycle space")
            bnd_span.add(v)

        reps: list[dict] = []
        sel = _SpanTracker(field)
        for v in boundaries:
            sel.add(v)
        for v in cycles:
            if sel.add(v):
                reps.append(v)
        self.representatives = reps
        self.boundary_basis = list(bnd_span.rows.values())
        self._n_reps = len(reps)
        self._solver_cache = None

    @property
    def _solver(self) -> EchelonSolver:
        # columns = [representatives | boundary span rows]; these are
        # independent by construction, so coordinates are unique.  Built on
        # first use: dimension queries never pay for it.
        if self._solver_cache is None:
            cols = self.representatives + self.boundary_basis
            rows_of_cols: list[dict] = [dict() for _ in range(self.ambient_dim)]
            for j, col in enumerate(cols):
                for i, v in col.items():
                    rows_of_cols[i][j] = v
            self._solver_cache = EchelonSolver(self.field, len(cols),
                                               rows_of_cols)
        return self._solver_cache

    @property
    def dim(self) -> int:
        return self._n_reps

    def reduce(self, v: dict) -> dict:
        """Coordinates of the class of v in the representatives."""
        if not self._solver.in_image(v):
            raise InvalidInput("vector is not in the cycle space")
        sol = self._solver.particular(v)
        return {j: c for j, c in sol.items() if j < self._n_reps}

    def reduce_generic(self, v: dict, zero) -> dict:
        """Reduction for vectors with entries from any commutative algebra
        over the field (used with parameter polynomials).  Consistency is the
        caller's concern: entries beyond the representative columns are
        obstructions and returned under key ('obs', j)."""
        out = {}
        for pcol, _erow, t in self._solver.piv:
            y = self._solver._dot(t, v, zero)
            if y != 0:
                if pcol < self._n_reps:
                    out[pcol] = y
                else:
                    out[("coord", pcol)] = y
        for k, t in enumerate(self._solver.null_ts):
            y = self._solver._dot(t, v, zero)
            if y != 0:
                out[("obs", k)] = y
        return out

    def project(self, v: dict) -> dict:
        """Canonical representative of the class of v (idempotent)."""
        coords = self.reduce(v)
        out: dict = {}
        for j, c in coords.items():
            axpy(out, c, self.representatives[j].items())
        return out

    def is_zero_class(self, v: dict) -> bool:
        return not self.reduce(v)
