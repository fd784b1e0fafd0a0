import random
from fractions import Fraction

import pytest

from masseykit.errors import InvalidInput
from masseykit.fields import GF, QQ
from masseykit.linalg import (EchelonSolver, QuotientBasis, axpy,
                              extend_pivots, lead_columns, rank)
from masseykit.params import Poly

from oracles import (brute_force_solutions_fp, dense_rank, sparse_mul,
                     transpose)


def test_axpy_scalars_and_polys_drop_zero_sums():
    out = {0: Fraction(1), 1: Fraction(2)}
    assert axpy(out, Fraction(-1, 2), {1: Fraction(4), 2: Fraction(1)}.items()) \
        is out
    assert out == {0: Fraction(1), 2: Fraction(-1, 2)}
    assert axpy(out, 0, {0: Fraction(5)}.items()) == out
    t0 = Poly.var(0, Fraction(1))
    pc = {"a": t0, "b": Poly.const(Fraction(3))}
    axpy(pc, -1, [("a", t0), ("c", t0 * t0)])
    assert pc == {"b": Poly.const(Fraction(3)), "c": -(t0 * t0)}


def test_solve_identity():
    solver = EchelonSolver(QQ, 3, [{i: Fraction(1)} for i in range(3)])
    assert solver.coordinates({0: Fraction(1)}) == ({0: Fraction(1)}, {})
    assert solver.null_ts == []


def test_solve_zero_matrix():
    # M = 0 (2 x 2), given by the rows of its transpose
    solver = EchelonSolver(QQ, 2, [{}, {}])
    assert solver.coordinates({}) == ({}, {})
    assert solver.null_ts == [{0: 1}, {1: 1}]


def test_solve_inconsistent():
    # M = (1 0)^T: x M^T = (0 1) has no solution, and the residue says so
    solver = EchelonSolver(QQ, 2, transpose([{0: Fraction(1)}, {}], 1))
    assert solver.coordinates({1: Fraction(1)}) == ({}, {1: Fraction(1)})
    assert solver.coordinates({0: Fraction(2), 1: Fraction(1)}) == \
        ({0: Fraction(2)}, {1: Fraction(1)})


def test_solution_invariants_random_rational():
    """M x = b through the solver of M's transpose: the x of
    ``coordinates`` solves it, the null rows span the kernel of M, and
    rank + nullity is the column count."""
    rng = random.Random(7)
    for _ in range(25):
        n_rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [{c: x for c in range(cols) if rng.random() < 0.5
                 and (x := Fraction(rng.randint(-3, 3)))}
                for _ in range(n_rows)]
        x0 = {c: Fraction(rng.randint(-2, 2)) for c in range(cols)}
        b = sparse_mul(rows, x0)
        solver = EchelonSolver(QQ, n_rows, transpose(rows, cols))
        x, r = solver.coordinates(b)
        assert r == {}
        assert sparse_mul(rows, x) == b
        kernel = solver.null_ts
        for v in kernel:
            assert sparse_mul(rows, v) == {}
        assert rank(rows, QQ) + len(kernel) == cols


def test_echelon_f5_matches_exhaustive_enumeration():
    p = 5
    field = GF(p)
    rng = random.Random(20240)
    rows = [[rng.randrange(p) for _ in range(8)] for _ in range(6)]
    x0 = [rng.randrange(p) for _ in range(8)]
    b = [sum(rows[r][c] * x0[c] for c in range(8)) % p for r in range(6)]
    count, witness = brute_force_solutions_fp(rows, b, p, 8)
    m = [{c: field.of(v) for c, v in enumerate(row) if v % p}
         for row in rows]
    rhs = {r: field.of(v) for r, v in enumerate(b) if v % p}
    solver = EchelonSolver(field, 6, transpose(m, 8))
    x, r = solver.coordinates(rhs)
    assert r == {}
    kernel = solver.null_ts
    # solution count must be p^(kernel dim), and x must solve
    assert count == p ** len(kernel)
    assert sparse_mul(m, x) == rhs
    for v in kernel:
        assert sparse_mul(m, v) == {}
    assert witness is not None


def test_rank_zero_and_identity():
    assert rank([{} for _ in range(4)], QQ) == 0
    ident = [{i: Fraction(2)} for i in range(5)]
    assert rank(ident, QQ) == 5


def test_rank_f7_matches_dense_oracle():
    p = 7
    field = GF(p)
    rng = random.Random(99)
    for _ in range(10):
        rows = [[rng.randrange(p) for _ in range(10)] for _ in range(10)]
        m = [{c: field.of(v) for c, v in enumerate(row) if v % p}
             for row in rows]
        assert rank(m, field) == dense_rank(rows, q=p)


def test_rank_q_rational_entries_match_dense_oracle():
    # non-integer entries: the Q kernel clears each row's denominators
    rng = random.Random(4242)

    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 9))

    deficient = 0
    for _ in range(40):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
        base = [[entry() for _ in range(n_cols)]
                for _ in range(rng.randint(1, 3))]
        rows = []
        for _ in range(n_rows):
            if rng.random() < 0.6:
                # rational combinations of a few base rows lower the rank
                coef = [entry() for _ in base]
                rows.append([sum(c * b[j] for c, b in zip(coef, base))
                             for j in range(n_cols)])
            else:
                rows.append([entry() if rng.random() < 0.6 else Fraction(0)
                             for _ in range(n_cols)])
        m = [{c: v for c, v in enumerate(row) if v} for row in rows]
        want = dense_rank(rows)
        deficient += want < min(n_rows, n_cols)
        assert rank(m, QQ) == want
        # stored zeros are dropped on the way in
        assert rank([dict(enumerate(row)) for row in rows], QQ) == want
    assert deficient >= 10


def test_quotient_basic():
    one = Fraction(1)
    cycles = [{0: one}, {1: one}]
    boundaries = [{0: one, 1: one}]
    qb = QuotientBasis(QQ, 2, cycles, boundaries)
    assert qb.dim == 1
    assert qb.reduce({0: one, 1: one}) == {}
    # reduce is idempotent as a projection
    proj = qb.project({1: one})
    assert qb.project(proj) == proj


def test_quotient_boundaries_equal_cycles():
    one = Fraction(1)
    cycles = [{0: one}, {1: one}]
    qb = QuotientBasis(QQ, 2, cycles, list(cycles))
    assert qb.dim == 0


def test_quotient_rejects_escaping_boundaries():
    one = Fraction(1)
    with pytest.raises(InvalidInput):
        QuotientBasis(QQ, 2, [{0: one}], [{1: one}])


def test_quotient_dims_f3_match_rank_oracle():
    p = 3
    field = GF(p)
    rng = random.Random(5)
    for _ in range(20):
        dim = rng.randint(2, 6)
        n_cyc = rng.randint(1, dim)
        cyc_rows = [[rng.randrange(p) for _ in range(dim)] for _ in range(n_cyc)]
        # boundaries: random combinations of the cycles
        n_bnd = rng.randint(0, n_cyc)
        bnd_rows = []
        for _ in range(n_bnd):
            coef = [rng.randrange(p) for _ in range(n_cyc)]
            bnd_rows.append([sum(coef[i] * cyc_rows[i][c] for i in range(n_cyc)) % p
                             for c in range(dim)])
        cycles = [{c: field.of(v) for c, v in enumerate(r) if v % p}
                  for r in cyc_rows]
        boundaries = [{c: field.of(v) for c, v in enumerate(r) if v % p}
                      for r in bnd_rows]
        boundaries = [b for b in boundaries if b]
        qb = QuotientBasis(field, dim, cycles, boundaries)
        assert qb.dim == dense_rank(cyc_rows, q=p) - dense_rank(bnd_rows, q=p)


def _dense(vectors, field, dim):
    """Dense rows for the rank oracle: residues over GF(p)."""
    return [[getattr(x, "v", x) for x in (v.get(c, 0) for c in range(dim))]
            for v in vectors]


@pytest.mark.parametrize("field", (QQ, GF(2), GF(5)), ids=("q", "fp2", "fp5"))
def test_quotient_basis_matches_rank_oracle(field):
    """dim is rank(cycles) - rank(boundaries); v minus its reduction in the
    representatives lies in the span of the boundaries; reduce_generic of a
    Poly-valued cycle, evaluated at random points, is reduce of the
    evaluated cycle, and a Poly-valued vector off the cycles has a residue.
    Over Q the entries mix ints and Fractions."""
    rng = random.Random(31)
    q = field.p or 0

    def scalar():
        x = rng.randint(-3, 3)
        if field.p is None and rng.random() < 0.4:
            x = Fraction(x, rng.randint(2, 5))
        return field.of(x)

    def combination(vectors):
        v: dict = {}
        for w in vectors:
            axpy(v, scalar(), w.items())
        return v

    for _ in range(40):
        dim = rng.randint(1, 7)
        cycles = [{c: x for c in range(dim)
                   if rng.random() < 0.6 and (x := scalar()) != 0}
                  for _ in range(rng.randint(0, dim))]
        cycles = [v for v in cycles if v]
        boundaries = [b for _ in range(rng.randint(0, len(cycles)))
                      if (b := combination(cycles))]
        qb = QuotientBasis(field, dim, cycles, boundaries)
        bnd = _dense(boundaries, field, dim)
        rank_bnd = dense_rank(bnd, q)
        assert qb.dim == dense_rank(_dense(cycles, field, dim), q) - rank_bnd
        for _ in range(3):
            v = combination(cycles)
            diff = dict(v)
            for j, c in qb.reduce(v).items():
                axpy(diff, -c, qb.representatives[j].items())
            assert dense_rank(bnd + _dense([diff], field, dim), q) == rank_bnd
        # v(t) = w0 + t0 w1 + t1 w2 with every w_k a cycle
        ws = [combination(cycles) for _ in range(3)]
        ts = [Poly.const(field.one())] + [Poly.var(k, field.one())
                                          for k in range(2)]
        vp: dict = {}
        for t, w in zip(ts, ws):
            for i, x in w.items():
                vp[i] = vp.get(i, Poly()) + t * x
        vp = {i: p for i, p in vp.items() if p != 0}
        red = qb.reduce_generic(vp)
        assert all(isinstance(k, int) and isinstance(p, Poly)
                   for k, p in red.items())
        for _ in range(3):
            point = {0: scalar(), 1: scalar()}
            got = {j: y for j, p in red.items()
                   if (y := p.evaluate(point, field)) != 0}
            at = {i: y for i, p in vp.items()
                  if (y := p.evaluate(point, field)) != 0}
            assert got == qb.reduce(at)
        off = [c for c in range(dim) if dense_rank(
            _dense(cycles + [{c: field.one()}], field, dim), q) > rank_bnd
            + qb.dim]
        if off:
            e = {off[0]: Poly.var(0, field.one())}
            assert any(isinstance(k, tuple) and k[0] == "obs"
                       for k in qb.reduce_generic(e))
            with pytest.raises(InvalidInput):
                qb.reduce({off[0]: field.one()})


def test_echelon_deterministic():
    field = QQ
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)},
            {1: Fraction(1), 2: Fraction(1)}]
    s1 = EchelonSolver(field, 3, [dict(r) for r in rows])
    s2 = EchelonSolver(field, 3, [dict(r) for r in rows])
    assert s1.pivot_cols == s2.pivot_cols
    assert s1.kernel_basis() == s2.kernel_basis()


def _kernel_basis_reference(solver):
    """The per-free-column loop: one lookup per free column and pivot row."""
    one = solver.field.one()
    out = []
    for f in solver.free_cols:
        v = {f: one}
        for pcol, erow, _t in solver.piv:
            c = erow.get(f)
            if c is not None:
                v[pcol] = -c
        out.append(v)
    return out


@pytest.mark.parametrize("field", (QQ, GF(2), GF(5)), ids=("q", "fp2", "fp5"))
def test_kernel_basis_and_leads_match_references(field):
    """kernel_basis equals the per-column loop, key order included, and the
    fraction-free lead_columns equals the pivot columns of the elimination.
    Adding the rows one at a time stores the same pivot and null rows, and
    ``add`` is True exactly when the rank grows."""
    rng = random.Random(11)
    for _ in range(150):
        n_rows, n_cols = rng.randint(0, 7), rng.randint(1, 9)
        density = rng.choice((0.2, 0.5, 0.8))
        rows = [{c: x for c in range(n_cols) if rng.random() < density
                 and (x := field.of(rng.randint(-3, 3))) != 0}
                for _ in range(n_rows)]
        solver = EchelonSolver(field, n_cols, rows)
        got = solver.kernel_basis()
        want = _kernel_basis_reference(solver)
        assert got == want
        assert [list(v) for v in got] == [list(v) for v in want]
        assert lead_columns(rows, field) == set(solver.pivot_cols)
        inc = EchelonSolver(field, n_cols, [])
        for row in rows:
            before = inc.rank
            assert inc.add(row) == (inc.rank == before + 1)
            assert inc.rank - before in (0, 1)
        assert inc.piv == solver.piv
        assert inc.null_ts == solver.null_ts


def test_lead_columns_mixes_int_and_fraction_rows():
    """The int-row fast path and the denominator path meet in one
    elimination: same lead set as the all-Fraction input, and the rank of
    the dense reference."""
    rng = random.Random(7)
    mixed = 0
    for _ in range(150):
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 9)
        rows = []
        for _ in range(n_rows):
            if rng.random() < 0.5:
                row = [rng.randint(-3, 3) for _ in range(n_cols)]
            else:
                row = [Fraction(rng.randint(-4, 4), rng.randint(2, 5))
                       for _ in range(n_cols)]
            rows.append({c: x for c, x in enumerate(row)
                         if x and rng.random() < 0.6})
        if n_rows > 1:
            rows.append({c: 2 * x for c, x in rows[0].items()})
        kinds = {type(x) for r in rows for x in r.values()}
        mixed += kinds == {int, Fraction}
        as_fractions = [{c: Fraction(x) for c, x in r.items()} for r in rows]
        leads = lead_columns(rows, QQ)
        assert leads == lead_columns(as_fractions, QQ)
        dense = [[r.get(c, 0) for c in range(n_cols)] for r in rows]
        assert len(leads) == dense_rank(dense)
    assert mixed >= 30


@pytest.mark.parametrize("field", (QQ, GF(2), GF(3)), ids=("q", "fp2", "fp3"))
def test_extend_pivots_resumes_without_touching_its_start(field):
    """Extending the pivots of rows A by rows B gives the leads of A + B,
    over Q with int and ``Fraction`` rows alike, and leaves the start dict
    and every row stored in it as they were, so two children of one state
    do not see each other."""
    rng = random.Random(19)
    for _ in range(150):
        n_cols = rng.randint(1, 9)

        def rows(n):
            out = []
            for _ in range(n):
                row = {}
                for c in range(n_cols):
                    if rng.random() < 0.5:
                        x = rng.randint(-3, 3)
                        if field is QQ and rng.random() < 0.5:
                            x = Fraction(x, rng.randint(2, 5))
                        if x:
                            row[c] = x if field is QQ else field.of(x)
                out.append(row)
            return out
        A, B, C = rows(rng.randint(0, 5)), rows(rng.randint(0, 5)), \
            rows(rng.randint(0, 5))
        start = extend_pivots({}, A, field)
        assert set(start) == lead_columns(A, field)
        frozen = {k: dict(row) for k, row in start.items()}
        got = extend_pivots(start, B, field)
        assert got is not start
        assert set(got) == lead_columns(A + B, field)
        assert set(extend_pivots(start, C, field)) == \
            lead_columns(A + C, field)
        assert start == frozen


@pytest.mark.parametrize("p", (2, 3))
def test_extend_pivots_reads_int_fraction_and_fp_rows_alike(p):
    """Over GF(p) a plain int entry is taken mod p, as its ``Fraction`` and
    ``Fp`` forms are: the three forms of one matrix give the same pivot
    dict, with every stored entry a residue in 1..p-1.  The int rows keep
    entries that vanish mod p and negative ones."""
    field = GF(p)
    rng = random.Random(1900 + p)
    for _ in range(120):
        n_cols = rng.randint(1, 8)
        ints = [{c: x for c in range(n_cols)
                 if rng.random() < 0.6 and (x := rng.randint(-6, 6))}
                for _ in range(rng.randint(0, 6))]
        fracs = [{c: Fraction(x) for c, x in r.items()} for r in ints]
        fps = [{c: field.of(x) for c, x in r.items() if x % p} for r in ints]
        got = extend_pivots({}, ints, field)
        assert got == extend_pivots({}, fracs, field) == \
            extend_pivots({}, fps, field)
        assert all(type(x) is int and 0 < x < p
                   for row in got.values() for x in row.values())
        dense = [[r.get(c, 0) % p for c in range(n_cols)] for r in ints]
        assert len(got) == dense_rank(dense, q=p)
