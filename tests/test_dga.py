import itertools
import random
from fractions import Fraction

import pytest

from masseykit import dga as dga_module
from masseykit.dga import CohomologyClass, MultiDegree, cup
from masseykit.errors import InvalidInput, MixedDegree, WindowTooSmall
from masseykit.facerings import RKAlgebra, rk_cohomology
from masseykit.fields import GF, QQ
from masseykit.generators import polygon, qn
from masseykit.lie import (CEAlgebra, GradedLie, ce_window, goncharova_table,
                           m0, witt_plus)
from masseykit.linalg import EchelonSolver, QuotientBasis, axpy, rank
from masseykit.massey import MasseyEngine, pc_evaluate
from masseykit.monomial import KoszulAlgebra, MonomialQuotient, anr
from masseykit.params import Poly
from masseykit.simplicial import (SimplicialComplex, from_facets,
                                  hochster_table)

from oracles import sparse_mul, transpose
from sweeps import random_complex


def test_bar_signs():
    dga = ce_window(m0(8), 3, 8)
    one_form = dga.one_form(3)
    assert dga.bar(one_form) == one_form
    two_form = {(2, 3): Fraction(1)}
    assert dga.bar(two_form) == {(2, 3): Fraction(-1)}


def test_bar_involution_random():
    rng = random.Random(13)
    dga = ce_window(m0(9), 3, 9)
    monos = [m for q in (1, 2, 3) for w in range(1, 9)
             for m in dga.basis(dga.deg(q, w))]
    for _ in range(20):
        q = rng.choice((1, 2, 3))
        pool = [m for m in monos if len(m) == q]
        c = {m: Fraction(rng.randint(-3, 3)) for m in rng.sample(pool, 2)}
        c = {m: v for m, v in c.items() if v != 0}
        assert dga.bar(dga.bar(c)) == c


def test_bar_rejects_mixed_degree():
    dga = ce_window(m0(8), 3, 8)
    mixed = {(3,): Fraction(1), (2, 3): Fraction(1)}
    with pytest.raises(MixedDegree):
        dga.bar(mixed)


def test_multidegree_hashes_and_prints_as_its_fields():
    """Set and dict orders and the ``str`` signatures of sampled classes
    read these."""
    deg = MultiDegree(2, (0, 1))
    assert hash(deg) == hash((2, (0, 1)))
    assert repr(deg) == "MultiDegree(q=2, aux=(0, 1))"
    assert deg + MultiDegree(1, (1, 1)) == MultiDegree(3, (1, 2))
    for got in (deg + deg, deg.shift(1), deg.d_target(), deg.d_source()):
        assert type(got) is MultiDegree
    assert (deg.shift(-1), deg.d_target()) == ((1, (0, 1)), (3, (0, 1)))


@pytest.mark.parametrize("make, deg", [
    (lambda: ce_window(witt_plus(8), 3, 8), MultiDegree(1, (9,))),
    (lambda: RKAlgebra(polygon(6), QQ), MultiDegree(2, (1, -1, 0, 0, 0, 0)))],
    ids=["ce-weight", "rk-negative-aux"])
def test_basis_outside_the_window_raises_every_time(make, deg):
    """The window check runs when a basis is built; a degree that fails it
    is never cached."""
    dga = make()
    for _ in range(2):
        with pytest.raises(WindowTooSmall):
            dga.basis(deg)


def test_cup_with_zero():
    dga = ce_window(witt_plus(8), 3, 8)
    x = dga.class_of(dga.one_form(1))
    zero = CohomologyClass(dga, dga.deg(1, 2), {})
    assert cup(x, zero).is_zero()
    assert cup(zero, x).is_zero()


def test_stage_solution_bidegrees():
    # <e^1, e^2, e^2> over W+: the stage solutions live in bidegrees
    # (1, 3) and (1, 4)
    dga = ce_window(witt_plus(8), 3, 8)
    e1 = dga.class_of(dga.one_form(1))
    e2 = dga.class_of(dga.one_form(2))
    fam = MasseyEngine(dga).find_defining_system([e1, e2, e2])
    conn = fam.at({})
    a12 = conn.entry(1, 2)
    assert dga.degree_of(a12) == dga.deg(1, 3)
    a23 = conn.entry(2, 3)
    if a23:
        assert dga.degree_of(a23) == dga.deg(1, 4)


def test_pair_always_defined():
    dga = ce_window(m0(8), 3, 8)
    engine = MasseyEngine(dga)
    x = dga.class_of(dga.one_form(1))
    y = dga.class_of(dga.one_form(2))
    out = engine.massey([x, y])
    assert out.defined and out.status == "strict"


# ---- rank-only cohomology dimensions ----------------------------------------

RP2_FACETS = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
              (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]
CUBE_RING = MonomialQuotient(3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)])


def assert_dim_matches_basis(make):
    """cohomology_dim on one window equals cohomology_basis(deg).dim on a
    second, fresh window, degree by degree; where the quotient basis raises
    WindowTooSmall, so must the rank path."""
    dga, ref = make(), make()
    dims = {}
    for deg in ref.window_degrees():
        try:
            want = ref.cohomology_basis(deg).dim
        except WindowTooSmall:
            with pytest.raises(WindowTooSmall):
                dga.cohomology_dim(deg)
            continue
        dims[deg] = dga.cohomology_dim(deg)
        assert dims[deg] == want, deg
    return dims


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
@pytest.mark.parametrize("lie", [witt_plus, m0], ids=["wplus", "m0"])
def test_cohomology_dim_matches_basis_ce(lie, field):
    dims = assert_dim_matches_basis(lambda: ce_window(lie(12), 3, 12, field))
    assert any(dims.values())


def test_cohomology_dim_matches_basis_rk():
    assert_dim_matches_basis(lambda: RKAlgebra(polygon(6), QQ))
    top = {}
    for field in (QQ, GF(2)):
        K = from_facets(6, RP2_FACETS)
        dims = assert_dim_matches_basis(lambda: RKAlgebra(K, field))
        # H~^1 and H~^2 of RP^2 sit at q = |I| + 2 and |I| + 3 over I = [6]
        top[field] = [dims[MultiDegree(q, (1,) * 6)] for q in (8, 9)]
    assert top == {QQ: [0, 0], GF(2): [1, 1]}


@pytest.mark.parametrize("ring", [CUBE_RING, anr(2, 2)], ids=["cube", "anr22"])
def test_cohomology_dim_matches_basis_koszul(ring):
    for field in (QQ, GF(3)):
        dims = assert_dim_matches_basis(lambda: KoszulAlgebra(ring, field))
        assert sum(dims.values()) > 1


def assert_dims_match_unswept_ranks(dga):
    """cohomology_dim, swept upward with clearing, against n - rank d_deg -
    rank d_(deg-1), both ranks taken from all of d_images, on every degree
    whose target is in the window.  Degrees are asked for highest first,
    so each run is entered at its top and must be found downward;
    ``lead_columns`` runs once per swept degree, so no run is swept twice.
    Returns how many degrees had a nonzero rank below them to clear with."""
    calls = []
    real = dga_module.lead_columns
    dga_module.lead_columns = lambda rows, f: calls.append(1) or real(rows, f)
    cleared = 0
    try:
        for deg in reversed(dga.window_degrees()):
            if not dga.in_window(deg.d_target()):
                continue
            up = rank(list(dga.d_images(deg)), dga.field)
            down = rank(list(dga.d_images(deg.d_source())), dga.field) \
                if dga.in_window(deg.d_source()) else 0
            assert dga.cohomology_dim(deg) == \
                len(dga.basis(deg)) - up - down, deg
            cleared += bool(up and down)
    finally:
        dga_module.lead_columns = real
    assert len(calls) == len(dga._hdim)
    return cleared


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
@pytest.mark.parametrize("lie", [witt_plus, m0], ids=["wplus", "m0"])
def test_d_rank_cleared_equals_full_rank_ce(lie, field):
    assert assert_dims_match_unswept_ranks(ce_window(lie(12), 3, 12, field))


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
def test_d_rank_cleared_equals_full_rank_ce_weight_zero(field):
    """e2 of weight 0 acts by the grading on e3, e4, e1 (weights 1, 2, 3),
    and [e3, e4] = e1; the weights fall and rise with the index."""
    lie = GradedLie("custom", {1: 3, 2: 0, 3: 1, 4: 2},
                    {(1, 2): [(1, -3)], (2, 3): [(3, 1)], (2, 4): [(4, 2)],
                     (3, 4): [(1, 1)]}, 6)
    assert lie.jacobi_failure() is None
    assert assert_dims_match_unswept_ranks(ce_window(lie, 3, 6, field))


def test_d_rank_cleared_equals_full_rank_rk():
    for field in (QQ, GF(2)):
        for K in (polygon(6), from_facets(6, RP2_FACETS)):
            assert assert_dims_match_unswept_ranks(RKAlgebra(K, field))


def test_rk_cohomology_dim_equals_the_support_sweep():
    """The cached route (``DGAlgebra.cohomology_dim``, which finds each
    degree's run) gives, on every window degree of R(K), the entry of
    ``rk_cohomology``'s per-support sweep."""
    rng = random.Random(2323)
    nonzero = 0
    for _ in range(16):
        m = rng.randint(0, 6)
        K = SimplicialComplex(m, random_complex(m, rng))
        for field in (QQ, GF(2), GF(3)):
            alg = RKAlgebra(K, field)
            table = rk_cohomology(K, field).entries
            dims = {}
            for deg in alg.window_degrees():
                I = tuple(i + 1 for i, v in enumerate(deg.aux) if v)
                dims[(2 * len(I) - deg.q, I)] = alg.cohomology_dim(deg)
            assert {k: d for k, d in dims.items() if d} == table
            nonzero += len(table)
    assert nonzero > 100


def test_d_rank_cleared_equals_full_rank_koszul():
    # the rings of the koszul bench; only some have ranks to clear with
    cleared = 0
    for ring in (CUBE_RING, anr(2, 2), anr(3, 2), anr(2, 3)):
        for field in (QQ, GF(3)):
            cleared += assert_dims_match_unswept_ranks(
                KoszulAlgebra(ring, field))
    assert cleared


D_WINDOWS = {
    "wplus": lambda field: ce_window(witt_plus(10), 3, 10, field),
    "m0": lambda field: ce_window(m0(10), 3, 10, field),
    "hexagon": lambda field: RKAlgebra(polygon(6), field),
    "q3": lambda field: RKAlgebra(qn(3), field),
    "cube-ring": lambda field: KoszulAlgebra(CUBE_RING, field),
}


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
@pytest.mark.parametrize("window", list(D_WINDOWS))
def test_d_solver_reads_cycles_and_solves_on_the_image_rows(window, field):
    """The d-solver eliminates the images d b_j, one row per source, at
    every degree whose target is in the window.  Its null rows are the
    ``kernel_basis`` of a reference solver on the transposed images (d as
    target rows, keyed by source).  For b in im d, and for b plus a unit
    vector off im d, ``coordinates`` gives (x, r) with d x = b - r, r empty
    exactly on im d, x on the reference's pivot sources only, and the
    values of r at the free targets equal y . b for the reference's null
    rows y, in order."""
    dga = D_WINDOWS[window](field)
    rng = random.Random(f"d-solver:{window}:{field}")
    degrees = off_image = 0
    for deg in dga.window_degrees():
        if not dga.in_window(deg.d_target()):
            continue
        n_src = len(dga.basis(deg))
        rows = transpose(list(dga.d_images(deg)),
                         len(dga.basis(deg.d_target())))
        ref = EchelonSolver(field, n_src, rows)
        solver = dga.d_solver(deg)
        assert dga.cycles(deg) == ref.kernel_basis(), deg
        b = sparse_mul(rows, {j: field.of(rng.randint(-2, 2))
                              for j in range(n_src)})
        vecs = [b]
        if solver.free_cols:
            vecs.append(axpy(dict(b), 1, [(rng.choice(solver.free_cols),
                                           field.one())]))
        for vec in vecs:
            x, r = solver.coordinates(vec)
            assert sparse_mul(rows, x) == axpy(dict(vec), -1, r.items())
            assert set(x) <= set(ref.pivot_cols)
            assert (vec is b) == (not r)
            assert [r.get(k, 0) for k in solver.free_cols] == \
                [sum(c * vec.get(i, 0) for i, c in y.items())
                 for y in ref.null_ts]
        degrees += 1
        off_image += len(vecs) - 1
    assert degrees and off_image


def test_dimension_queries_apply_d_to_kept_sources_only(monkeypatch):
    """Goncharova 3/30 calls d_mono once per source that clearing keeps:
    |basis(q, w)| - rank d_(q-1, w) summed over the table, each rank taken
    from all of d_images on a second window."""
    calls = []
    real = CEAlgebra.d_mono
    monkeypatch.setattr(CEAlgebra, "d_mono", lambda self, mono:
                        calls.append(mono) or real(self, mono))
    goncharova_table(3, 30)
    assert len(calls) == len(set(calls))
    monkeypatch.setattr(CEAlgebra, "d_mono", real)
    ref = ce_window(witt_plus(30), 3, 30)
    kept = sum(len(ref.basis(ref.deg(q, w))) -
               rank(list(ref.d_images(ref.deg(q - 1, w))), QQ)
               for q in range(1, 4) for w in range(1, 31))
    assert len(calls) == kept == 607


def test_dimension_queries_build_no_quotient_basis_or_solver(monkeypatch):
    built = {QuotientBasis: 0, EchelonSolver: 0}
    for cls in built:
        def counting(self, *args, _cls=cls, _init=cls.__init__):
            built[_cls] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    assert goncharova_table(3, 12)[(1, 1)] == 1
    K = from_facets(6, RP2_FACETS)
    assert rk_cohomology(K, GF(2)).entries == hochster_table(K, GF(2)).entries
    assert KoszulAlgebra(CUBE_RING, QQ).betti()[1] == 4
    assert built == {QuotientBasis: 0, EchelonSolver: 0}
    dga = ce_window(witt_plus(8), 3, 8)
    dga.cohomology_basis(dga.deg(1, 1))
    assert built == {QuotientBasis: 1, EchelonSolver: 2}


def _random_poly(rng, n_vars):
    """A seeded polynomial of degree <= 2 in t0..t(n_vars - 1)."""
    monos = [()] + [(v,) for v in range(n_vars)] + \
        [(u, v) for u in range(n_vars) for v in range(u, n_vars)]
    return Poly({m: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                 for m in rng.sample(monos, 3)})


def test_coords_commutes_with_evaluation():
    """A Poly-valued cocycle on two weights of a CE window: Poly multiples
    of the representatives plus Poly multiples of coboundaries.  coords
    reads the representative coefficients and nothing of the coboundaries,
    and evaluating its coordinates at a point gives the coordinates of the
    cocycle evaluated there."""
    rng = random.Random(1919)
    dga = ce_window(witt_plus(12), 3, 12)
    cochain: dict = {}
    want: dict = {}
    for w in (5, 7):
        deg = dga.deg(2, w)
        reps = dga.cohomology_basis(deg).representatives
        assert reps
        for j, rep in enumerate(reps):
            p = want[(deg, j)] = _random_poly(rng, 3)
            axpy(cochain, 1, ((m, p * c)
                              for m, c in dga.from_vector(rep, deg).items()))
        for mono in dga.basis(dga.deg(1, w)):
            p = _random_poly(rng, 3)
            axpy(cochain, 1, ((m, p * c)
                              for m, c in dga.d({mono: Fraction(1)}).items()))
    got = dga.coords(cochain)
    assert got == {k: p for k, p in want.items() if not p.is_zero()}
    for _ in range(8):
        point = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for v in range(3)}
        evaluated = {k: x for k, p in got.items()
                     if (x := p.evaluate(point, QQ)) != 0}
        assert evaluated == dga.coords(pc_evaluate(cochain, point, QQ))


def test_coords_rejects_a_cochain_off_the_cycles():
    dga = ce_window(witt_plus(8), 3, 8)
    e3 = dga.one_form(3)
    assert dga.d(e3)
    with pytest.raises(InvalidInput):
        dga.coords(e3)
    with pytest.raises(InvalidInput):
        dga.coords({m: Poly.var(0, c) for m, c in e3.items()})


# ---- tables of the monomial hooks -------------------------------------------

TABLE_WINDOWS = {
    "wplus": lambda: ce_window(witt_plus(12), 3, 12),
    "m0": lambda: ce_window(m0(12), 3, 12),
    "hexagon": lambda: RKAlgebra(polygon(6), QQ),
    "koszul": lambda: KoszulAlgebra(CUBE_RING, GF(3)),
}


def _kept(out):
    return {m: c for m, c in out.items() if c != 0}


def _hook_d(dga, cochain):
    out: dict = {}
    for m, c in cochain.items():
        for m2, c2 in dga.d_mono(m):
            out[m2] = out.get(m2, 0) + c * c2
    return _kept(out)


def _hook_wedge(dga, u, v):
    out: dict = {}
    for m1, c1 in u.items():
        for m2, c2 in v.items():
            for m, sign in dga.mul_mono(m1, m2):
                out[m] = out.get(m, 0) + c1 * c2 * sign
    return _kept(out)


def _hook_bar(dga, cochain):
    return {m: c if dga.degree_of_mono(m).q % 2 else -c
            for m, c in cochain.items()}


def _hook_components(dga, cochain):
    out: dict = {}
    for m, c in cochain.items():
        out.setdefault(dga.degree_of_mono(m), {})[m] = c
    return out


def _or_window_too_small(f, *args):
    try:
        return f(*args)
    except WindowTooSmall:
        return WindowTooSmall


@pytest.mark.parametrize("coeff", ["scalar", "poly"])
@pytest.mark.parametrize("name", sorted(TABLE_WINDOWS))
def test_tables_give_what_the_hooks_give(name, coeff):
    """d, wedge, bar and components of seeded random cochains, each asked
    twice (the second time from the window's tables), equal a reference
    built from the monomial hooks alone; a product that leaves a CE window
    raises ``WindowTooSmall`` on both sides."""
    rng = random.Random(f"tables:{name}:{coeff}")
    dga = TABLE_WINDOWS[name]()
    of = dga.field.of
    by_q: dict = {}
    for deg in dga.window_degrees():
        by_q.setdefault(deg.q, []).extend(dga.basis(deg))
    qs = sorted(q for q, monos in by_q.items() if monos)

    def draw():
        c = of(rng.randint(-3, 3))
        if coeff == "scalar":
            return c
        return Poly({(): c, (rng.randrange(2),): of(rng.randint(1, 3))})

    def cochain():
        pool = by_q[rng.choice(qs)]
        return {m: c for m in rng.sample(pool, min(4, len(pool)))
                if (c := draw()) != 0}

    raised = 0
    for _ in range(40):
        u, v = cochain(), cochain()
        want = (_hook_d(dga, u), _or_window_too_small(_hook_wedge, dga, u, v),
                _hook_bar(dga, u), _hook_components(dga, u))
        raised += want[1] is WindowTooSmall
        for _ in range(2):
            assert (dga.d(u), _or_window_too_small(dga.wedge, u, v),
                    dga.bar(u), dga.components(u)) == want
    assert dga._dtab and dga._multab and dga._degtab
    assert raised or name not in ("wplus", "m0")


def test_a_product_off_the_window_raises_every_time_and_is_not_stored(
        monkeypatch):
    calls = []
    real = CEAlgebra.mul_mono
    monkeypatch.setattr(CEAlgebra, "mul_mono", lambda self, m1, m2:
                        calls.append((m1, m2)) or real(self, m1, m2))
    dga = ce_window(witt_plus(8), 3, 8)
    e3, e6 = dga.one_form(3), dga.one_form(6)
    for _ in range(2):
        with pytest.raises(WindowTooSmall):
            dga.wedge(e3, e6)
    assert calls == [((3,), (6,))] * 2
    assert not dga._multab


def test_windows_of_one_algebra_keep_their_own_tables():
    """The product e4 e6 (weight 10) lies in a window of weight 12, not in
    one of weight 8; asked in either order, each window answers for
    itself."""
    g = witt_plus(12)
    for order in (1, -1):
        small, big = ce_window(g, 3, 8), ce_window(g, 3, 12)
        u, v = big.one_form(4), big.one_form(6)
        for dga in (small, big)[::order]:
            if dga is big:
                assert dga.wedge(u, v) == {(4, 6): 1}
            else:
                with pytest.raises(WindowTooSmall):
                    dga.wedge(u, v)
        assert not small._multab
        assert list(big._multab) == [((4,), (6,))]


def test_word_search_asks_each_hook_once_per_argument(monkeypatch):
    """On the W+ words of length 4 at budget 8, ``mul_mono`` and
    ``degree_of_mono`` are called at most once per argument on the window:
    every repeat is read from its tables.  The degree that CE ``mul_mono``
    computes for its own window check is the hook's business and is not
    counted."""
    calls = {"mul_mono": [], "degree_of_mono": []}
    inside = []
    mul, degree = CEAlgebra.mul_mono, CEAlgebra.degree_of_mono

    def counting_mul(self, m1, m2):
        calls["mul_mono"].append((m1, m2))
        inside.append(True)
        try:
            return mul(self, m1, m2)
        finally:
            inside.pop()

    def counting_degree(self, mono):
        if not inside:
            calls["degree_of_mono"].append(mono)
        return degree(self, mono)
    monkeypatch.setattr(CEAlgebra, "mul_mono", counting_mul)
    monkeypatch.setattr(CEAlgebra, "degree_of_mono", counting_degree)
    dga = ce_window(witt_plus(14), 3, 14)
    gens = (dga.class_of(dga.one_form(1)), dga.class_of(dga.one_form(2)))
    engine = MasseyEngine(dga, budget=8, homogeneous_aux=False)
    for word in itertools.product(gens, repeat=4):
        engine.massey(list(word))
    for name, args in calls.items():
        assert args and len(args) == len(set(args)), name
