import gc
import itertools
import random
import re
import weakref
from fractions import Fraction

import pytest

from masseykit import facerings
from masseykit.cli import _outcome_json
from masseykit.dga import MultiDegree
from masseykit.errors import (CapExceeded, InvalidInput, OverlappingSupports,
                               WindowTooSmall)
from masseykit.fields import GF, QQ, Fp
from masseykit.facerings import (RK_CAP, RKAlgebra, cup_length,
                                 generator_class, golod_test,
                                 iter_triple_massey_scan, mainlemma_check,
                                 rk_basis, rk_cohomology, rk_window,
                                 triple_massey_scan,
                                 zk_classes, zk_cup,
                                 zk_massey, ZkClass)
from masseykit.generators import cube, polygon, qn
from masseykit.massey import MasseyOutcome
from masseykit.simplicial import (SimplicialComplex, hochster_table,
                                  flag_complex, reduced_cache)


def random_complex(m, rng):
    nfs = []
    for size in (2, 3):
        for combo in itertools.combinations(range(1, m + 1), size):
            if rng.random() < (0.4 if size == 2 else 0.15):
                nfs.append(combo)
    # minimalize
    masks = {nf: set(nf) for nf in nfs}
    minimal = [nf for nf in nfs
               if not any(set(o) < set(nf) for o in nfs if o != nf)]
    return SimplicialComplex(m, minimal)


def test_rk_d_squared_and_leibniz():
    K = polygon(4)
    alg = RKAlgebra(K, QQ)
    for deg in alg.window_degrees():
        for mono in alg.basis(deg):
            assert alg.d(alg.d({mono: Fraction(1)})) == {}


def test_rk_u1v2_cocycle():
    # {1,2} a non-face: u_1 v_2 is a cocycle generating multidegree {1,2}
    K = SimplicialComplex(2, [(1, 2)])
    alg = RKAlgebra(K, QQ)
    mono = (((2,), (1,)))
    c = {mono: Fraction(1)}
    assert alg.d(c) == {}
    deg = alg.degree_of_mono(mono)
    assert alg.cohomology_basis(deg).dim == 1


def test_rk_matches_hochster_small_examples():
    for K in (polygon(4), polygon(5), cube(2),
              SimplicialComplex(3, [(1, 2, 3)])):
        for field in (QQ, GF(2)):
            t1 = hochster_table(K, field)
            t2 = rk_cohomology(K, field)
            assert t1.entries == t2.entries, K.minimal_nonfaces


def test_rk_matches_hochster_random():
    """Up to m = 7, the range in which ``betti`` runs the comparison."""
    rng = random.Random(123)
    sizes = [rng.randint(3, 6) for _ in range(25)] + [7] * 6
    for m in sizes:
        K = random_complex(m, rng)
        for field in (QQ, GF(2), GF(3)):
            t1 = hochster_table(K, field)
            t2 = rk_cohomology(K, field)
            assert t1.entries == t2.entries, K.minimal_nonfaces


def _rk_product(K, m1, m2):
    """(sigma1, J1) * (sigma2, J2): zero unless the supports are disjoint
    and sigma1 + sigma2 is a face, else (sigma1 + sigma2, J1 + J2), both
    sorted, with sign (-1)^#{(a, b) : a in J1, b in J2, a > b}."""
    (s1, J1), (s2, J2) = m1, m2
    sigma = tuple(sorted(s1 + s2))
    if set(s1 + J1) & set(s2 + J2) or not K.is_face(sigma):
        return []
    inv = sum(1 for a in J1 for b in J2 if a > b)
    return [((sigma, tuple(sorted(J1 + J2))), (-1) ** inv)]


def test_rk_basis_and_d_mono_match_their_plain_definitions():
    """Per degree (q, S): the sorted pairs (sigma, S minus sigma) over the
    faces sigma of q - |S| vertices inside S, from the window and from the
    per-support builder ``rk_basis`` alike, and d (sigma, J) as the
    signed sum over j in J of (sigma + j sorted, J minus j) for each face
    sigma + j; on every window degree, one degree above, and degrees with
    an aux entry 2 (the zero space) or a negative one (outside).  The
    product of every pair of basis monomials of two window degrees is the
    signed product of ``_rk_product``, its sign a residue of the field."""
    rng = random.Random(2300)
    products = 0
    for _ in range(12):
        m = rng.randint(0, 6)
        K = random_complex(m, rng)
        alg = RKAlgebra(K, GF(3))
        seen = 0
        for deg in alg.window_degrees():
            for q in (deg.q, deg.q + 1):
                S = [i + 1 for i, v in enumerate(deg.aux) if v]
                want = sorted(
                    (sigma, tuple(v for v in S if v not in sigma))
                    for sigma in itertools.combinations(S, q - len(S))
                    if K.is_face(sigma))
                got = alg.basis(MultiDegree(q, deg.aux))
                assert got == want, (K.minimal_nonfaces, q, S)
                assert rk_basis(K.face_table(), sum(1 << v - 1 for v in S),
                                q - len(S)) == want
                seen += len(got)
                for sigma, J in got:
                    assert alg.d_mono((sigma, J)) == [
                        ((tuple(sorted(sigma + (j,))), J[:t] + J[t + 1:]),
                         (-1) ** t)
                        for t, j in enumerate(J)
                        if K.is_face(tuple(sorted(sigma + (j,))))]
            if deg.aux:
                two = (2,) + deg.aux[1:]
                assert alg.basis(MultiDegree(deg.q, two)) == []
                with pytest.raises(WindowTooSmall):
                    alg.basis(MultiDegree(deg.q, (-1,) + deg.aux[1:]))
        assert seen >= 2 ** m
        degs = alg.window_degrees()
        for _ in range(40):
            for m1, m2 in itertools.product(alg.basis(rng.choice(degs)),
                                            alg.basis(rng.choice(degs))):
                got = alg.mul_mono(m1, m2)
                assert got == _rk_product(K, m1, m2), (m1, m2)
                assert all(type(c) is Fp for _m, c in got)
                products += len(got)
    assert products >= 100


def test_transport_is_chain_map():
    rng = random.Random(7)
    for _ in range(10):
        K = random_complex(5, rng)
        alg = RKAlgebra(K, QQ)
        for r in (2, 3, 4):
            for I in itertools.combinations(range(1, 6), r):
                for q in range(0, r - 1):
                    faces = K.faces_of_dim(q, within=I)
                    if not faces:
                        continue
                    coch = {faces[0]: Fraction(1)}
                    lhs = alg.from_simplicial(I, _delta(K, I, coch))
                    rhs = alg.d(alg.from_simplicial(I, coch))
                    assert lhs == rhs, (K.minimal_nonfaces, I, faces[0])


def _delta(K, I, cochain):
    """Reduced simplicial coboundary, reference implementation."""
    out = {}
    for face, c in cochain.items():
        others = [v for v in I if v not in face]
        for v in others:
            new = tuple(sorted(face + (v,)))
            if not K.is_face(new):
                continue
            t = new.index(v)
            sgn = 1 if t % 2 == 0 else -1
            out[new] = out.get(new, Fraction(0)) + sgn * c
    return {f: c for f, c in out.items() if c != 0}


def test_zk_classes_build_quotients_only_where_there_are_classes():
    """``zk_classes`` builds a quotient basis only for the (I, q) with a
    nonzero rank-only dim; the class list is that of every degree's
    ``classes(q)``.  On the 7-gon: 85 builds of 575 degrees."""
    def builds(K):
        return sum(len(rc._qb) for rc in K.__dict__["_rc_cache"].values())

    for K in (polygon(7), random_complex(6, random.Random(5)), qn(3)):
        got = zk_classes(K, QQ)
        K2 = SimplicialComplex(K.m, K.minimal_nonfaces)
        want = [ZkClass(I, q, c) for r in range(1, K.m + 1)
                for I in itertools.combinations(range(1, K.m + 1), r)
                for q in range(-1, r)
                for c in reduced_cache(K2, I, QQ).classes(q)]
        assert got == want
        assert builds(K) == sum(reduced_cache(K, I, QQ).dim(q) > 0
                                for I, _field in K._rc_cache
                                for q in range(-1, len(I)))
        assert builds(K2) == 2 ** K.m * K.m // 2 + 2 ** K.m - 1
        if K.m == 7:
            assert (builds(K), builds(K2)) == (85, 575)


def test_zk_cup_overlap_is_zero():
    K = polygon(4)
    x = generator_class(K, (1, 3))
    y = generator_class(K, (1, 3))
    assert zk_cup(K, x, y) is None


def test_zk_cup_unit():
    K = polygon(4)
    x = generator_class(K, (1, 3))
    unit = ZkClass((), -1, {(): Fraction(1)})
    prod = zk_cup(K, unit, x)
    assert prod is not None
    assert prod.I == x.I and prod.q == x.q
    assert reduced_cache(K, prod.I).reduce(prod.q, prod.cochain)


def test_zk_cup_4_cycle_top_product():
    K = polygon(4)
    x = generator_class(K, (1, 3))
    y = generator_class(K, (2, 4))
    prod = zk_cup(K, x, y)
    assert prod is not None
    # generator of H^6
    assert reduced_cache(K, prod.I).reduce(prod.q, prod.cochain)


def test_zk_cup_agrees_with_rk_product():
    rng = random.Random(31)
    checked = 0
    for _ in range(30):
        K = random_complex(rng.randint(4, 6), rng)
        classes = zk_classes(K, QQ)
        alg = RKAlgebra(K, QQ)
        for x in classes:
            for y in classes:
                if set(x.I) & set(y.I):
                    continue
                simp = zk_cup(K, x, y, QQ)
                rk = alg.wedge(alg.from_simplicial(x.I, x.cochain),
                               alg.from_simplicial(y.I, y.cochain))
                I = tuple(sorted(set(x.I) | set(y.I)))
                want = alg.from_simplicial(I, simp.cochain)
                diff = dict(rk)
                for m, c in want.items():
                    diff[m] = diff.get(m, Fraction(0)) - c
                diff = {m: c for m, c in diff.items() if c != 0}
                assert not diff, (K.minimal_nonfaces, x, y)
                checked += 1
    assert checked > 50


def test_cup_length_examples():
    assert cup_length(SimplicialComplex(3, [])) == 0  # simplex
    assert cup_length(polygon(4)) == 2
    # flag complex with chordal skeleton has cup length 1
    K = flag_complex(4, [(1, 2), (2, 3), (3, 4)])  # path: chordal
    assert cup_length(K) == 1


def test_golod_4_cycle_not_golod():
    verdict = golod_test(polygon(4), QQ)
    assert verdict.status == "not-golod"
    assert verdict.witness[0] == "product"


def test_golod_chordal_flag():
    K = flag_complex(4, [(1, 2), (2, 3), (3, 4)])
    verdict = golod_test(K, QQ, order_cap=4)
    assert verdict.status == "golod-up-to-cap"


@pytest.mark.parametrize("inconclusive,status", (
    (True, "unknown"), (False, "golod-up-to-cap")))
def test_golod_unproven_undefined_gives_unknown(monkeypatch, inconclusive,
                                               status):
    """An `undefined` that a larger budget might turn into a defined product
    cannot support golod-up-to-cap.  Six disjoint points have trivial
    products; the stubs make every value group nonzero and every triple
    product undefined."""
    K = SimplicialComplex(6, [(i, j) for i in range(1, 7)
                              for j in range(i + 1, 7)])

    real = facerings.reduced_cache

    class OneDim:
        def __init__(self, rc):
            self.rc = rc

        def __getattr__(self, name):
            return getattr(self.rc, name)

        def dim(self, q):
            return 1

    calls = []

    def undefined(K, classes, field, budget):
        calls.append(len(classes))
        return MasseyOutcome("undefined", len(classes), "unknown",
                             complete=False, inconclusive=inconclusive)

    monkeypatch.setattr(facerings, "reduced_cache",
                        lambda *a: OneDim(real(*a)))
    monkeypatch.setattr(facerings, "zk_massey", undefined)
    verdict = golod_test(K, QQ, order_cap=3)
    assert calls and set(calls) == {3}
    assert verdict.status == status


def test_mainlemma_rejects_overlap():
    K = polygon(6)
    with pytest.raises(OverlappingSupports):
        mainlemma_check(K, [(1, 2), (2, 3)], [0, 0])


@pytest.mark.parametrize("supports,error,msg", [
    ([(1, 4), (2, 5), (4, 6)], OverlappingSupports,
     "supports must be pairwise disjoint"),
    ([(1, 4), (2, 5), (3, 7)], InvalidInput, "support vertex 7 is not in 1..6"),
])
def test_zk_massey_and_mainlemma_check_supports_alike(supports, error, msg):
    """Overlapping supports and a vertex outside 1..m raise the same error
    with the same message from both calls."""
    K = polygon(6)
    classes = [ZkClass(I, 0, {(I[0],): 1}) for I in supports]
    with pytest.raises(error, match=msg):
        zk_massey(K, classes, QQ)
    with pytest.raises(error, match=msg):
        mainlemma_check(K, supports, [0, 0, 0], QQ)


@pytest.mark.parametrize("dims,support,q", [
    ([-3, -3, -3], (1, 3), -3), ([0, 0, 1], (4, 6), 1)],
    ids=["negative", "size-minus-one"])
def test_mainlemma_rejects_a_degree_without_classes(dims, support, q):
    """Reduced cohomology of K_I can be nonzero only in degrees 0..|I|-2;
    another degree is bad input, not conditions printed true."""
    K = polygon(6)
    msg = f"no class on support {support} in degree {q}"
    with pytest.raises(InvalidInput, match=re.escape(msg)):
        mainlemma_check(K, [(1, 3), (2, 5), (4, 6)], dims, QQ)


@pytest.mark.parametrize("vertex", [9, 0])
def test_library_rejects_a_support_vertex_out_of_range(vertex):
    """A support vertex outside 1..m is bad input for the library calls too,
    not a silent answer (9) or a shift error (0); a failed check caches
    nothing, so it raises again."""
    K = polygon(6)
    msg = f"support vertex {vertex} is not in 1..6"
    for _ in range(2):
        with pytest.raises(InvalidInput, match=msg):
            mainlemma_check(K, [(1, 3), (2, 5), (4, vertex)], [0, 0, 0], QQ)
        with pytest.raises(InvalidInput, match=msg):
            generator_class(K, (vertex, 3))


@pytest.mark.parametrize("bad", [(1, 9), (4, 9), (0, 4)])
def test_two_support_mainlemma_and_zk_massey_check_vertices(bad):
    """Two supports reach no consecutive union, and ``zk_massey`` takes its
    supports from hand-made classes; both check the vertices first, so a
    vertex 9 does not answer and a vertex 0 does not land on index -1,
    whatever the cochain."""
    K = polygon(6)
    msg = f"support vertex {9 if 9 in bad else 0} is not in 1..6"
    rest = [v for v in (2, 3, 5, 6) if v not in bad][:2]
    with pytest.raises(InvalidInput, match=msg):
        mainlemma_check(K, [bad, tuple(rest)], [0, 0], QQ)
    for cochain in ({}, {(bad[1],): 1}, {(bad[0],): 1}):
        x = ZkClass(bad, 0, cochain)
        others = [ZkClass((v,), -1, {(): 1}) for v in rest]
        with pytest.raises(InvalidInput, match=msg):
            zk_massey(K, [x] + others, QQ)


def test_zk_massey_zero_classes_strict_trivial():
    K = cube(3)
    zero = ZkClass((1, 4), 0, {})
    z2 = ZkClass((2, 5), 0, {})
    z3 = ZkClass((3, 6), 0, {})
    out = zk_massey(K, [zero, z2, z3], QQ)
    assert out.defined
    assert out.triviality == "trivial"


def test_hexagon_mainlemma_cond2_fails():
    # the hexagon: triple product on the three long diagonals is defined but
    # not strictly defined, and indeed the strictness condition fails
    K = polygon(6)
    supports = [(1, 4), (2, 5), (3, 6)]
    res = mainlemma_check(K, supports, [0, 0, 0])
    assert res["cond2"] is False


def test_simplex_scan_empty():
    assert triple_massey_scan(SimplicialComplex(3, [])) == []


def test_4_cycle_scan_no_nontrivial_triple():
    for (e1, e2, e3, out) in triple_massey_scan(polygon(4)):
        raise AssertionError("4-cycle has no disjoint triple of missing edges")


def test_q3_strict_nontrivial_triple():
    K = qn(3)
    assert K.m == 8
    res = mainlemma_check(K, [(1, 4), (2, 5), (3, 6)], [0, 0, 0])
    assert res["cond1"] and res["cond2"]
    classes = [generator_class(K, (i, 3 + i)) for i in (1, 2, 3)]
    out = zk_massey(K, classes, QQ)
    assert out.status == "strict"
    assert out.triviality == "nontrivial"


def _outcome_key(out):
    rep = out.representative.rep if out.representative is not None else None
    return (out.status, out.triviality, out.defined, out.complete,
            out.value_coords, rep)


@pytest.mark.parametrize("make, mode", [(lambda: polygon(6), "edges"),
                                        (lambda: polygon(7), "edges"),
                                        (lambda: qn(3), "h0")])
def test_scan_shares_one_window_and_matches_cold_windows(monkeypatch, make,
                                                         mode):
    K = make()
    windows = []
    init = RKAlgebra.__init__

    def counting_init(self, *args, **kwargs):
        windows.append(self)
        init(self, *args, **kwargs)

    products = []
    real_massey = facerings.zk_massey

    def recording_massey(K, classes, *args, **kwargs):
        out = real_massey(K, classes, *args, **kwargs)
        products.append((classes, out))
        return out

    monkeypatch.setattr(RKAlgebra, "__init__", counting_init)
    monkeypatch.setattr(facerings, "zk_massey", recording_massey)
    scanned = list(itertools.islice(
        iter_triple_massey_scan(K, QQ, support_mode=mode), 60))
    monkeypatch.undo()
    assert len(windows) == 1
    assert len(products) == len(scanned) > 0
    for (classes, shared), (*_supports, yielded) in zip(products, scanned):
        assert yielded is shared
        # a fresh copy of K gets a cold window of its own
        cold = zk_massey(SimplicialComplex.from_json(K.to_json()), classes, QQ)
        assert _outcome_key(cold) == _outcome_key(shared)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
@pytest.mark.parametrize("make, mode", [(lambda: polygon(6), "edges"),
                                        (lambda: polygon(7), "edges"),
                                        (lambda: qn(3), "h0")],
                         ids=["polygon6", "polygon7", "q3"])
def test_shared_rk_window_outcomes_equal_fresh_window_outcomes(
        monkeypatch, field, make, mode):
    """What earlier products leave on the shared R(K) window (the solved
    stage-one pairs, the transported classes, bases and solvers) changes
    no later product: every product of the scan prints what it prints on
    a fresh window of its own."""
    K = make()
    products = []
    real_massey = facerings.zk_massey

    def recording_massey(K, classes, *args, **kwargs):
        out = real_massey(K, classes, *args, **kwargs)
        products.append((classes, out))
        return out

    monkeypatch.setattr(facerings, "zk_massey", recording_massey)
    list(iter_triple_massey_scan(K, field, support_mode=mode))
    monkeypatch.undo()
    shared = rk_window(K, field)
    # the scan solved fewer ordered pairs than it has stage-one slots
    assert products and 0 < len(shared._pairs) < 2 * len(products)
    monkeypatch.setattr(facerings, "rk_window",
                        lambda K, field: RKAlgebra(K, field))
    for classes, out in products:
        fresh = zk_massey(K, classes, field)
        assert _outcome_json(fresh) == _outcome_json(out), \
            [c.I for c in classes]


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
def test_q4_fourfold_product_on_a_warm_window_equals_a_fresh_window(
        monkeypatch, field):
    """The Q^4 4-fold product after its two triple sub-products on the
    shared window (so every stage-one slot is a stored pair) prints what
    it prints on a fresh window."""
    K = qn(4)
    classes = [generator_class(K, (i, 4 + i), field) for i in (1, 2, 3, 4)]
    zk_massey(K, classes[:3], field, budget=16)
    zk_massey(K, classes[1:], field, budget=16)
    warm = zk_massey(K, classes, field, budget=16)
    monkeypatch.setattr(facerings, "rk_window",
                        lambda K, field: RKAlgebra(K, field))
    fresh = zk_massey(K, classes, field, budget=16)
    assert warm.status == "strict" and warm.triviality == "nontrivial"
    assert _outcome_json(warm) == _outcome_json(fresh)


def test_window_memos_are_keyed_by_content():
    """The stage-one pairs and the transported classes are keyed by the
    representatives, not by degree: after <x, y, z>, the product <2x, y, z>
    on the same window has twice the representative."""
    K = qn(3)
    x, y, z = (generator_class(K, (i, 3 + i)) for i in (1, 2, 3))
    x2 = ZkClass(x.I, x.q, {s: 2 * c for s, c in x.cochain.items()})
    once = zk_massey(K, [x, y, z], QQ)
    twice = zk_massey(K, [x2, y, z], QQ)
    assert once.triviality == "nontrivial"
    assert twice.representative.rep == {
        m: 2 * c for m, c in once.representative.rep.items()}


def test_a_class_off_the_cocycles_is_rejected_on_every_call():
    """A failed transport stores nothing: the second call raises too."""
    K = polygon(6)
    # K_{1,2,4} has the edge 12, so the 0-cochain on vertex 1 is not closed
    bad = ZkClass((1, 2, 4), 0, {(1,): Fraction(1)})
    good = generator_class(K, (3, 5))
    for _ in range(2):
        with pytest.raises(InvalidInput, match="not a cocycle"):
            zk_massey(K, [bad, good], QQ)


def test_disjoint_tuples_are_the_disjoint_permutations_in_order():
    """The recursive enumerator lists exactly the pairwise-disjoint tuples
    of ``itertools.permutations``, in the same order, also with the cut at
    fewer than 2n free vertices."""
    rng = random.Random(15)
    for _ in range(40):
        m = rng.randint(4, 9)
        supports = sorted({tuple(sorted(rng.sample(range(1, m + 1),
                                                   rng.randint(2, 4))))
                           for _ in range(rng.randint(1, 9))})
        rng.shuffle(supports)
        for n in range(1, 5):
            want = [t for t in itertools.permutations(supports, n)
                    if len({v for I in t for v in I})
                    == sum(len(I) for I in t)]
            assert list(facerings._disjoint_tuples(supports, n, m)) == want


def test_zk_massey_cap_counts_support_vertices():
    """The cap bounds the vertices of the supports, not those of K."""
    K = polygon(RK_CAP + 4)
    classes = [generator_class(K, (v, v + 2)) for v in (1, 5, 9)]
    out = zk_massey(K, classes, QQ)
    assert out.defined and out.triviality == "trivial"
    wide = [generator_class(K, (v, v + 1, v + 2, v + 4, v + 5))
            for v in (1, 7, 13)]
    with pytest.raises(CapExceeded, match="15 vertices exceed the cap 14"):
        zk_massey(K, wide, QQ)
    with pytest.raises(CapExceeded):
        RKAlgebra(K, QQ).window_degrees()


def test_rk_cohomology_cap_counts_the_vertices_of_k():
    """The Hochster table, the R(K) table and the R(K) window share one
    vertex cap and one message."""
    for m in (RK_CAP + 1, RK_CAP + 4):
        with pytest.raises(CapExceeded,
                           match=f"m = {m} exceeds the cap {RK_CAP}"):
            rk_cohomology(polygon(m), QQ)
    K = polygon(RK_CAP + 1)
    for call in (lambda: hochster_table(K, QQ),
                 lambda: RKAlgebra(K, QQ).window_degrees(),
                 lambda: zk_classes(K, QQ),
                 lambda: triple_massey_scan(K, QQ)):
        with pytest.raises(CapExceeded,
                           match=f"m = {RK_CAP + 1} exceeds the cap {RK_CAP}"):
            call()


def test_caches_on_k_do_not_keep_k_alive():
    """``rk_window`` and ``reduced_cache`` store their data on K; that data
    must not refer back to K, so dropping the last reference frees K and
    its cache without the cyclic collector."""
    gc.disable()
    try:
        K = polygon(6)
        assert triple_massey_scan(K, QQ)
        golod_test(K, QQ, order_cap=4)
        refs = [weakref.ref(K), weakref.ref(rk_window(K, QQ)),
                weakref.ref(reduced_cache(K, (1, 2, 4, 5), QQ))]
        del K
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()
