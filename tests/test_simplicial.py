import itertools
import random

import pytest

from masseykit.errors import InvalidInput
from masseykit.fields import GF, QQ
from masseykit.generators import cube, dodecahedron_nerve, polygon, qn
from masseykit.linalg import rank
from masseykit.simplicial import (SimplicialComplex, ReducedCohomology,
                                  _coboundary_rows, from_facets,
                                  hochster_table, induced, is_chordal,
                                  is_flag, join, skeleton1, flag_complex,
                                  graph_complex)

from oracles import dense_rank
from sweeps import all_complexes, random_complex


def simplex(m):
    return SimplicialComplex(m, [])


def boundary_of_triangle():
    return SimplicialComplex(3, [(1, 2, 3)])


def test_antichain_validation():
    with pytest.raises(InvalidInput):
        SimplicialComplex(3, [(1,)])
    with pytest.raises(InvalidInput):
        SimplicialComplex(4, [(1, 2), (1, 2, 3)])


def test_faces_and_facets():
    K = polygon(4)
    assert K.minimal_nonfaces == [(1, 3), (2, 4)]
    assert sorted(K.facets()) == [(1, 2), (2, 3), (3, 4), (1, 4)] or \
        sorted(K.facets()) == sorted([(1, 2), (2, 3), (3, 4), (1, 4)])
    assert K.is_face((1, 2)) and not K.is_face((1, 3))


def test_from_facets_roundtrip():
    K = from_facets(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert K.minimal_nonfaces == [(1, 3), (2, 4)]


def test_induced_of_cycle_is_path():
    K = polygon(4)
    P = induced(K, (1, 2, 3))
    # path on 3 vertices: single missing edge {1,3}
    assert P.m == 3
    assert P.minimal_nonfaces == [(1, 3)]


def test_join_of_points():
    two_pts = SimplicialComplex(2, [(1, 2)])
    J = join(two_pts, two_pts)
    assert J.m == 4
    assert J.minimal_nonfaces == [(1, 2), (3, 4)]


def test_is_flag():
    assert is_flag(polygon(4))
    assert not is_flag(boundary_of_triangle())


def test_chordal():
    g6 = skeleton1(polygon(6))
    assert not is_chordal(g6)
    # a tree is chordal
    tree = {1: {2}, 2: {1, 3}, 3: {2}}
    assert is_chordal(tree)
    # complete graph is chordal
    comp = skeleton1(simplex(4))
    assert is_chordal(comp)


def test_reduced_cohomology_examples():
    # two points: H~^0 = k
    two_pts = SimplicialComplex(2, [(1, 2)])
    rc = ReducedCohomology(two_pts, None, QQ)
    assert rc.dim(0) == 1 and rc.dim(-1) == 0
    # empty complex: H~^{-1} = k
    K = simplex(3)
    rc_empty = ReducedCohomology(K, (), QQ)
    assert rc_empty.dim(-1) == 1
    # 6-cycle: H~^1 = k (boundary-matrix rank oracle below)
    hexa = polygon(6)
    rc6 = ReducedCohomology(hexa, None, QQ)
    assert rc6.dim(1) == 1 and rc6.dim(0) == 0
    # oracle: rank of the 0 -> 1 coboundary on the 6-cycle
    verts = list(range(1, 7))
    edges = hexa.faces_of_dim(1)
    rows = []
    for e in edges:
        row = [0] * 6
        row[e[0] - 1] = -1
        row[e[1] - 1] = 1
        rows.append(row)
    rk = dense_rank(rows)
    assert rc6.dim(1) == len(edges) - rk


def test_hochster_two_points():
    two_pts = SimplicialComplex(2, [(1, 2)])
    table = hochster_table(two_pts, QQ)
    nonunit = {k: v for k, v in table.entries.items() if k[1] != ()}
    assert nonunit == {(1, (1, 2)): 1}
    assert table.entries[(0, ())] == 1
    # H^3(Z_K) of the 3-sphere
    assert table.total() == {0: 1, 3: 1}


def test_hochster_simplex():
    table = hochster_table(simplex(3), QQ)
    assert table.entries == {(0, ()): 1}


def test_hochster_4_cycle():
    table = hochster_table(polygon(4), QQ)
    total = table.total()
    # Z_K = S^3 x S^3
    assert total == {0: 1, 3: 2, 6: 1}


def test_hochster_5_cycle():
    table = hochster_table(polygon(5), QQ)
    total = table.total()
    # connected sum of five S^3 x S^4, a 7-manifold
    assert total == {0: 1, 3: 5, 4: 5, 7: 1}


def test_cube_hochster_product_of_spheres():
    for n in (1, 2, 3):
        table = hochster_table(cube(n), QQ)
        total = table.total()
        # (S^3)^n: binomial pattern in degrees 3k
        from math import comb
        want = {3 * k: comb(n, k) for k in range(n + 1)}
        assert total == want


FIELDS = (QQ, GF(2), GF(3))

# the 6-vertex triangulation of the real projective plane
RP2_FACETS = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
              (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]


def assert_rank_dim_matches_quotient(K):
    """The rank-only dim against the quotient-basis dimension, for every
    subset, degree and field."""
    for r in range(K.m + 1):
        for I in itertools.combinations(range(1, K.m + 1), r):
            for field in FIELDS:
                rc = ReducedCohomology(K, I, field)
                ref = ReducedCohomology(K, I, field)
                for q in range(-1, r + 1):
                    assert rc.dim(q) == ref.quotient(q).dim, \
                        (K.minimal_nonfaces, I, field, q)


def test_rank_dim_matches_quotient_all_small_complexes():
    for m in (1, 2, 3, 4):
        for nfs in all_complexes(m):
            assert_rank_dim_matches_quotient(SimplicialComplex(m, list(nfs)))


def test_rank_dim_matches_quotient_random_6_vertex():
    rng = random.Random(909)
    for _ in range(40):
        assert_rank_dim_matches_quotient(
            SimplicialComplex(6, random_complex(6, rng)))


def full_coboundary(K, q, mask, field):
    """(rows, rank) of the whole reduced coboundary d_q on K_I, I = mask."""
    levels = K.face_table()
    faces = [f for _t, f in levels[q + 2] if f & mask == f] \
        if 0 <= q + 2 < len(levels) else []
    return len(faces), rank(_coboundary_rows(faces), field)


def ranked_complexes():
    rng = random.Random(1010)
    out = [dodecahedron_nerve(), qn(3)]
    for m in (3, 4, 5, 6, 7, 7):
        out.append(SimplicialComplex(m, random_complex(m, rng)))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF2", "GF3"])
def test_cached_ranks_equal_full_ranks(field):
    """Every (rows, rank) that ``ReducedCohomology.dim`` caches per degree
    and every dim must equal those of the whole coboundary, also for
    q < -1 and q >= |I|, where both are 0."""
    stacked = 0
    for K in ranked_complexes():
        for r in range(K.m + 1):
            for I in itertools.combinations(range(1, K.m + 1), r):
                mask = sum(1 << (v - 1) for v in I)
                full = {q: full_coboundary(K, q, mask, field)
                        for q in range(-4, r + 2)}
                rc = ReducedCohomology(K, I, field)
                for q in range(-3, r + 2):
                    assert rc.dim(q) == \
                        full[q - 1][0] - full[q][1] - full[q - 1][1], (I, q)
                for q in range(-4, r + 2):
                    assert rc._ranks.get(q, (0, 0)) == full[q], (I, q)
                stacked += sum(full[q + 1][1] for q in range(-2, r)
                               if full[q][1])
    assert stacked  # some nonzero rank sits on a degree of nonzero rank


def test_rp2_torsion_seen_over_gf2_only():
    # a "Q" kernel that secretly worked modulo a prime would miss this
    K = from_facets(6, RP2_FACETS)
    assert_rank_dim_matches_quotient(K)
    for field, h12 in ((QQ, (0, 0)), (GF(2), (1, 1)), (GF(3), (0, 0))):
        rc = ReducedCohomology(K, None, field)
        assert (rc.dim(1), rc.dim(2)) == h12
    tq, t2 = hochster_table(K, QQ).total(), hochster_table(K, GF(2)).total()
    gained = {p: t2.get(p, 0) - tq.get(p, 0) for p in set(tq) | set(t2)
              if t2.get(p, 0) != tq.get(p, 0)}
    # H~^1 and H~^2 of K itself, at p = |I| + q + 1 = 6 + q + 1
    assert gained == {8: 1, 9: 1}


def per_subset_table(K, field):
    """The Hochster table subset by subset, each K_I eliminated afresh by
    ``ReducedCohomology.dim``."""
    entries = {}
    for r in range(K.m + 1):
        for I in itertools.combinations(range(1, K.m + 1), r):
            rc = ReducedCohomology(K, I, field)
            for q in range(-1, r):
                if rc.dim(q):
                    entries[(r - q - 1, I)] = rc.dim(q)
    return entries


def test_hochster_walk_matches_per_subset_route():
    """The walk over the subset lattice, which extends each parent's
    elimination, against fresh per-subset eliminations: random complexes
    on 0..8 vertices, the empty complex and a point, and RP^2, whose
    torsion shows over GF(2) only."""
    rng = random.Random(1818)
    complexes = [SimplicialComplex(0, []), SimplicialComplex(1, []),
                 from_facets(6, RP2_FACETS)]
    for m in range(9):
        for _ in range(8 if m < 8 else 4):
            complexes.append(SimplicialComplex(m, random_complex(m, rng)))
    for K in complexes:
        for field in FIELDS:
            assert hochster_table(K, field).entries == \
                per_subset_table(K, field), (K.m, K.minimal_nonfaces, field)
    rp2 = complexes[2]
    assert hochster_table(rp2, GF(2)).entries != \
        hochster_table(rp2, QQ).entries


def test_q4_hochster_fields_agree_and_duality():
    K = qn(4)
    table = hochster_table(K, QQ)
    assert hochster_table(K, GF(2)).entries == table.entries
    total = table.total()
    # K is a 3-sphere on 13 vertices, so Z_K is a closed 17-manifold
    assert total[0] == total[17] == 1
    assert all(total.get(17 - p, 0) == v for p, v in total.items())
    assert total == {0: 1, 3: 28, 4: 96, 5: 123, 6: 95, 7: 193, 8: 394,
                     9: 394, 10: 193, 11: 95, 12: 123, 13: 96, 14: 28, 17: 1}


def test_graph_complex_vs_flag_complex():
    edges = [(1, 2), (2, 3), (3, 1)]
    flag = flag_complex(3, edges)
    graph = graph_complex(3, edges)
    assert flag.is_face((1, 2, 3))
    assert not graph.is_face((1, 2, 3))


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF2", "GF3"])
def test_reduce_reads_classes_as_unit_vectors(field):
    """On random complexes, ``reduce`` sends the j-th of ``classes(q)`` to
    the j-th unit vector, also after a coboundary is added, and is empty on
    a coboundary."""
    rng = random.Random(2323)
    seen = 0
    for m in (4, 5, 6, 7, 7):
        K = SimplicialComplex(m, random_complex(m, rng))
        for I in (tuple(range(1, m + 1)),
                  tuple(sorted(rng.sample(range(1, m + 1), m - 1)))):
            rc = ReducedCohomology(K, I, field)
            for q in range(-1, len(I)):
                faces = rc.basis_faces(q)
                bounds = [{faces[i]: c for i, c in b.items()}
                          for b in rc.quotient(q).boundary_basis]
                for b in bounds:
                    assert rc.reduce(q, b) == {}
                for j, c in enumerate(rc.classes(q)):
                    seen += 1
                    assert rc.reduce(q, c) == {j: field.one()}
                    if bounds:
                        b = rng.choice(bounds)
                        shifted = {f: c.get(f, 0) + b.get(f, 0)
                                   for f in set(c) | set(b)}
                        assert rc.reduce(q, shifted) == {j: field.one()}
    assert seen
