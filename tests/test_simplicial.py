import itertools
import random

import pytest

import masseykit.simplicial as simplicial_module
from masseykit.errors import InvalidInput
from masseykit.fields import GF, QQ
from masseykit.generators import cube, dodecahedron_nerve, polygon, qn
from masseykit.linalg import (EchelonSolver, QuotientBasis, extend_pivots,
                              rank)
from masseykit.simplicial import (BettiTable, SimplicialComplex,
                                  ReducedCohomology, _coboundary_rows,
                                  components, faces_within, from_facets,
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
    with pytest.raises(InvalidInput,
                       match=r"non-face vertex 4 is not in 1\.\.3"):
        SimplicialComplex(3, [(1, 4)])
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


@pytest.mark.parametrize("facets, vertex", [([(0, 1)], 0), ([(1, 7)], 7),
                                            ([(1, 2), (3, -1)], -1)])
def test_from_facets_names_a_vertex_outside_1_to_m(facets, vertex):
    with pytest.raises(InvalidInput, match=f"facet vertex {vertex} is not "
                       r"in 1\.\.3"):
        from_facets(3, facets)


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


def late_connected_complexes():
    """Complexes whose 1-skeleton has many components or isolated
    vertices, or connects only at a high vertex (on 9 and 10 vertices), and
    random sparse graphs, so that the walk's component merging does the
    work."""
    rng = random.Random(3131)
    star = [(i, 10) for i in range(1, 10)]
    complexes = [
        SimplicialComplex(6, list(itertools.combinations(range(1, 7), 2))),
        from_facets(8, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
                        (6,), (7,), (8,)]),
        graph_complex(10, star),
        # three blocks, bridged only through vertex 9
        from_facets(9, [(1, 2, 3), (4, 5, 6), (7, 8), (3, 9), (6, 9),
                        (8, 9)]),
        # a cone with apex 10 over a complex with four components
        from_facets(10, [(1, 2, 3, 10), (4, 5, 10), (6, 7, 8, 10),
                         (9, 10)]),
        # two disjoint 2-spheres, joined by the edge 5 10 at the end
        from_facets(10, [f for off in (0, 5) for f in
                         itertools.combinations(range(1 + off, 5 + off), 3)]
                    + [(5, 10)]),
    ]
    for m in (7, 9, 10):
        edges = [e for e in itertools.combinations(range(1, m + 1), 2)
                 if rng.random() < 0.15]
        complexes.append(graph_complex(m, edges))
    return complexes


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF2", "GF3"])
def test_hochster_walk_counts_components(field):
    """The walk takes the vertex and edge ranks of K_I from the components
    of its 1-skeleton; on complexes where the components merge late, the
    table still equals fresh per-subset eliminations."""
    for K in late_connected_complexes():
        assert hochster_table(K, field).entries == \
            per_subset_table(K, field), (K.m, K.minimal_nonfaces)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF2", "GF3"])
def test_hochster_walk_follows_relabelings(field):
    """Relabeling the vertices of the dodecahedron nerve and of Q^3 by a
    seeded permutation relabels the table's subsets, and changes nothing
    else: the walk meets the components in a new order each time."""
    rng = random.Random(4242)
    for K in (dodecahedron_nerve(), qn(3)):
        table = hochster_table(K, field).entries
        for _ in range(3):
            perm = list(range(1, K.m + 1))
            rng.shuffle(perm)
            L = SimplicialComplex(K.m, [tuple(perm[v - 1] for v in nf)
                                        for nf in K.minimal_nonfaces])
            assert hochster_table(L, field).entries == {
                (i, tuple(sorted(perm[v - 1] for v in I))): d
                for (i, I), d in table.items()}


def test_hochster_walk_eliminates_no_vertex_or_edge_rows(monkeypatch):
    """``hochster_table`` hands ``extend_pivots`` only the rows of faces
    with 3 or more vertices, whose entries sit at faces of 2 or more; the
    vertex and edge ranks come from the components."""
    real = simplicial_module.extend_pivots
    rows_seen = []

    def guarded(pivots, rows, field):
        for row in rows:
            assert row and all(bin(g).count("1") >= 2 for g in row), row
        rows_seen.extend(rows)
        return real(pivots, rows, field)

    monkeypatch.setattr(simplicial_module, "extend_pivots", guarded)
    for K in (dodecahedron_nerve(), from_facets(6, RP2_FACETS),
              *late_connected_complexes()[3:5]):
        for field in (QQ, GF(2)):
            hochster_table(K, field)
    assert rows_seen


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


# ---- degree-zero cohomology from the 1-skeleton -----------------------------

def eliminated_quotient_0(rc):
    """(``quotient(0)``, its cycles) by the elimination route: the cycles
    are ``kernel_basis`` of the edge rows, as ``ReducedCohomology`` built
    them before it read the components."""
    one = rc.field.one()
    below, faces, above = ([f for _t, f in faces_within(rc._levels, s,
                                                         rc._mask)]
                           for s in range(3))
    src = {f: i for i, f in enumerate(faces)}
    rows = [{src[g]: one * c for g, c in row.items()}
            for row in _coboundary_rows(above)]
    cycles = EchelonSolver(rc.field, len(src), rows).kernel_basis()
    images: dict = {f: {} for f in below}
    for i, row in enumerate(_coboundary_rows(faces)):
        for g, c in row.items():
            images[g][i] = one * c
    boundaries = [img for img in images.values() if img]
    return QuotientBasis(rc.field, len(src), cycles, boundaries), cycles


def degree_zero_complexes():
    rng = random.Random(3232)
    return [dodecahedron_nerve(), qn(3), polygon(8)] + [
        SimplicialComplex(m, random_complex(m, rng)) for m in (6, 6, 7, 7)]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF2", "GF3"])
def test_degree_zero_quotient_reads_the_components(field):
    """On every subset I of the dodecahedron nerve, Q^3, the 8-gon and
    seeded random 6- and 7-vertex complexes, the component indicators are
    the vectors ``kernel_basis`` returns on the edge rows, in the same
    order, and ``quotient(0)`` selects the same representatives and
    boundaries as the elimination route."""
    one = field.one()
    for K in degree_zero_complexes():
        levels = K.face_table()
        for r in range(K.m + 1):
            for I in itertools.combinations(range(1, K.m + 1), r):
                rc = ReducedCohomology(K, I, field)
                old, cycles = eliminated_quotient_0(rc)
                vertices = [f for _t, f in faces_within(levels, 1, rc._mask)]
                assert [{i: one for i, f in enumerate(vertices) if f & c}
                        for c in components(levels, rc._mask)] == cycles
                new = rc.quotient(0)
                assert new.representatives == old.representatives, I
                assert new.boundary_basis == old.boundary_basis, I
                assert new.dim == rc.dim(0), I


def test_components_are_ordered_by_largest_vertex():
    K = from_facets(7, [(2, 7), (1, 3), (3, 5), (4,), (6,)])
    assert components(K.face_table(), -1) == [0b1000, 0b10101, 0b100000,
                                              0b1000010]
    assert components(K.face_table(), 0b1100011) == [0b1, 0b100000,
                                                     0b1000010]
    assert components(K.face_table(), 0) == []


def unfiltered_walk(K, field):
    """``hochster_table`` as it walked before it counted the vertex and
    edges of v directly: every face size is filtered for faces topped by v
    inside I + v, with no stop at the first empty size."""
    levels = K.face_table()
    topped = [[[] for _ in levels] for _ in range(K.m + 1)]
    for size, level in enumerate(levels):
        masks = [f for _t, f in level]
        for f, row in zip(masks, _coboundary_rows(masks)):
            topped[f.bit_length()][size].append((f, row))
    below = [0] * (K.m + 1)
    for (u, v), _f in faces_within(levels, 2, -1):
        below[v] |= 1 << (u - 1)
    entries: dict = {}

    def visit(I, mask, comps, counts, pivots):
        r = len(I)
        ranks = [0, min(r, 1), r - len(comps)] + [len(p) for p in pivots[3:]]
        for q in range(-1, min(r, len(levels) - 1)):
            d = counts[q + 1] - ranks[q + 2] - ranks[q + 1]
            if d:
                entries[(r - q - 1, I)] = d
        for v in range(I[-1] + 1 if I else 1, K.m + 1):
            child = mask | 1 << (v - 1)
            counts_v, pivots_v = counts[:], pivots[:]
            for size, faces in enumerate(topped[v]):
                new = [row for f, row in faces if f & child == f]
                if new:
                    counts_v[size] += len(new)
                    if size > 2:
                        pivots_v[size] = extend_pivots(pivots[size], new,
                                                       field)
            joined = sum((c for c in comps if c & below[v]), 1 << (v - 1))
            visit(I + (v,), child, [c for c in comps if not c & joined]
                  + [joined], counts_v, pivots_v)

    visit((), 0, [], [1] + [0] * len(levels), [{}] * (len(levels) + 1))
    return BettiTable(field.tag, entries)


def walk_edge_cases():
    """Isolated vertices, no edges at all, and faces topped by a vertex
    that stop below the largest face size of the complex (the walk's stop
    at the first size with no new face)."""
    rng = random.Random(3333)
    out = [
        from_facets(6, [(1, 2, 3), (2, 3, 4), (5,), (6,)]),
        SimplicialComplex(5, list(itertools.combinations(range(1, 6), 2))),
        # a tetrahedron and a triangle, with a late vertex 8 joined to both
        # by edges only, and an isolated vertex 7
        from_facets(8, [(1, 2, 3, 4), (4, 5, 6), (7,), (2, 8), (6, 8)]),
        # a 2-sphere whose largest vertex tops only edges and one triangle
        from_facets(7, [f for f in itertools.combinations(range(1, 5), 3)]
                    + [(5, 6, 7), (1, 7), (4, 6)]),
    ]
    for m in (6, 7, 8):
        K = SimplicialComplex(m, random_complex(m, rng))
        # m + 1 becomes an isolated vertex: it tops no edge at all
        out.append(SimplicialComplex(m + 1, K.minimal_nonfaces + [
            (v, m + 1) for v in range(1, m + 1)]))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "GF2", "GF3"])
def test_hochster_walk_counts_new_faces_and_stops_early(field):
    """The walk's vertex and edge counts and its stop at the first face
    size with no new face agree with the unfiltered walk and with fresh
    per-subset eliminations."""
    for K in walk_edge_cases():
        got = hochster_table(K, field).entries
        assert got == unfiltered_walk(K, field).entries, K.minimal_nonfaces
        assert got == per_subset_table(K, field), K.minimal_nonfaces
