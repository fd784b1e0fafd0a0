from math import comb

import pytest

from masseykit.errors import InvalidInput
from masseykit.fields import QQ
from masseykit.generators import (anr, cube, dodecahedron_nerve, multiwedge,
                                  polygon, qn)
from masseykit.simplicial import (SimplicialComplex, hochster_table,
                                  is_chordal, is_flag, skeleton1)


def test_cube_basic():
    assert cube(1).minimal_nonfaces == [(1, 2)]
    assert cube(3).minimal_nonfaces == [(1, 4), (2, 5), (3, 6)]


def test_qn_2_is_square():
    K = qn(2)
    assert K.m == 4
    assert K.minimal_nonfaces == polygon(4).minimal_nonfaces


def test_qn_3_explicit():
    K = qn(3)
    assert K.m == 8
    # truncation vertices: w1 = v_{1,5} -> 7, w2 = v_{2,6} -> 8
    want = sorted([(1, 4), (2, 5), (3, 6), (1, 5), (2, 6),
                   (4, 7), (2, 7), (5, 8), (3, 8), (7, 8)])
    assert K.minimal_nonfaces == want


def test_qn_counts():
    for n in range(2, 7):
        K = qn(n)
        trunc = sum(n - i for i in range(1, n - 1))
        assert K.m == 2 * n + trunc
        # family sizes from the index ranges
        originals = sum(1 for i in range(0, n - 1)
                        for k in range(1, n - i + 1))
        assert originals == sum(
            1 for nf in K.minimal_nonfaces if max(nf) <= 2 * n)
        # each truncation vertex w(k, i) misses i bottoms and i tops
        mixed = sum(1 for nf in K.minimal_nonfaces
                    if min(nf) <= 2 * n < max(nf))
        assert mixed == sum(2 * i * (n - i) for i in range(1, n - 1))


def test_qn_flag():
    for n in (2, 3, 4, 5):
        assert is_flag(qn(n))


def test_qn_is_simplicial_sphere():
    # the facet nerve of a simple n-polytope is a simplicial (n-1)-sphere:
    # check Euler characteristic and the pseudomanifold condition
    for n in (3, 4, 5):
        K = qn(n)
        fv = [len(K.faces_of_dim(q)) for q in range(0, n)]
        chi = sum((-1) ** i * f for i, f in enumerate(fv))
        assert chi == (2 if (n - 1) % 2 == 0 else 0), (n, fv)
        top = K.faces_of_dim(n - 1)
        ridges = K.faces_of_dim(n - 2)
        for r in ridges:
            assert sum(1 for t in top if set(r) <= set(t)) == 2, (n, r)


@pytest.mark.slow
def test_qn_matches_exact_cut_polytope():
    """Ground truth: exact rational vertex enumeration of the cube with the
    codimension-two faces cut by consecutively shrinking generic planes (the
    regime whose nerve has a quadratic face ideal)."""
    import itertools
    from fractions import Fraction

    from masseykit.simplicial import from_facets

    def truncated_cube_nerve(n):
        ineqs = []
        for k in range(1, n + 1):
            a = [Fraction(0)] * n
            a[k - 1] = Fraction(1)
            ineqs.append((list(a), Fraction(0), k))
            a2 = [Fraction(0)] * n
            a2[k - 1] = Fraction(-1)
            ineqs.append((a2, Fraction(-1), n + k))
        v = 2 * n
        t = 0
        for i in range(1, n - 1):
            for k in range(1, n - i + 1):
                v += 1
                a = [Fraction(0)] * n
                a[k - 1] = Fraction(1)
                a[k + i - 1] = Fraction(-1)
                ineqs.append((a, Fraction(-1) + Fraction(1, 9 ** (t + 1)), v))
                t += 1
        verts = set()
        for combo in itertools.combinations(range(len(ineqs)), n):
            A = [list(ineqs[idx][0]) for idx in combo]
            b = [ineqs[idx][1] for idx in combo]
            M = [row[:] + [b[r]] for r, row in enumerate(A)]
            ok = True
            for col in range(n):
                piv = next((r for r in range(col, n) if M[r][col] != 0), None)
                if piv is None:
                    ok = False
                    break
                M[col], M[piv] = M[piv], M[col]
                inv = 1 / M[col][col]
                M[col] = [x * inv for x in M[col]]
                for r in range(n):
                    if r != col and M[r][col] != 0:
                        f = M[r][col]
                        M[r] = [x - f * y for x, y in zip(M[r], M[col])]
            if not ok:
                continue
            x = [M[r][n] for r in range(n)]
            active = []
            feas = True
            for (a, bb, lab) in ineqs:
                val = sum(ai * xi for ai, xi in zip(a, x))
                if val < bb:
                    feas = False
                    break
                if val == bb:
                    active.append(lab)
            if not feas:
                continue
            assert len(active) == n, "cuts not generic"
            verts.add(tuple(sorted(active)))
        return v, sorted(verts)

    for n in (2, 3, 4):
        m, facets = truncated_cube_nerve(n)
        K_true = from_facets(m, facets)
        assert K_true.minimal_nonfaces == qn(n).minimal_nonfaces, n


def test_multiwedge_identity():
    K = polygon(5)
    assert multiwedge(K, [1] * 5).minimal_nonfaces == K.minimal_nonfaces


def test_multiwedge_two_points_doubled():
    two = SimplicialComplex(2, [(1, 2)])
    W = multiwedge(two, (2, 2))
    assert W.m == 4
    assert W.minimal_nonfaces == [(1, 2, 3, 4)]
    # boundary of the 3-simplex: Z_K is the 7-sphere
    table = hochster_table(W, QQ)
    assert table.total() == {0: 1, 7: 1}


def test_multiwedge_composition():
    K = polygon(4)
    J1 = (2, 1, 1, 1)
    W1 = multiwedge(K, J1)
    J2 = (1, 1, 2, 1, 1)  # |vertices of W1| = 5
    W2 = multiwedge(W1, J2)
    # pointwise product in terms of the original vertices: vertex 1 of K has
    # copies {1, 2} in W1; J2 doubles vertex 3 of W1 = vertex 2 of K
    direct = multiwedge(K, (2, 2, 1, 1))
    assert W2.m == direct.m
    assert W2.minimal_nonfaces == direct.minimal_nonfaces


def test_multiwedge_vertex_count():
    K = polygon(4)
    assert multiwedge(K, (3, 1, 2, 1)).m == 7


@pytest.mark.parametrize("J, bad", [([2.7, 1, 1, 1], "2.7"),
                                    ([2, 1, 1, True], "True"),
                                    (["1", "x", 1, 1], "'x'")])
def test_multiwedge_copy_counts_are_integers(J, bad):
    """A copy count is read exactly: 2.7 is not cut to 2, True is not 1."""
    with pytest.raises(InvalidInput, match=f"copy count {bad} is not an"):
        multiwedge(polygon(4), J)
    assert multiwedge(polygon(4), ["2", 1, 1, 1]).m == 5


def test_anr_generator_count():
    for (n, r) in ((2, 2), (2, 3), (3, 2), (3, 3)):
        assert len(anr(n, r).generators) == comb(n + r - 1, r)


def test_polygon_4():
    assert polygon(4).minimal_nonfaces == [(1, 3), (2, 4)]


def test_dodecahedron_nerve_combinatorics():
    K = dodecahedron_nerve()
    assert K.m == 12
    faces2 = K.faces_of_dim(2)
    faces1 = K.faces_of_dim(1)
    assert len(faces2) == 20 and len(faces1) == 30
    assert is_flag(K)
    assert not is_chordal(skeleton1(K))
    # Euler characteristic of the 2-sphere
    assert 12 - 30 + 20 == 2
    # every edge lies in exactly two triangles
    for e in faces1:
        count = sum(1 for t in faces2 if set(e) <= set(t))
        assert count == 2


def test_generated_complexes_valid():
    for K in (cube(4), qn(4), polygon(7), dodecahedron_nerve(),
              multiwedge(polygon(4), (2, 1, 1, 2))):
        # antichain and no singletons are enforced by the constructor;
        # reconstruct to confirm
        SimplicialComplex(K.m, K.minimal_nonfaces)
