"""Seeded fuzz of the defining-system engine against exhaustive enumeration.

For random small complexes and random disjoint missing-edge triples, every
defining system confined to the nominal multidegrees is enumerated over F_3
by brute force; the resulting value set is compared against the engine's
verdicts (definedness, triviality, strictness) and its affine value data.
"""

import itertools
import random

from masseykit.dga import MultiDegree
from masseykit.fields import GF, QQ
from masseykit.facerings import (RKAlgebra, _disjoint_products,
                                 generator_class, zk_classes, zk_massey)
from masseykit.massey import MasseyEngine
from masseykit.simplicial import SimplicialComplex

from sweeps import random_complex


def brute_triple_values_f3(K, pairs, field):
    """Value set over all nominal-multidegree defining systems, by direct
    enumeration of the stage-one solution boxes."""
    alg = RKAlgebra(K, field)
    cls = [generator_class(K, e, field) for e in pairs]
    chain = [alg.from_simplicial(c.I, c.cochain) for c in cls]
    degs = [MultiDegree(len(c.I) + c.q + 1, alg._aux_of(c.I)) for c in cls]

    def aux_sum(a, b):
        return tuple(x + y for x, y in zip(a, b))

    rhs12 = alg.wedge(alg.bar(chain[0]), chain[1])
    rhs23 = alg.wedge(alg.bar(chain[1]), chain[2])
    deg12 = MultiDegree(degs[0].q + degs[1].q - 1,
                        aux_sum(degs[0].aux, degs[1].aux))
    deg23 = MultiDegree(degs[1].q + degs[2].q - 1,
                        aux_sum(degs[1].aux, degs[2].aux))

    def all_solutions(deg, rhs):
        bas = alg.basis(deg)
        sols = []
        p = field.p
        for coeffs in itertools.product(range(p), repeat=len(bas)):
            cand = {m: field.of(c) for m, c in zip(bas, coeffs) if c % p}
            diff = dict(alg.d(cand))
            for m, c in rhs.items():
                v = diff.get(m, field.zero()) - c
                if v == 0:
                    diff.pop(m, None)
                else:
                    diff[m] = v
            if not {m: c for m, c in diff.items() if c != 0}:
                sols.append(cand)
        return sols

    fs = all_solutions(deg12, rhs12)
    gs = all_solutions(deg23, rhs23)
    if not fs or not gs:
        return None  # undefined
    val_deg = MultiDegree(
        sum(d.q for d in degs) - 1,
        aux_sum(aux_sum(degs[0].aux, degs[1].aux), degs[2].aux))
    qb = alg.cohomology_basis(val_deg)
    values = set()
    for f in fs:
        for g in gs:
            acc = dict(alg.wedge(alg.bar(chain[0]), g))
            for m, c in alg.wedge(alg.bar(f), chain[2]).items():
                v = acc.get(m, field.zero()) + c
                if v == 0:
                    acc.pop(m, None)
                else:
                    acc[m] = v
            red = qb.reduce(alg.to_vector(acc, val_deg))
            values.add(tuple(sorted((k, v.v) for k, v in red.items())))
    return values


def test_engine_matches_brute_force_marked_graphs():
    """Known nontrivial configurations: strict and non-strict outcomes both
    agree with exhaustive enumeration."""
    from masseykit.simplicial import graph_complex

    field = GF(3)
    marked = ((1, 2), (3, 4), (5, 6))
    cases = [
        # nonstrict class representatives
        [(1, 3), (1, 4), (2, 3), (2, 5), (2, 6), (4, 5), (4, 6)],
        [(1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (2, 6), (4, 5), (4, 6)],
        [(1, 3), (1, 5), (1, 6), (2, 3), (2, 5), (2, 6), (4, 5), (4, 6)],
        [(1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 5), (2, 6), (4, 5), (4, 6)],
        # a chain of single edges: defined and trivial
        [(1, 3), (3, 2), (2, 5), (5, 4), (4, 6)],
    ]
    seen_nontrivial = seen_strict = 0
    for edges in cases:
        K = graph_complex(6, edges)
        brute = brute_triple_values_f3(K, marked, field)
        out = zk_massey(K, [generator_class(K, e, field) for e in marked],
                        field, budget=64)
        if brute is None:
            assert not out.defined
            continue
        assert out.defined
        zero_in = tuple() in brute
        assert (out.triviality == "trivial") == zero_in, (edges, brute)
        single = len(brute) == 1
        strict = out.status == "strict" or (
            out.status == "affine" and not out.indeterminacy)
        assert strict == single, (edges, len(brute))
        if not zero_in:
            seen_nontrivial += 1
            if single:
                seen_strict += 1
    assert seen_nontrivial >= 4


def test_engine_matches_brute_force_triples():
    field = GF(3)
    rng = random.Random(60221023)
    compared = 0
    while compared < 25:
        m = rng.randint(5, 6)
        K = SimplicialComplex(m, random_complex(m, rng))
        missing = [e for e in itertools.combinations(range(1, m + 1), 2)
                   if not K.is_face(e)]
        triples = [t for t in itertools.permutations(missing, 3)
                   if not (set(t[0]) & set(t[1]) or set(t[0]) & set(t[2])
                           or set(t[1]) & set(t[2]))]
        if not triples:
            continue
        pairs = triples[rng.randrange(len(triples))]
        # keep the brute-force boxes manageable
        alg = RKAlgebra(K, field)
        cls = [generator_class(K, e, field) for e in pairs]
        sizes = []
        for a, b in ((0, 1), (1, 2)):
            deg = MultiDegree(
                cls[a].zk_degree + cls[b].zk_degree - 1,
                alg._aux_of(tuple(sorted(set(cls[a].I) | set(cls[b].I)))))
            sizes.append(len(alg.basis(deg)))
        if max(sizes, default=0) > 8:
            continue
        brute = brute_triple_values_f3(K, pairs, field)
        out = zk_massey(K, [generator_class(K, e, field) for e in pairs],
                        field, budget=64)
        if brute is None:
            assert not out.defined, (K.minimal_nonfaces, pairs)
        else:
            assert out.defined, (K.minimal_nonfaces, pairs)
            zero_in = tuple() in brute
            assert (out.triviality == "trivial") == zero_in, \
                (K.minimal_nonfaces, pairs, brute)
            single = len(brute) == 1
            strict = out.status == "strict" or (
                out.status == "affine" and not out.indeterminacy)
            assert strict == single, (K.minimal_nonfaces, pairs, len(brute))
        compared += 1


def test_kstep_top_equals_classical_value():
    # the (n-1)-step tuple of a triple has one entry: the classical value
    from masseykit.lie import ce_window, m0

    dga = ce_window(m0(12), 3, 12)
    engine = MasseyEngine(dga, budget=8)
    e1 = dga.class_of(dga.one_form(1))
    e2 = dga.class_of(dga.one_form(2))
    classes = [e2, e1, e2]
    top = engine.k_step(classes, 2)
    assert top.defined and len(top.classes) == 1
    full = engine.massey(classes)
    assert full.defined
    assert top.classes[0].same_class(full.representative)


def test_polarized_anr_golod():
    from masseykit.facerings import golod_test
    from masseykit.monomial import anr, polarization

    K = polarization(anr(2, 2))
    verdict = golod_test(K, QQ, order_cap=3)
    assert verdict.status == "golod-up-to-cap"


def test_verdict_invariants_on_random_face_ring_products(monkeypatch):
    """What one verdict path in ``massey()`` relies on, over the first 40
    triples and 4-fold products of 30 random 8-vertex complexes, built as
    ``golod_test`` builds them: a strict 4-fold family has no parameter
    and reads trivial exactly when its representative is zero, and a
    triple's value coordinates are affine."""
    families = []
    search = MasseyEngine.find_defining_system

    def spy(self, classes, max_stage=None):
        families.append(search(self, classes, max_stage))
        return families[-1]
    monkeypatch.setattr(MasseyEngine, "find_defining_system", spy)
    rng = random.Random(12)
    seen = set()
    for _ in range(30):
        K = SimplicialComplex(8, random_complex(8, rng))
        by_support: dict = {}
        for c in zk_classes(K, QQ):
            by_support.setdefault(c.I, []).append(c)
        for n in (3, 4):
            products = _disjoint_products(K, by_support, sorted(by_support),
                                          n, QQ, 8, screen=True)
            for _sups, _classes, out in itertools.islice(products, 40):
                fam = families[-1]
                seen.add((n, out.status, out.triviality))
                if n == 3 and out.defined:
                    assert all(p.is_affine()
                               for p in out.value_coords.values())
                if n == 4 and out.status == "strict":
                    assert fam.params == []
                    assert (out.triviality == "trivial") == \
                        out.representative.is_zero()
    assert {(4, "strict", "trivial"), (4, "strict", "nontrivial"),
            (4, "undefined", "unknown")} <= seen
    assert any(n == 4 and status == "sampled" for n, status, _t in seen)
    assert any(n == 3 and status != "undefined" for n, status, _t in seen)
