"""Property tests tying the face-ring verdicts together, seed-fixed."""

import random
from fractions import Fraction

import pytest

from masseykit.errors import OverlappingSupports, WindowTooSmall
from masseykit.fields import QQ
from masseykit.facerings import (cup_length, generator_class, golod_test,
                                 mainlemma_check, zk_massey, ZkClass)
from masseykit.generators import qn
from masseykit.lie import ce_window, m0
from masseykit.massey import MasseyEngine
from masseykit.monomial import anr, koszul_homology
from masseykit.simplicial import SimplicialComplex, reduced_cache

from sweeps import random_complex


def test_katthan_low_dimension_property():
    # for sampled complexes of dimension <= 3: cup length 1 is equivalent to
    # not-Golod being absent (order cap >= 4)
    rng = random.Random(271828)
    checked = 0
    while checked < 40:
        m = rng.randint(4, 6)
        K = SimplicialComplex(m, random_complex(m, rng))
        if K.dim() > 3:
            continue
        length = cup_length(K, QQ)
        verdict = golod_test(K, QQ, order_cap=4)
        if length == 0:
            assert verdict.status == "golod-up-to-cap"
        else:
            assert (length == 1) == (verdict.status != "not-golod"), \
                K.minimal_nonfaces
        checked += 1


def test_mainlemma_soundness_randomized_representatives():
    # when both sufficiency conditions hold and the product is defined, the
    # outcome is strict and independent of the representative choices
    rng = random.Random(5150)
    K = qn(3)
    supports = [(1, 4), (2, 5), (3, 6)]
    res = mainlemma_check(K, supports, [0, 0, 0])
    assert res["cond1"] and res["cond2"]
    base = [generator_class(K, I) for I in supports]
    out0 = zk_massey(K, base, QQ)
    assert out0.status == "strict"
    for _ in range(5):
        shifted = []
        for cls in base:
            rc = reduced_cache(K, cls.I, QQ)
            cochain = dict(cls.cochain)
            # shift by a random coboundary from degree -1
            if rng.random() < 0.8:
                c = Fraction(rng.randint(-2, 2))
                for v in cls.I:
                    cochain[(v,)] = cochain.get((v,), Fraction(0)) + c
            cochain = {f: x for f, x in cochain.items() if x != 0}
            shifted.append(ZkClass(cls.I, cls.q, cochain))
        out = zk_massey(K, shifted, QQ)
        assert out.status == "strict"
        assert out.representative.same_class(out0.representative)


def test_zk_massey_rejects_overlapping_supports():
    K = qn(3)
    a = generator_class(K, (1, 4))
    with pytest.raises(OverlappingSupports):
        zk_massey(K, [a, a, generator_class(K, (2, 5))], QQ)


def test_koszul_product_table_trivial_for_anr():
    alg, _betti = koszul_homology(anr(2, 2), QQ)
    assert alg.product_table() == {}


def test_cohomology_window_too_small():
    dga = ce_window(m0(6), 2, 6)
    # q_store = 3, d target q = 4; the basis at weight 5 is empty, at 6 not
    assert not dga.basis(dga.deg(3, 5)) and dga.basis(dga.deg(3, 6))
    for w in (5, 6):
        with pytest.raises(WindowTooSmall):
            dga.cohomology_basis(dga.deg(3, w))
        with pytest.raises(WindowTooSmall):
            dga.cohomology_dim(dga.deg(3, w))


def test_value_independence_spot_check_n4():
    dga = ce_window(m0(12), 3, 12)
    engine = MasseyEngine(dga, budget=10)
    e1 = dga.class_of(dga.one_form(1))
    e2 = dga.class_of(dga.one_form(2))
    out_a = engine.massey([e2, e1, e1, e2])
    # shift the last representative by an exact weight-2 form: d of weight-2
    # 1-forms vanishes, so shift within weight instead via d(e^3)-type forms
    # of matching degree: representatives are 1-forms; exact 1-forms vanish
    # in positive weight, so spot-check stability under scaling-compatible
    # re-solve instead: a second engine with a different budget explores a
    # different family but must agree on status and triviality.
    out_b = MasseyEngine(dga, budget=20).massey([e2, e1, e1, e2])
    assert out_a.defined == out_b.defined
    assert out_a.triviality == out_b.triviality == "trivial"


def test_betti_cli_product_of_four_3_spheres():
    import subprocess, sys, json
    K = SimplicialComplex(8, [(1, 2), (3, 4), (5, 6), (7, 8)])
    res = subprocess.run([sys.executable, "-m", "masseykit.cli", "betti"],
                         input=K.to_json(), capture_output=True, text=True)
    assert res.returncode == 0
    data = json.loads(res.stdout)
    # (S^3)^4 pattern
    assert data["total"] == {"0": 1, "3": 4, "6": 6, "9": 4, "12": 1}
