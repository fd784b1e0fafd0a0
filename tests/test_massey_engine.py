import itertools
import random
import types
from fractions import Fraction

import pytest

from masseykit import facerings, lie
from masseykit.dga import CohomologyClass, MultiDegree
from masseykit.errors import (NotADefiningSystem, SingularMatrix, Undecided,
                              WindowTooSmall)
from masseykit.facerings import (generator_class, iter_triple_massey_scan,
                                 rk_window)
from masseykit.fields import GF, QQ
from masseykit.linalg import axpy, rank
from masseykit.generators import polygon, qn
from masseykit.lie import (ce_window, five_fold_connection, m0, omega,
                           omega_tail_connection, staircase_connection,
                           triple_criterion, classify_1d_massey, witt_plus)
from masseykit.massey import (FormalConnection, MasseyEngine, ParamInfo,
                              Undefined, conjugate, is_defining_system,
                              is_k_step, lift_obstruction, mc_defect, mc_sum,
                              pc_const, pc_evaluate, related_cocycle,
                              strong_mc_check)
from masseykit.params import Poly
from oracles import brute_force_solutions_fp, c_scale


def w_window(w_max=10, q_max=3, field=QQ):
    return ce_window(witt_plus(w_max), q_max, w_max, field)


def m_window(w_max=12, q_max=3, field=QQ):
    return ce_window(m0(w_max), q_max, w_max, field)


def random_connection(dga, n, rng, w_cap=6):
    """Arbitrary upper-triangular cochain matrix (no equations imposed)."""
    entries = {}
    monos = [m for q in (1, 2) for w in range(1, w_cap)
             for m in dga.basis(dga.deg(q, w))]
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            terms = {}
            for _ in range(rng.randint(0, 2)):
                m = rng.choice(monos)
                if len(m) == (1 if (i + j) % 2 else 2):
                    terms[m] = Fraction(rng.randint(-2, 2))
            terms = {m: c for m, c in terms.items() if c != 0}
            # keep entries homogeneous in cohomological degree
            qs = {len(m) for m in terms}
            if len(qs) > 1:
                terms = {m: c for m, c in terms.items() if len(m) == min(qs)}
            if terms:
                entries[(i, j)] = terms
    return FormalConnection(dga, n, entries)


def test_mc_defect_zero_matrix():
    dga = w_window()
    conn = FormalConnection(dga, 3, {})
    assert mc_defect(conn) == {}


def test_mc_defect_n2_closed_diagonal():
    dga = w_window()
    a = dga.one_form(1)
    b = dga.one_form(2)
    conn = FormalConnection(dga, 2, {(1, 1): a, (2, 2): b})
    mu = mc_defect(conn)
    # defect confined to the corner slot <=> da = db = 0
    assert all(slot == (1, 2) for slot in mu)


def test_bianchi_identity_random():
    # d mu(A) = bar(mu(A)) . A + A . mu(A) for arbitrary upper-triangular A
    rng = random.Random(17)
    dga = w_window(9, 4)
    for _ in range(12):
        n = rng.randint(2, 4)
        conn = random_connection(dga, n, rng, w_cap=4)
        mu = mc_defect(conn)

        def entry(src, i, j):
            return src.get((i, j), {})

        for i in range(1, n + 1):
            for j in range(i, n + 1):
                lhs = dga.d(entry(mu, i, j))
                rhs: dict = {}
                for r in range(i, j):
                    left = entry(mu, i, r)
                    right = entry(conn.entries, r + 1, j)
                    if left and right:
                        prod = dga.wedge(dga.bar(left), right)
                        for m, c in prod.items():
                            rhs[m] = rhs.get(m, Fraction(0)) + c
                    left2 = entry(conn.entries, i, r)
                    right2 = entry(mu, r + 1, j)
                    if left2 and right2:
                        prod = dga.wedge(left2, right2)
                        for m, c in prod.items():
                            rhs[m] = rhs.get(m, Fraction(0)) + c
                rhs = {m: c for m, c in rhs.items() if c != 0}
                assert lhs == rhs, (n, i, j)


def test_cup_is_two_fold_massey():
    dga = w_window()
    e1 = dga.class_of(dga.one_form(1))
    e2 = dga.class_of(dga.one_form(2))
    engine = MasseyEngine(dga)
    out = engine.massey([e1, e2])
    assert out.status == "strict"
    assert out.triviality == "trivial"  # pentagonal weights kill H^1.H^1


def test_triple_e1_e2_e2_single_valued_nonzero():
    dga = w_window(10)
    e1 = dga.class_of(dga.one_form(1))
    e2 = dga.class_of(dga.one_form(2))
    engine = MasseyEngine(dga, budget=8)
    out = engine.massey([e1, e2, e2])
    assert out.status == "affine"
    assert out.indeterminacy == []
    assert out.triviality == "nontrivial"
    # the value is -[e^2 ^ e^3], spanning H^2_5
    want = CohomologyClass(dga, dga.deg(2, 5),
                           {(2, 3): Fraction(-1)})
    assert out.representative.same_class(want)
    assert dga.cohomology_basis(dga.deg(2, 5)).dim == 1


def test_undefined_when_cup_obstructed():
    # <e^2, e^2, e^2> over m0: e^2 ^ e^2 = 0, always defined; but
    # <omega, omega, omega> for omega = omega(2) has nonzero first cup? no --
    # use W+: nothing in H^1 cups nonzero; build instead a pair with nonzero
    # product over m0: [e^2] and omega(3) multiply to omega(2,3) != 0.
    dga = m_window(16)
    e2 = dga.class_of(dga.one_form(2))
    w3 = dga.class_of({m: Fraction(c) for m, c in omega(3).form.items()})
    engine = MasseyEngine(dga)
    out = engine.massey([e2, w3, e2])
    assert out.status == "undefined"
    assert not out.inconclusive  # stage-1 obstruction is definitive


def test_related_cocycle_closed_for_found_systems():
    dga = m_window(14)
    engine = MasseyEngine(dga, budget=6)
    e1 = dga.class_of(dga.one_form(1))
    e2 = dga.class_of(dga.one_form(2))
    fam = engine.find_defining_system([e2, e1, e2])
    conn = fam.at({})
    assert is_defining_system(conn)
    c = related_cocycle(conn)
    assert dga.d(c) == {}


def test_conjugate_identity_and_scaling():
    dga = m_window(12)
    engine = MasseyEngine(dga, budget=6)
    e1 = dga.class_of(dga.one_form(1))
    e2 = dga.class_of(dga.one_form(2))
    fam = engine.find_defining_system([e2, e1, e2])
    conn = fam.at({})
    n = conn.n
    ident = [[1 if r == c else 0 for c in range(n + 1)] for r in range(n + 1)]
    same = conjugate(conn, ident)
    assert same.entries == conn.entries

    diag = [2, 3, 5, 7]
    C = [[diag[r] if r == c else 0 for c in range(n + 1)]
         for r in range(n + 1)]
    conj = conjugate(conn, C)
    assert is_defining_system(conj)
    c_old = related_cocycle(conn)
    c_new = related_cocycle(conj)
    ratio = Fraction(diag[-1], diag[0])
    diff = dict(c_new)
    for m, c in c_scale(ratio, c_old).items():
        diff[m] = diff.get(m, Fraction(0)) - c
    diff = {m: c for m, c in diff.items() if c != 0}
    for deg, comp in dga.components(diff).items():
        vec = dga.to_vector(comp, deg)
        assert not dga.cohomology_basis(deg).reduce(vec)


def test_conjugate_general_upper_triangular():
    # conjugation by any invertible upper-triangular scalar matrix gives
    # another formal connection, with the class scaled by c_nn / c_11
    dga = m_window(12)
    engine = MasseyEngine(dga, budget=6)
    e1 = dga.class_of(dga.one_form(1))
    e2 = dga.class_of(dga.one_form(2))
    fam = engine.find_defining_system([e2, e1, e2])
    conn = fam.at({})
    C = [[2, 1, 0, 3],
         [0, 1, 4, 0],
         [0, 0, 3, 1],
         [0, 0, 0, 5]]
    conj = conjugate(conn, C)
    mu = mc_defect(conj)
    assert all(slot == (1, 3) for slot in mu)
    c_old = related_cocycle(conn)
    c_new = related_cocycle(conj)
    ratio = Fraction(5, 2)
    diff = dict(c_new)
    for m, c in c_scale(ratio, c_old).items():
        diff[m] = diff.get(m, Fraction(0)) - c
    diff = {m: c for m, c in diff.items() if c != 0}
    for deg, comp in dga.components(diff).items():
        vec = dga.to_vector(comp, deg)
        assert not dga.cohomology_basis(deg).reduce(vec)


def test_cohomology_window_map():
    dga = m_window(8, 2)
    dims = {w: dga.cohomology_basis(dga.deg(1, w)).dim for w in range(1, 5)}
    assert dims[1] == 1
    assert dims[3] == 0


def test_conjugate_rejects_singular():
    dga = m_window(8)
    conn = FormalConnection(dga, 2, {(1, 1): dga.one_form(1),
                                     (2, 2): dga.one_form(2)})
    C = [[1, 0, 0], [0, 0, 0], [0, 0, 1]]
    with pytest.raises(SingularMatrix):
        conjugate(conn, C)


def test_diagonal_conjugation_scales_inputs():
    dga = m_window(12)
    engine = MasseyEngine(dga, budget=6)
    e1 = dga.class_of(dga.one_form(1))
    e2 = dga.class_of(dga.one_form(2))
    fam = engine.find_defining_system([e2, e1, e2])
    conn = fam.at({})
    C = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 6, 0], [0, 0, 0, 30]]
    conj = conjugate(conn, C)
    # new diagonal is x_i a_i with x = (2, 3, 5)
    assert conj.entry(1, 1) == c_scale(Fraction(2), conn.entry(1, 1))
    assert conj.entry(2, 2) == c_scale(Fraction(3), conn.entry(2, 2))
    assert conj.entry(3, 3) == c_scale(Fraction(5), conn.entry(3, 3))


# ---- explicit connections from the worked computations ---------------------

def test_staircase_connection_defining_and_value():
    for k in (2, 3, 4):
        dga = m_window(2 * k + 4, 3)
        conn = staircase_connection(dga, k)
        assert is_defining_system(conn)
        c = related_cocycle(conn)
        want = c_scale(Fraction(2 * (-1) ** k),
                       {m: Fraction(v) for m, v in omega(k).form.items()})
        assert c == want, (k, c, want)


def test_omega_tail_connection_examples():
    # <e^2, e^1, omega(e^4 ^ e^5)> has value -omega(e^3 ^ e^4 ^ e^5)
    dga = m_window(14, 4)
    conn = omega_tail_connection(dga, 3, omega(4))
    assert is_defining_system(conn)
    c = related_cocycle(conn)
    want = c_scale(Fraction(-1),
                   {m: Fraction(v) for m, v in omega(3, 4).form.items()})
    assert c == want
    # general shape: c(A) = (-1)^{i1} sum (-1)^k D1^k e^{i1} ^ D-1^k omega
    from masseykit.lie import d1_power, d_minus1_power
    for i1, tail in ((3, omega(5)), (4, omega(5))):
        dga2 = m_window(2 + i1 + tail.weight, i1 + 1)
        conn2 = omega_tail_connection(dga2, i1, tail)
        assert is_defining_system(conn2)
        got = related_cocycle(conn2)
        want2: dict = {}
        sgn_outer = (-1) ** i1
        for kpow in range(0, i1 - 1):
            lead = d1_power({(i1,): 1}, kpow)
            tailp = d_minus1_power(tail.form, kpow)
            if not lead or not tailp:
                break
            sgn = sgn_outer * ((-1) ** kpow)
            for m1, c1 in lead.items():
                for m2, c2 in tailp.items():
                    from masseykit.dga import merge_sorted
                    merged = merge_sorted(m1, m2)
                    if merged is None:
                        continue
                    mm, s2 = merged
                    want2[mm] = want2.get(mm, 0) + sgn * s2 * c1 * c2
        want2 = {m: Fraction(c) for m, c in want2.items() if c != 0}
        assert got == want2, (i1, tail.indices)


def test_five_fold_connection_family():
    dga = w_window(10, 3)
    for t in (0, 1, Fraction(-3, 2)):
        conn = five_fold_connection(dga, t)
        assert is_defining_system(conn)
        c = related_cocycle(conn)
        want = {(2, 5): Fraction(1), (3, 4): Fraction(-3)}
        if t != 0:
            want[(2, 3)] = Fraction(t)
        assert c == want


# ---- engine end-to-end ------------------------------------------------------

def test_engine_five_fold_affine_line():
    dga = w_window(9, 3)
    e1 = dga.class_of(dga.one_form(1))
    e2 = dga.class_of(dga.one_form(2))
    m_e1 = dga.class_of(dga.one_form((1, -1)))
    m2_e1 = dga.class_of(dga.one_form((1, -2)))
    m_e2 = dga.class_of(dga.one_form((2, -1)))
    engine = MasseyEngine(dga, budget=30, homogeneous_aux=False)
    out = engine.massey([e1, e2, m_e1, m2_e1, m_e2])
    assert out.defined
    assert out.status == "sampled"
    assert out.triviality == "nontrivial"
    g_plus = CohomologyClass(dga, dga.deg(2, 7),
                             {(2, 5): Fraction(1), (3, 4): Fraction(-3)})
    g_minus = CohomologyClass(dga, dga.deg(2, 5), {(2, 3): Fraction(1)})
    # weight-7 coordinate is pinned: every value is g+ plus lower weight
    w7 = dga.deg(2, 7)
    pinned = {k: p for k, p in out.value_coords.items() if k[0] == w7}
    assert pinned and all(p.is_constant() for p in pinned.values())
    assert pinned == {k: pinned[k] for k in g_plus.coords()}
    # the value set is exactly the line {g+ + t g-}
    for t in (0, 1, -2, Fraction(1, 3)):
        target = CohomologyClass(
            dga, dga.deg(2, 7),
            {m: c for m, c in
             (dict(g_plus.rep) | {(2, 3): Fraction(t)}).items() if c != 0})
        assert engine.contains_value(out, target)
    # and 0 is not on it
    zero = CohomologyClass(dga, dga.deg(2, 7), {})
    assert engine.contains_value(out, zero) is False


def test_value_independence_of_representatives():
    dga = m_window(12)
    engine = MasseyEngine(dga, budget=8)
    e1 = dga.class_of(dga.one_form(1))
    e2 = dga.class_of(dga.one_form(2))
    out1 = engine.massey([e2, e1, e2])
    # shift e^2 by the exact form d e^3 = e^1 ^ e^2: stays a 1-cocycle? no,
    # d e^3 is a 2-form; shift by a closed 1-form changes the class, so shift
    # by d(x) for a 0-form x: only scalars, d = 0.  Instead shift inside the
    # window where exact 1-forms exist: none in positive weight, so shift the
    # middle representative of a 2-form-valued product instead.
    w5 = dga.class_of({m: Fraction(c) for m, c in omega(3).form.items()})
    out_a = engine.massey([e2, e1, w5])
    shifted_rep = dict(w5.rep)
    for m, c in dga.d({(7,): Fraction(1)}).items():
        shifted_rep[m] = shifted_rep.get(m, Fraction(0)) + c
    shifted_rep = {m: c for m, c in shifted_rep.items() if c != 0}
    w5_shift = CohomologyClass(dga, w5.degree, shifted_rep)
    out_b = engine.massey([e2, e1, w5_shift])
    assert out_a.status == out_b.status
    assert out_a.triviality == out_b.triviality
    assert out_a.representative.same_class(out_b.representative)
    assert len(out_a.indeterminacy) == len(out_b.indeterminacy)
    assert out1.status == "affine"


def test_sub_product_necessity():
    dga = m_window(12)
    engine = MasseyEngine(dga, budget=8)
    e1 = dga.class_of(dga.one_form(1))
    e2 = dga.class_of(dga.one_form(2))
    outer = engine.massey([e2, e1, e1, e2])
    assert outer.defined
    for lo, hi in ((0, 2), (1, 3), (0, 1), (1, 2), (2, 3)):
        sub = [e2, e1, e1, e2][lo:hi + 1]
        if len(sub) < 2:
            continue
        out = engine.massey(sub)
        assert out.defined
        assert out.triviality == "trivial"


def test_k_step_one_is_cup_tuple():
    from masseykit.massey import is_k_step

    dga = m_window(10)
    engine = MasseyEngine(dga)
    e1 = dga.class_of(dga.one_form(1))
    e2 = dga.class_of(dga.one_form(2))
    classes = [e1, e2, e2]
    out = engine.k_step(classes, 1)
    assert out.defined
    assert len(out.classes) == 2
    # the witness defect is confined to slots at distance >= k
    assert is_k_step(mc_defect(out.witness), 1)
    for cls in out.classes:
        assert dga.d(cls.rep) == {}
    for s, cls in enumerate(out.classes):
        a = classes[s]
        b = classes[s + 1]
        want = dga.wedge(dga.bar(a.rep), b.rep)
        diff = dict(cls.rep)
        for m, c in want.items():
            diff[m] = diff.get(m, Fraction(0)) - c
        diff = {m: c for m, c in diff.items() if c != 0}
        assert not diff


def test_k_step_monotonicity_and_classical():
    dga = m_window(12)
    engine = MasseyEngine(dga, budget=8)
    e1 = dga.class_of(dga.one_form(1))
    e2 = dga.class_of(dga.one_form(2))
    classes = [e2, e1, e1, e2]
    assert engine.massey(classes).defined
    for k in (1, 2, 3):
        out = engine.k_step(classes, k)
        assert out.defined
        if k < 3:
            assert out.triviality == "trivial"


def test_all_zero_classes_every_step_trivial():
    dga = m_window(8)
    engine = MasseyEngine(dga)
    zero = CohomologyClass(dga, dga.deg(1, 1), {})
    classes = [zero, zero, zero]
    for k in (1, 2):
        out = engine.k_step(classes, k)
        assert out.defined
        assert out.triviality == "trivial"


# ---- strong Maurer-Cartan / representations ---------------------------------

def test_strong_mc_zero_assignment():
    dga = m_window(8, 2)
    assert strong_mc_check(dga, {}, 2)


def test_strong_mc_n1_iff_closed():
    dga = m_window(8, 2)
    # single entry e^1: closed, defines a homomorphism
    good = {1: [[0, 1], [0, 0]]}
    assert strong_mc_check(dga, good, 1)
    # e^3 is not closed
    bad = {3: [[0, 1], [0, 0]]}
    assert not strong_mc_check(dga, bad, 1)


def test_strong_mc_bracket_oracle():
    # m0 relations: rho must satisfy rho([x,y]) = [rho(x), rho(y)];
    # build a genuine 3-step filiform representation and a broken one
    dga = m_window(8, 2)
    # rho(e1) = E_{12}, rho(e2) = E_{23}, rho(e3) = E_{13}: [rho e1, rho e2]
    # = E_13 = rho(e3) and all other brackets vanish as required
    rho = {
        1: [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        2: [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
        3: [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    }
    assert strong_mc_check(dga, rho, 2)
    rho_bad = {
        1: [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        2: [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
        3: [[0, 0, -1], [0, 0, 0], [0, 0, 0]],
    }
    assert not strong_mc_check(dga, rho_bad, 2)


def test_lift_obstruction():
    dga = m_window(10, 2)
    # defining system for <e^2, e^1>-type data with a nonzero obstruction:
    # diagonal e^2, e^1, e^2 with solved stage 1 (the staircase at k = 2)
    conn = staircase_connection(dga, 2)
    cls = lift_obstruction(conn)
    assert not cls.is_zero()
    # all-zero defining system lifts
    zero_conn = FormalConnection(dga, 2, {})
    assert lift_obstruction(zero_conn).is_zero()
    # exact related cocycle: corner correction completes the lift
    from masseykit.massey import complete_lift
    e1 = dga.class_of(dga.one_form(1))
    fam = MasseyEngine(dga).find_defining_system([e1, e1, e1])
    conn2 = fam.at({})
    cls2 = lift_obstruction(conn2)
    if cls2.is_zero():
        corner = complete_lift(conn2)
        assert corner is not None
        assert dga.d(corner) == related_cocycle(conn2)


# ---- the 1-dimensional classification over m0 -------------------------------

def test_triple_criterion_matches_engine():
    rng = random.Random(42)
    for _ in range(20):
        scalars = [(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
                   for _ in range(3)]
        if any(a == 0 and b == 0 for a, b in scalars):
            continue
        out = classify_1d_massey(scalars)
        assert out.defined
        want = "trivial" if triple_criterion(scalars) else "nontrivial"
        assert out.triviality == want, scalars


def test_family_d_defined_trivial():
    out = classify_1d_massey({"family": "D", "n": 4,
                              "alpha": Fraction(2), "beta": Fraction(-1)})
    assert out.defined
    assert out.triviality == "trivial"


# ---- sound verdicts -------------------------------------------------------

def _wplus_gens(w_max=12, field=QQ):
    dga = ce_window(witt_plus(w_max), 3, w_max, field)
    return dga, dga.class_of(dga.one_form(1)), dga.class_of(dga.one_form(2))


def test_truncated_family_gives_unknown_not_nontrivial():
    """[e1, e2, e1, e1] over W+: at budgets 0 and 2 the family is truncated
    and 0 is outside the part explored, yet budget 8 finds a vanishing
    value, so the low budgets may only say "unknown"."""
    dga, e1, e2 = _wplus_gens()
    word = [e1, e2, e1, e1]
    for budget in (0, 2):
        out = MasseyEngine(dga, budget=budget,
                           homogeneous_aux=False).massey(word)
        assert (out.defined, out.complete) == (True, False)
        assert out.triviality == "unknown", budget
    out = MasseyEngine(dga, budget=8, homogeneous_aux=False).massey(word)
    assert out.triviality == "trivial"


def test_raising_the_budget_never_flips_a_verdict():
    """Over W+ words in e1, e2 of lengths 3-5 and budgets 0, 2, 8, 40:
    "trivial" and "nontrivial" never both occur for one word, and a
    conclusive "undefined" never turns defined."""
    dga, e1, e2 = _wplus_gens()
    for hom in (True, False):
        for length in (3, 4, 5):
            for word in itertools.product((e1, e2), repeat=length):
                seen = set()
                conclusive_undefined = False
                for budget in (0, 2, 8, 40):
                    out = MasseyEngine(dga, budget=budget,
                                       homogeneous_aux=hom).massey(list(word))
                    if not out.defined:
                        conclusive_undefined |= not out.inconclusive
                        continue
                    assert not conclusive_undefined, (hom, word, budget)
                    if out.triviality != "unknown":
                        seen.add(out.triviality)
                assert len(seen) <= 1, (hom, [c.rep for c in word])


def test_k_step_witness_from_the_verdict_assignment():
    """A trivial k-step verdict comes with a witness whose stage-k
    obstruction classes all vanish."""
    dga, e1, e2 = _wplus_gens()
    engine = MasseyEngine(dga, budget=8, homogeneous_aux=False)
    out = engine.k_step([e1, e2, e1, e1], 2)
    assert out.defined and out.triviality == "trivial"
    assert is_k_step(mc_defect(out.witness), 2)
    for s in (1, 2):
        obstruction = mc_sum(dga, out.witness.entries, s, s + 2)
        assert CohomologyClass(dga, dga.deg(3, 0), obstruction).is_zero()
    low = MasseyEngine(dga, budget=0, homogeneous_aux=False)
    assert low.k_step([e1, e2, e1, e1], 3).triviality != "nontrivial"


def test_zero_solvable_raises_undecided_on_nonlinear():
    dga, _e1, _e2 = _wplus_gens()
    engine = MasseyEngine(dga)
    one = QQ.one()
    coord = Poly({(0, 1): one, (): -one})  # t0 t1 - 1
    with pytest.raises(Undecided):
        engine._zero_solvable({"k": coord})
    assert not isinstance(Undecided("x"), ValueError)
    # t0 t1 + t2 - 1: pinning t0 and t1 leaves t2 = 1, a witness
    coord = Poly({(0, 1): one, (2,): one, (): -one})
    assign = engine._zero_solvable({"k": coord})
    assert assign[2] == 1
    assert coord.evaluate(assign, QQ) == 0


# ---- the one parameter solver ---------------------------------------------

def _tiny_engine(field):
    return MasseyEngine(ce_window(witt_plus(4), 2, 4, field))


def _check_resolved(polys, subst):
    """Every poly substitutes to 0, and the substitution is fully reduced:
    its values mention only variables it leaves free."""
    for p in polys:
        assert p.substitute(subst).is_zero(), (p, subst)
    for rep in subst.values():
        assert not rep.variables() & subst.keys(), subst


def test_resolve_constraints_returns_a_reduced_substitution():
    engine = _tiny_engine(QQ)
    one = QQ.one()
    polys = [Poly({(0,): one, (1,): one, (): -one}),  # t0 + t1 - 1
             Poly({(1,): one, (): -3 * one})]          # t1 - 3
    subst, pinned = engine._resolve_constraints(polys)
    assert not pinned
    _check_resolved(polys, subst)
    assert subst[0] == Poly.const(-2 * one) and subst[1] == Poly.const(3 * one)


def test_resolve_constraints_proof_only_before_a_pin():
    engine = _tiny_engine(QQ)
    one = QQ.one()
    t0t1 = Poly({(0, 1): one})
    # a nonzero constant proves inconsistency, pins or not
    assert engine._resolve_constraints([t0t1, Poly.const(one)]) == \
        (None, False)
    # inconsistent only after pinning t0 and t1: not a proof
    assert engine._resolve_constraints([t0t1 - Poly.const(one)]) == \
        (None, True)
    # affine and inconsistent: a proof
    t0 = Poly.var(0, one)
    assert engine._resolve_constraints([t0, t0 - Poly.const(one)]) == \
        (None, False)
    assert engine._resolve_constraints([]) == ({}, False)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "GF5"])
def test_resolve_constraints_property(field):
    """Consistent random systems, affine or with nonlinear monomials in a
    set of pinned variables: the substitution zeroes every constraint, pins
    exactly the variables of the nonlinear monomials, and leaves
    (variables - rank) free, the rank counting each pin as one equation and
    read from ``linalg.rank`` of the pinned system's linear parts.

    The same systems with perturbed constants: ``subst`` is None exactly
    when the pinned system has no zero, which an enumeration of the free
    variables decides over GF(5) and the ranks of the linear parts with
    and without the constants decide over Q."""
    engine = _tiny_engine(field)
    rng = random.Random(f"resolve:{field}")
    checked = {False: 0, True: 0}
    bumped_none, bump = {False: 0, True: 0}, random.Random(f"bump:{field}")
    for _ in range(120):
        n_vars = rng.randint(1, 6)
        pins = set(rng.sample(range(n_vars), rng.randint(0, n_vars - 1))) \
            if rng.random() < 0.5 else set()
        x0 = {v: field.of(rng.randint(-3, 3)) for v in range(n_vars)
              if v not in pins}
        polys = []
        for _ in range(rng.randint(1, 6)):
            terms = {(v,): field.of(rng.randint(-2, 2))
                     for v in rng.sample(range(n_vars),
                                         rng.randint(1, n_vars))}
            for _ in range(rng.randint(0, 2) if pins else 0):
                mono = tuple(sorted(rng.choices(sorted(pins), k=2)))
                terms[mono] = field.of(rng.choice((-1, 1, 2)))
            p = Poly(terms)
            polys.append(p - Poly.const(p.evaluate(x0, field)))
        pinned_vars = {v for p in polys for m in p.terms if len(m) >= 2
                       for v in m}
        subst, pinned = engine._resolve_constraints(polys)
        assert subst is not None
        assert pinned == bool(pinned_vars)
        _check_resolved(polys, subst)
        for v in pinned_vars:
            assert subst[v].is_zero()
        all_vars = {v for p in polys for v in p.variables()}
        zero = {v: Poly() for v in pinned_vars}
        rows = [p.substitute(zero).affine_parts()[1] for p in polys]
        r = rank([row for row in rows if row], field) + len(pinned_vars)
        free = all_vars - subst.keys()
        assert len(free) == len(all_vars) - r
        checked[pinned] += 1
        bumped = [p + Poly.const(field.of(bump.randint(-2, 2)))
                  for p in polys]
        subst, pinned = engine._resolve_constraints(bumped)
        constant = any(p.is_constant() and not p.is_zero() for p in bumped)
        assert pinned == (bool(pinned_vars) and not constant)
        affine = [p.substitute(zero).affine_parts() for p in bumped]
        if field.p is None:
            aug = [{**row, n_vars: c} if c else row for c, row in affine]
            solvable = rank(aug, field) == rank([row for _c, row in affine],
                                                field)
        else:
            cols = sorted(all_vars - pinned_vars)
            dense = [[field.of(row.get(v, 0)).v for v in cols]
                     for _c, row in affine]
            consts = [field.of(-c).v for c, _row in affine]
            solvable = brute_force_solutions_fp(
                dense, consts, field.p, len(cols))[0] > 0
        assert (subst is None) == (not solvable), bumped
        if subst is not None:
            _check_resolved(bumped, subst)
        bumped_none[subst is None] += 1
    assert min(checked.values()) >= 20, checked
    assert min(bumped_none.values()) >= 20, bumped_none


# ---- sound undefined (the pin rule) ----------------------------------------

@pytest.fixture(scope="module")
def wplus14():
    dga = ce_window(witt_plus(14), 3, 14)
    return dga, {"1": dga.class_of(dga.one_form(1)),
                 "2": dga.class_of(dga.one_form(2))}


def _spied_massey(dga, gens, word, budget=40):
    """massey() on the word, with every result of the engine's solver."""
    engine = MasseyEngine(dga, budget=budget, homogeneous_aux=False)
    calls = []
    solve = engine._resolve_constraints

    def spy(polys):
        calls.append(solve(polys))
        return calls[-1]
    engine._resolve_constraints = spy
    return engine.massey([gens[c] for c in word]), calls


def test_undefined_after_a_pin_is_inconclusive(wplus14):
    dga, gens = wplus14
    # the stage (1, 5) constraint of 111112 is solved by t1 = t7 = 0,
    # t3 = 1/12; pinning t1, t3, t7 leaves 1/24 = 0, which proves nothing
    out, calls = _spied_massey(dga, gens, "111112")
    assert out.status == "undefined" and out.inconclusive
    assert calls[-1] == (None, True)
    # these stages hold a nonzero constant before any pin: proven
    for word in ("112112", "211211"):
        out, calls = _spied_massey(dga, gens, word)
        assert out.status == "undefined" and not out.inconclusive, word
        assert calls[-1] == (None, False), word


def test_no_conclusive_undefined_follows_a_pin(wplus14):
    dga, gens = wplus14
    seen = {"conclusive": 0, "pinned": 0}
    for length in (4, 5, 6):
        for word in itertools.product("12", repeat=length):
            out, calls = _spied_massey(dga, gens, "".join(word))
            if out.status != "undefined":
                continue
            if any(pinned for _subst, pinned in calls):
                assert out.inconclusive, word
                seen["pinned"] += 1
            if not out.inconclusive:
                assert calls[-1] == (None, False), word
                seen["conclusive"] += 1
    assert seen["pinned"] >= 1 and seen["conclusive"] >= 1, seen


# ---- the generic kernel on Poly cochains ----------------------------------

def _assignments(fam, field):
    free = fam.free_vars()
    out = [{}]
    for t, v in enumerate(free[:4]):
        out.append({v: field.of(1)})
        out.append({v: field.of(-1 - t)})
    out.append({v: field.of(t + 2) for t, v in enumerate(free)})
    return out


def _check_evaluation_commutes(engine, classes):
    fam = engine.find_defining_system(classes)
    assert hasattr(fam, "entries"), "expected a defined product"
    dga = engine.dga
    value = mc_sum(dga, fam.entries, 1, fam.n)
    checked = 0
    for assign in _assignments(fam, dga.field):
        conn = fam.at(assign)
        if not is_defining_system(conn):
            continue
        assert pc_evaluate(value, assign, dga.field) == related_cocycle(conn)
        checked += 1
    assert checked >= 2
    return fam


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
def test_evaluation_commutes_with_mc_sum_lie(field):
    """Words in 1-forms have odd entries only, where bar is the identity;
    the H^2_5 class c puts 2-forms into the entries, so bar's sign is
    exercised as well."""
    dga = ce_window(witt_plus(12), 4, 12, field)
    e1 = dga.class_of(dga.one_form(1))
    e2 = dga.class_of(dga.one_form(2))
    qb = dga.cohomology_basis(dga.deg(2, 5))
    bas = dga.basis(dga.deg(2, 5))
    c = dga.class_of({bas[i]: v for i, v in qb.representatives[0].items()})
    engine = MasseyEngine(dga, budget=8, homogeneous_aux=False)
    params = 0
    for word in ([e1, e2, e1], [e1, e2, e1, e1], [e2, e1, e1, e1],
                 [c, e1, e2], [e1, c, e1]):
        params += len(_check_evaluation_commutes(engine, word).params)
    assert params > 0
    mdga = m_window(9, 3, field)
    m1 = mdga.class_of(mdga.one_form(1))
    m2 = mdga.class_of(mdga.one_form(2))
    engine = MasseyEngine(mdga, budget=40, homogeneous_aux=False)
    fam = _check_evaluation_commutes(engine, [m2, m1, m1, m1, m2])
    assert fam.params


def test_evaluation_commutes_with_mc_sum_face_ring():
    K = qn(3)
    alg = rk_window(K, QQ)
    classes = []
    for c in (generator_class(K, (i, 3 + i)) for i in (1, 2, 3)):
        deg = MultiDegree(len(c.I) + c.q + 1, alg._aux_of(c.I))
        classes.append(CohomologyClass(alg, deg,
                                       alg.from_simplicial(c.I, c.cochain)))
    _check_evaluation_commutes(MasseyEngine(alg), classes)


# ---- gauge reduction: boundary directions add nothing ---------------------

def _full_kernel_family(engine, classes, max_stage=None):
    """The reference search over the whole kernel: one parameter per
    representative and then per boundary direction of each degree.  Only
    during the search, ``representatives`` reads both."""
    dga = engine.dga
    real = dga.cohomology_basis

    def widened(deg):
        qb = real(deg)
        return types.SimpleNamespace(
            representatives=qb.representatives + qb.boundary_basis)
    dga.cohomology_basis = widened
    try:
        return engine.find_defining_system(classes, max_stage)
    finally:
        del dga.cohomology_basis


def _affine_rows(coords, keys):
    const, lin = {}, {}
    for key, p in coords.items():
        c, terms = p.affine_parts()
        if c != 0:
            const[keys[key]] = c
        for v, cf in terms.items():
            lin.setdefault(v, {})[keys[key]] = cf
    return const, list(lin.values())


def _assert_same_affine_set(a, b, field):
    """c_a + span L_a == c_b + span L_b for value coordinates a and b."""
    keys = {k: i for i, k in enumerate(sorted(set(a) | set(b), key=repr))}
    ca, la = _affine_rows(a, keys)
    cb, lb = _affine_rows(b, keys)
    r = rank(la, field)
    assert rank(lb, field) == r == rank(la + lb, field)  # one span L
    assert rank(la + [axpy(dict(ca), -1, cb.items())], field) == r


def _compare_with_full_kernel(engine, classes, k=None):
    """Same definedness, completeness, verdict and affine value set
    (the k-step tuple when k is given) as the full-kernel search.
    Returns (parameters, full-kernel parameters)."""
    dga = engine.dga
    max_stage = None if k is None else k - 1
    new = engine.find_defining_system(classes, max_stage)
    old = _full_kernel_family(engine, classes, max_stage)
    assert isinstance(new, Undefined) == isinstance(old, Undefined)
    if isinstance(new, Undefined):
        assert new.inconclusive == old.inconclusive
        return 0, 0
    assert all(p.kind == "class" for p in new.params)
    assert new.complete and old.complete

    def values(fam):
        slots = [(1, fam.n)] if k is None else \
            [(s, s + k) for s in range(1, fam.n - k + 1)]
        out = {}
        for s, t in slots:
            acc = mc_sum(dga, fam.entries, s, t)
            for key, p in engine._reduce_family_value(acc).items():
                out[(s,) + key] = p
        return out
    a, b = values(new), values(old)
    assert engine._triviality(a, new)[0] == engine._triviality(b, old)[0]
    if all(p.is_affine() for p in [*a.values(), *b.values()]):
        _assert_same_affine_set(a, b, dga.field)
    return len(new.params), len(old.params)


@pytest.mark.parametrize("make, mode", [(lambda: polygon(6), "edges"),
                                        (lambda: polygon(7), "edges"),
                                        (lambda: qn(3), "h0")])
def test_gauge_reduced_search_face_ring_scans(monkeypatch, make, mode):
    """Every product of the triple scan, searched again at a budget both
    parameter sets fit in: the value sets agree, with fewer parameters."""
    recorded = _scan_products(monkeypatch, make(), QQ, mode)
    assert recorded
    counts = [_compare_with_full_kernel(MasseyEngine(engine.dga,
                                                     budget=10**6), classes)
              for engine, classes, _out in recorded]
    assert any(new < old for new, old in counts)


def _scan_products(monkeypatch, K, field, mode="edges"):
    """(engine, classes, outcome) of every product of the triple scan."""
    recorded = []

    class Recording(MasseyEngine):
        def massey(self, classes):
            out = super().massey(classes)
            recorded.append((self, classes, out))
            return out
    monkeypatch.setattr(facerings, "MasseyEngine", Recording)
    list(iter_triple_massey_scan(K, field, support_mode=mode))
    monkeypatch.undo()
    return recorded


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
@pytest.mark.parametrize("make, want", [
    (lambda: qn(3), (40, 56, 16)), (lambda: polygon(6), (0, 24, 24)),
    (lambda: polygon(7), (210, 0, 0))], ids=["q3", "polygon6", "polygon7"])
def test_triple_indeterminacy_is_the_span_of_the_products(monkeypatch, field,
                                                          make, want):
    """The indeterminacy of every defined product of an edge scan has the
    rank of the span of x1 . z and z . x3 over the cohomology bases of both
    factor degrees, and its representatives are those products, each kept
    in that order when it raises the rank of the ones before it.  Pinned:
    the products with a zero and a nonzero value group, and those with a
    nonzero indeterminacy."""
    counts = [0, 0]
    spans = 0
    for engine, (x1, x2, x3), out in _scan_products(monkeypatch, make(),
                                                    field):
        if not out.defined:
            continue
        dga = engine.dga
        value_deg = (x1.degree + x2.degree + x3.degree).shift(-1)
        counts[bool(dga.cohomology_dim(value_deg))] += 1
        prods = []
        for zdeg, make_prod in (((x2.degree + x3.degree).shift(-1),
                                 lambda z: dga.wedge(dga.bar(x1.rep), z)),
                                ((x1.degree + x2.degree).shift(-1),
                                 lambda z: dga.wedge(dga.bar(z), x3.rep))):
            for rep in dga.cohomology_basis(zdeg).representatives:
                prods.append(make_prod(dga.from_vector(rep, zdeg)))
        rows = [{i: c for (_d, i), c in dga.coords(p).items()}
                for p in prods]
        got = rank(rows, dga.field)
        assert len(out.indeterminacy) == got, (x1.degree, x2.degree,
                                              x3.degree)
        kept = [p for k, p in enumerate(prods) if rank(rows[:k + 1], dga.field)
                > rank(rows[:k], dga.field)]
        assert [cls.rep for cls in out.indeterminacy] == kept
        spans += got > 0
    assert (*counts, spans) == want


def _h2_class(dga, w):
    qb = dga.cohomology_basis(dga.deg(2, w))
    bas = dga.basis(dga.deg(2, w))
    return dga.class_of({bas[i]: v for i, v in qb.representatives[0].items()})


def test_gauge_reduced_search_lie_windows_with_h2():
    """Triples with an H^2 class put 2-forms into the entries, where d of a
    1-form gives boundary directions: W+ with homogeneous entries, m0 with
    entries over every weight of the window, and 2-step tuples of m0
    4-fold words."""
    counts = []
    for w in (5, 7):
        dga = w_window(12, 4)
        e1, e2 = (dga.class_of(dga.one_form(g)) for g in (1, 2))
        c = _h2_class(dga, w)
        engine = MasseyEngine(dga, budget=10**6)
        for word in ([c, e1, e2], [e1, c, e1], [e2, e1, c], [c, e1, e1],
                     [e1, e1, c]):
            counts.append(_compare_with_full_kernel(engine, word))
        dga = m_window(12, 4)
        e1, e2 = (dga.class_of(dga.one_form(g)) for g in (1, 2))
        c = _h2_class(dga, w)
        engine = MasseyEngine(dga, budget=10**6, homogeneous_aux=False)
        for word in ([e1, c, e1], [c, e1, e1], [e1, e1, c], [c, e2, e1]):
            counts.append(_compare_with_full_kernel(engine, word))
        for word in ([e1, c, e1, e1], [c, e1, e1, e1], [e1, e1, c, e1]):
            counts.append(_compare_with_full_kernel(engine, word, k=2))
    assert sum(old - new for new, old in counts) > 0
    assert sum(new for new, _old in counts) > 0


def test_reduce_family_value_rejects_a_value_off_the_cycles():
    """A parametric value with a non-closed component is no Massey value;
    a closed one reduces to its Poly coordinates."""
    dga = ce_window(witt_plus(8), 3, 8)
    engine = MasseyEngine(dga)
    t0 = Poly.var(0, Fraction(1))
    e3 = dga.one_form(3)
    with pytest.raises(NotADefiningSystem, match="not a cocycle"):
        engine._reduce_family_value({m: t0 * c for m, c in e3.items()})
    e1 = dga.one_form(1)
    got = engine._reduce_family_value({m: t0 * c for m, c in e1.items()})
    assert got == {(dga.deg(1, 1), 0): t0}


# ---- one family check per sampled product, window-level caches -------------

def test_sampled_product_rejects_a_tampered_family(monkeypatch):
    """A sampled product checks its family once, symbolically.  Entry (2, 3)
    of a 4-fold product is read by no term of the value, so a family broken
    there still has a closed value; the check must catch it anyway."""
    dga, e1, e2 = _wplus_gens()
    engine = MasseyEngine(dga, budget=8, homogeneous_aux=False)
    word = [e1, e2, e1, e1]
    assert engine.massey(word).status == "sampled"
    find = engine.find_defining_system

    def tampered(classes, max_stage=None):
        fam = find(classes, max_stage)
        # e^3 has the nominal degree of slot (2, 3), and d e^3 != 0
        fam.entries[(2, 3)] = axpy(dict(fam.entries.get((2, 3), {})), 1,
                                   pc_const(dga.one_form(3)).items())
        return fam
    monkeypatch.setattr(engine, "find_defining_system", tampered)
    with pytest.raises(NotADefiningSystem, match="escapes the corner"):
        engine.massey(word)


def _concrete_samples(fam, coords, field):
    """Sample classes as a concrete ``related_cocycle`` per sampled
    connection: the origin, then +-1 on each of the first six free
    variables, one per distinct coordinate vector."""
    out, seen = [], set()
    for assign in [{}] + [{v: field.of(s)} for v in fam.free_vars()[:6]
                          for s in (1, -1)]:
        sig = frozenset((key, y) for key, p in coords.items()
                        if (y := p.evaluate(assign, field)) != 0)
        if sig not in seen:
            seen.add(sig)
            out.append(related_cocycle(fam.at(assign)))
    return out


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
def test_sample_classes_are_concrete_related_cocycles(field):
    dga, e1, e2 = _wplus_gens(field=field)
    sampled = 0
    for budget in (8, 40):
        engine = MasseyEngine(dga, budget=budget, homogeneous_aux=False)
        for word in itertools.chain(*(itertools.product((e1, e2), repeat=n)
                                      for n in (4, 5))):
            out = engine.massey(list(word))
            if out.status != "sampled":
                continue
            fam = engine.find_defining_system(list(word))
            want = _concrete_samples(fam, out.value_coords, field)
            assert [c.rep for c in out.classes] == want
            assert out.representative.rep == want[0]
            sampled += len(want) > 1
    assert sampled >= 4


def _outcome_key(out):
    """Everything an outcome reports, with no reference to its window."""
    return (out.status, out.triviality, out.complete, out.inconclusive,
            None if out.representative is None else out.representative.rep,
            [c.rep for c in out.classes], out.value_coords)


def test_shared_window_outcomes_equal_fresh_window_outcomes(monkeypatch):
    """What one search leaves on a window (bases, solvers, the cached entry
    degrees) changes no later search: W+ words of lengths 4-6 at budgets
    0, 8 and 40 on one window, and criterion-8 products through the shared
    m0 windows, give what a fresh window gives for each search."""

    def wplus_word(dga, word, budget):
        gens = {g: dga.class_of(dga.one_form(g)) for g in (1, 2)}
        gens.update((w, _h2_class(dga, w)) for w in (5, 7) if dga.q_max > 3)
        engine = MasseyEngine(dga, budget=budget, homogeneous_aux=False)
        try:
            return _outcome_key(engine.massey([gens[g] for g in word]))
        except WindowTooSmall:
            return "WindowTooSmall"

    # words in e1, e2; then words with one H^2 class (weight 5 or 7), whose
    # entries range over 2-forms as well
    words = [(14, 3, word) for length in (4, 5, 6)
             for word in itertools.product((1, 2), repeat=length)]
    words += [(12, 4, word) for length in (3, 4) for c in (5, 7)
              for word in sorted(set(itertools.permutations(
                  (c, 1, 1, 2)[:length])))]
    shared = {}
    statuses = set()
    for budget in (0, 8, 40):
        for w_max, q_max, word in words:
            if (w_max, q_max) not in shared:
                shared[w_max, q_max] = w_window(w_max, q_max)
            got = wplus_word(shared[w_max, q_max], word, budget)
            want = wplus_word(w_window(w_max, q_max), word, budget)
            assert got == want, (word, budget)
            statuses.add(got[0] if isinstance(got, tuple) else got)
    assert {"affine", "sampled", "undefined"} <= statuses

    rng = random.Random(8)
    cases = [{"family": fam, "n": n, "alpha": Fraction(rng.randint(1, 4)),
              "beta": Fraction(rng.randint(-4, 4)),
              "l": rng.randint(0, n - 1)}
             for n in (3, 4) for fam in "ABC" for _ in range(4)]
    cases += [{"family": "D", "n": 4, "alpha": Fraction(rng.randint(-4, 4)),
               "beta": Fraction(rng.randint(-4, 4))} for _ in range(4)]
    got = [_outcome_key(classify_1d_massey(c)) for c in cases]
    for case, key in zip(cases, got):
        monkeypatch.setattr(lie, "_m0_window_cache", {})
        assert _outcome_key(classify_1d_massey(case)) == key, case
    assert {key[0] for key in got} == {"affine", "sampled"}


class _WalkEveryDegree(MasseyEngine):
    """The search without the spent-budget stop: its direction loop reads
    every entry degree of a slot, also after a direction was dropped.  The
    library step runs with no entry degrees, then this loop enters the
    directions as the library did before the stop."""
    _walk = True

    def _entry_aux_degrees(self, nominal):
        return super()._entry_aux_degrees(nominal) if self._walk else []

    def _solve_slot(self, fam, classes, i, j, nominal):
        self._walk = False
        try:
            fam = super()._solve_slot(fam, classes, i, j, nominal)
        finally:
            self._walk = True
        if isinstance(fam, Undefined):
            return fam
        entry = fam.entries.get((i, j), {})
        for deg in self._entry_aux_degrees(nominal):
            for kvec in self.dga.cohomology_basis(deg).representatives:
                if len(fam.params) >= self.budget:
                    fam.complete = False
                    break
                var = len(fam.params)
                direction = self.dga.from_vector(kvec, deg)
                fam.params.append(ParamInfo(var, (i, j), deg, "class",
                                            direction))
                axpy(entry, 1, ((m, Poly.var(var, c))
                                for m, c in direction.items()))
        if entry:
            fam.entries[(i, j)] = entry
        return fam


def test_spent_budget_stop_changes_no_outcome_and_reads_less(monkeypatch):
    """Once a slot has dropped a direction, the search reads no further
    entry degree.  On the weight-14 W+ window, words of length 4-5 at
    budgets 0, 1, 2 and 8 give the outcomes and parameters of a search
    that walks every degree, with fewer cohomology_basis reads."""
    reads = {}

    def run(cls, budget):
        dga = w_window(14, 3)
        count = reads.setdefault(cls, [0])
        basis = dga.cohomology_basis

        def counted(deg):
            count[0] += 1
            return basis(deg)
        monkeypatch.setattr(dga, "cohomology_basis", counted)
        gens = [dga.class_of(dga.one_form(g)) for g in (1, 2)]
        engine = cls(dga, budget=budget, homogeneous_aux=False)
        out = []
        for word in itertools.chain(*(itertools.product((0, 1), repeat=n)
                                      for n in (4, 5))):
            classes = [gens[g] for g in word]
            fam = engine.find_defining_system(classes)
            got = engine.massey(classes)
            out.append((got.status, got.triviality, got.complete,
                        got.inconclusive, getattr(fam, "params", None)))
        return out

    dropped = 0
    for budget in (0, 1, 2, 8):
        got = run(MasseyEngine, budget)
        assert got == run(_WalkEveryDegree, budget), budget
        dropped += sum(not key[2] for key in got)
    assert dropped > 0
    assert reads[MasseyEngine][0] < reads[_WalkEveryDegree][0]
