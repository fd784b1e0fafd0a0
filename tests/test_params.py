"""The Poly kernel against evaluation and a naive product, seed-fixed."""

import random
from fractions import Fraction

import pytest

from masseykit.fields import GF, QQ, Fp
from masseykit.params import Poly

N_VARS = 4


def _scalar(field, rng, nonzero=False):
    while True:
        if field.p is None:
            x = field.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        else:
            x = field.of(rng.randrange(field.p))
        if x != 0 or not nonzero:
            return x


def _poly(field, rng, n_terms=4):
    terms = {}
    for _ in range(rng.randint(0, n_terms)):
        mono = tuple(sorted(rng.randrange(N_VARS)
                            for _ in range(rng.randint(0, 3))))
        terms[mono] = _scalar(field, rng, nonzero=True)
    return Poly(terms)


def naive_mul(p, q):
    """Every pair of terms, summed, zeros dropped at the end."""
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = tuple(sorted(m1 + m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def _no_zero(p, field):
    """No stored zero, and over GF(p) every coefficient a residue: an int 2
    stored over GF(2) compares unequal to 0 and is still zero there."""
    return all(c != 0 and (field.p is None or type(c) is Fp)
               for c in p.terms.values())


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)],
                         ids=["Q", "GF2", "GF3"])
def test_poly_arithmetic_commutes_with_evaluation(field):
    """p*q, p+q, -p, p*c, c*p and substitution evaluate as the scalars
    they are built from, and no result stores a zero coefficient (over
    GF(2), where 1 == -1, p + p and p - p cancel to nothing)."""
    rng = random.Random(2022 + (field.p or 0))
    ev = 0
    for _ in range(300):
        p, q = _poly(field, rng), _poly(field, rng)
        c = rng.choice([_scalar(field, rng), 1, -1, 2, field.one()])
        at = {v: _scalar(field, rng) for v in range(N_VARS)}
        pv, qv = p.evaluate(at, field), q.evaluate(at, field)
        for got, want in [(p * q, pv * qv), (p + q, pv + qv), (p - q, pv - qv),
                          (-p, -pv), (p * c, pv * c), (c * p, c * pv),
                          (p + p, pv + pv), (p - p, 0)]:
            assert got.evaluate(at, field) == want
            assert _no_zero(got, field)
        assert (p * q).terms == naive_mul(p, q)
        assert (p - p).is_zero()
        if field.p == 2:
            assert (p + p).is_zero()
        # substitution: some variables to Polys, some to scalars
        subst = {}
        for v in rng.sample(range(N_VARS), rng.randint(0, N_VARS)):
            subst[v] = _poly(field, rng, 2) if rng.random() < 0.6 else \
                _scalar(field, rng)
        inner = {v: (s.evaluate(at, field) if isinstance(s, Poly) else s)
                 for v, s in subst.items()}
        got = p.substitute(subst)
        assert _no_zero(got, field)
        assert got.evaluate(at, field) == p.evaluate({**at, **inner}, field)
        ev += 1
    assert ev == 300


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)],
                         ids=["Q", "GF2", "GF3"])
def test_poly_unit_and_constant_factors_match_the_naive_product(field):
    """p * 1, p * Poly.const(1) and Poly.const(c) * p hold exactly the
    terms of the naive product, also with an int factor that vanishes
    over GF(p)."""
    rng = random.Random(99 + (field.p or 0))
    for _ in range(200):
        p = _poly(field, rng, 6)
        c = _scalar(field, rng)
        for got, other in [(p * 1, Poly.const(1)),
                           (p * field.one(), Poly.const(field.one())),
                           (p * Poly.const(1), Poly.const(1)),
                           (p * Poly.const(c), Poly.const(c)),
                           (Poly.const(c) * p, Poly.const(c)),
                           (p * Poly(), Poly())]:
            assert got.terms == naive_mul(p, other)
            assert _no_zero(got, field)
        if field.p is not None:
            assert (p * field.p).is_zero()
            assert (Poly.const(field.one()) * p * (field.p + 1)).terms == \
                p.terms


def test_substitution_that_cancels_over_gf2_is_zero():
    """t0*t1 + t0*t2 at t1 = t2 = 1 is 2*t0, which is zero over GF(2): no
    term survives, whether the values are residues, ints or constant
    Polys."""
    F = GF(2)
    one = F.one()
    p = Poly({(0, 1): one, (0, 2): one})
    for val in (one, 1, Poly.const(one)):
        got = p.substitute({1: val, 2: val})
        assert got.is_zero() and got == Poly() and hash(got) == hash(Poly())
    # a kept variable with a unit coefficient keeps a residue coefficient
    got = Poly({(0, 1): one}).substitute({1: 1})
    assert got.terms == {(0,): one} and type(got.terms[(0,)]) is Fp


def _residues(p):
    """Every stored coefficient is a nonzero residue."""
    return all(type(c) is Fp and c != 0 for c in p.terms.values())


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=["GF2", "GF3"])
def test_poly_coefficients_stay_nonzero_residues(field):
    """Over GF(p) a ``Poly`` stores nonzero residues only: after + and -
    between Polys, * with Polys and with ints (also ints that vanish in the
    field) and substitution of int values.  A ``Poly`` adds Polys and 0
    only, so a nonzero scalar on either side of + or - is a TypeError,
    and p + 0, 0 + p and p - 0 are p."""
    rng = random.Random(30 + field.p)
    for _ in range(200):
        p, q = _poly(field, rng), _poly(field, rng)
        n = rng.randint(-2 * field.p, 2 * field.p)
        ints = {v: rng.randint(-3, 3) for v in rng.sample(
            range(N_VARS), rng.randint(1, N_VARS))}
        for got in (p + q, p - q, q - p, p - p, p * q, p * n, n * p,
                    p * field.p, (p + q) * (p - q), p.substitute(ints)):
            assert _residues(got)
        assert p + 0 is p and 0 + p is p and (p - 0).terms == p.terms
        assert p + field.zero() is p
        assert sum([p, q]) == p + q
        for c in (1, -1, field.p + 1, field.one(), Fraction(1, 2)):
            for bad in (lambda: p + c, lambda: c + p, lambda: p - c,
                        lambda: c - p):
                with pytest.raises(TypeError):
                    bad()
