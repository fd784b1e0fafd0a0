"""Scalars over Q are ints when integral and Fractions otherwise, never
floats: ``int / int`` is a float, so every quotient must go through
``Field.div``."""

import contextlib
import io
import json
import random
import re
from fractions import Fraction

import pytest

from masseykit import cli
from masseykit.errors import InvalidInput
from masseykit.fields import GF, QQ, Fp
from masseykit.lie import ce_window, m0
from masseykit.linalg import (EchelonSolver, QuotientBasis,
                              lead_columns, rank)
from masseykit.massey import MasseyEngine, conjugate

from oracles import sparse_mul, transpose


def _exact(x) -> bool:
    """An int, or a Fraction; an integral Fraction is allowed only where
    it comes from arithmetic between Fractions."""
    return type(x) is int or type(x) is Fraction


def _all_exact(vectors) -> bool:
    return all(_exact(x) for v in vectors for x in v.values())


def _all_int(vectors) -> bool:
    return all(type(x) is int for v in vectors for x in v.values())


def _entry(rng):
    r = rng.random()
    if r < 0.45:
        return 0
    if r < 0.75:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-4, 4), rng.randint(2, 5))


def _random_rows(rng, n_rows, n_cols, entry):
    rows = [{c: x for c in range(n_cols) if (x := entry(rng)) != 0}
            for _ in range(n_rows)]
    if n_rows > 2:
        # a dependent row, so null rows and obstructions occur
        dep = dict(rows[0])
        for c, v in rows[1].items():
            dep[c] = dep.get(c, 0) - v
        rows.append({c: v for c, v in dep.items() if v})
    return rows


def test_field_of_returns_int_when_integral():
    for x in (3, Fraction(6, 2), "4/2", "-3"):
        assert type(QQ.of(x)) is int
    assert QQ.of("4/2") == 2 and QQ.of(Fraction(6, 2)) == 3
    assert type(QQ.of("1/2")) is Fraction and QQ.of("1/2") == Fraction(1, 2)
    assert type(QQ.zero()) is int and type(QQ.one()) is int
    for x in (3, Fraction(6, 2), "4/2", "1/2"):
        assert type(GF(5).of(x)) is Fp
    assert GF(5).of("1/2") == 3


@pytest.mark.parametrize("make", [
    lambda: QQ.of(0.1), lambda: QQ.of(True), lambda: GF(5).of(2.7),
    lambda: GF(5).of(True),
    lambda: ce_window(m0(6), 2, 6, QQ).one_form((1, 0.1))],
    ids=["QQ-float", "QQ-bool", "GF5-float", "GF5-bool", "one-form"])
def test_field_of_rejects_floats_and_bools(make):
    """A float is not taken as its binary value or cut to an int, and a
    bool is not 1."""
    with pytest.raises(InvalidInput, match="is not exact"):
        make()


@pytest.mark.parametrize("make", [
    lambda: rank([{0: Fraction(1, 3)}], GF(3)),
    lambda: lead_columns([{0: 1, 1: Fraction(1, 3)}], GF(3)),
    lambda: GF(3).of(Fraction(1, 3)),
    lambda: GF(3).of("2/6"),
    lambda: Fp(1, 3) + Fraction(1, 3),
    lambda: Fraction(1, 3) * Fp(1, 3)],
    ids=["rank", "lead_columns", "of", "of-str", "Fp-add", "Fp-rmul"])
def test_a_denominator_divisible_by_p_is_bad_input_everywhere(make):
    """One residue rule: every way a rational enters GF(p) rejects a
    denominator that p divides with the same ``InvalidInput``."""
    with pytest.raises(InvalidInput, match="denominator divisible by 3"):
        make()


def test_residues_agree_on_every_entry_route():
    """A rational taken into GF(p) by ``Field.of``, by ``Fp`` arithmetic
    and by the rank loop is the same residue, and a residue prints as its
    digits while its ``repr`` keeps the modulus."""
    for p in (2, 3, 5, 7):
        F = GF(p)
        for x in (Fraction(n, d) for n in range(-6, 7) for d in range(1, 9)
                  if d % p):
            r = F.of(x)
            assert r == F.zero() + x == x * F.one() == F.of(str(x))
            assert rank([{0: x, 1: 1}, {0: r, 1: 1}], F) == 1
            assert r * x.denominator == F.of(x.numerator)
    assert str(Fp(2, 5)) == "2" and repr(Fp(2, 5)) == "2~5"
    assert str(Fp(-1, 5)) == "4" and f"{Fp(3, 7)}" == "3"
    with pytest.raises(InvalidInput, match="mixed moduli"):
        GF(3).of(Fp(1, 5))


def test_field_div():
    assert type(QQ.div(4, 2)) is int and QQ.div(4, 2) == 2
    assert type(QQ.div(1, -1)) is int and QQ.div(1, -1) == -1
    assert QQ.div(1, 3) == Fraction(1, 3)
    assert type(QQ.div(Fraction(3, 2), Fraction(1, 2))) is int
    assert QQ.div(Fraction(1, 2), 3) == Fraction(1, 6)
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)
    f = GF(7)
    assert f.div(f.one(), f.of(3)) == f.of(5)


def _unit_entry(rng):
    return rng.choice((0, 0, 1, -1))


@pytest.mark.parametrize("entry", (_entry, _unit_entry),
                         ids=("rational", "unit"))
def test_echelon_scalars_are_never_floats(entry):
    """Random matrices, with non-integral entries or with ±1 entries, solved
    through the solver of their transpose.  When the stored E and T rows
    are all ints (every pivot met was a unit), so is every result."""
    rng = random.Random(20261018)
    all_int = 0
    for _ in range(120):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 8)
        rows = _random_rows(rng, n_rows, n_cols, entry)
        solver = EchelonSolver(QQ, n_rows, transpose(rows, n_cols))
        b = sparse_mul(rows, {c: x for c in range(n_cols)
                              if (x := entry(rng))})
        off = dict(b)
        off[0] = off.get(0, 0) + 1
        (part, res), kernel = solver.coordinates(b), solver.null_ts
        vectors = [part, *kernel, *solver.coordinates(off)]
        assert _all_exact(vectors)
        assert not res
        assert sparse_mul(rows, part) == b
        stored = [rec[1] for rec in solver.piv] + \
            [rec[2] for rec in solver.piv] + solver.null_ts
        if _all_int(rows + [b]) and _all_int(stored):
            all_int += 1
            assert _all_int(vectors)
    assert all_int >= (60 if entry is _unit_entry else 0)


def _combination(rng, vectors):
    v: dict = {}
    for w in vectors:
        c = _entry(rng)
        for k, y in w.items():
            v[k] = v.get(k, 0) + c * y
    return {k: y for k, y in v.items() if y}


def test_quotient_scalars_are_never_floats():
    rng = random.Random(1018)
    for _ in range(60):
        dim = rng.randint(2, 7)
        cycles = [{c: x for c in range(dim) if (x := _entry(rng)) != 0}
                  for _ in range(rng.randint(1, 5))]
        cycles = [v for v in cycles if v]
        if not cycles:
            continue
        boundaries = [_combination(rng, cycles[:2])
                      for _ in range(rng.randint(0, 3))]
        qb = QuotientBasis(QQ, dim, cycles, boundaries)
        assert _all_exact(qb.boundary_basis)
        for w in cycles:
            v = _combination(rng, [w, *cycles[:2]])
            red, proj = qb.reduce(v), qb.project(v)
            assert _all_exact([red, proj])
            assert qb.reduce(proj) == red


def test_conjugate_scalars_are_never_floats():
    dga = ce_window(m0(12), 3, 12, QQ)
    e1 = dga.class_of(dga.one_form(1))
    e2 = dga.class_of(dga.one_form(2))
    conn = MasseyEngine(dga, budget=6).find_defining_system(
        [e2, e1, e2]).at({})
    assert _all_int(conn.entries.values())
    unit = [[1, 2, 0, 3], [0, 1, 4, 0], [0, 0, -1, 1], [0, 0, 0, 1]]
    conj = conjugate(conn, unit)
    assert _all_int(conj.entries.values())
    scaled = [[2, 1, 0, 3], [0, 1, 4, 0], [0, 0, 3, 1], [0, 0, 0, 5]]
    conj = conjugate(conn, scaled)
    assert _all_exact(conj.entries.values())
    assert any(type(c) is Fraction for v in conj.entries.values()
               for c in v.values())


def _cli_json(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return json.loads(buf.getvalue())


_SCALAR = re.compile(r"-?\d+(/\d+)?")


def test_cli_scalar_strings_are_exact(tmp_path):
    data = _cli_json(["kstep", "--lie", '{"name": "m0", "W": 12}',
                      "--classes", "1/2,3;2,-1/3;1,1", "--k", "1"])
    strings = [c for pair in data["classes"] for c in pair]
    strings += [t["c"] for cls in data["tuple"] for t in cls]
    assert any("/" in s for s in strings)
    qn3 = tmp_path / "q3.json"
    assert cli.main(["generate", "qn", "--n", "3", "--out", str(qn3)]) == 0
    data = _cli_json(["massey", "--supports", "1,4;2,5;3,6",
                      "--in", str(qn3)])
    strings += [t["c"] for t in data["representative"]]
    for s in strings:
        assert _SCALAR.fullmatch(s), s
        assert not s.endswith("/1"), s
