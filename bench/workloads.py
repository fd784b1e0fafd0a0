"""The four benchmark workloads: inputs built from the seed, the fixed job
list of one pass, and the oracles that check the outputs.

The seed drives a vertex relabeling of every complex, a permutation of the
variables of every monomial ring, the random 6-vertex complexes and the
criterion-8 parameters.  masseykit only ever sees the generated JSON (CLI
jobs read it on stdin) or objects parsed back from it (library jobs).

Oracles check mathematical facts only -- never a recorded verdict label --
so a change that turns a proven verdict into ``unknown`` fails no oracle
unless it breaks one of the facts below.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable

WORKLOADS = ("hochster", "zk-scan", "lie-massey", "koszul")

RANDOM_COMPLEXES = 10   # hochster: random 6-vertex complexes per pass


@dataclass
class Job:
    """One unit of work.  A CLI job runs ``masseykit.cli.main(argv)`` with
    ``stdin`` as standard input; a library job calls ``call()``, which
    returns a JSON-able summary of the result."""

    name: str
    argv: list | None = None
    stdin: str = ""
    call: Callable | None = None
    first_line: bool = False   # counted in first_line_s


@dataclass
class Oracle:
    """A fact about the outputs of ``jobs``; ``check(outputs)`` gets the
    outputs of those jobs in order and returns an error message or None.
    A CLI job's output is its stdout text; a library job's its summary."""

    name: str
    jobs: tuple
    check: Callable


@dataclass
class Workload:
    jobs: list = field(default_factory=list)
    oracles: list = field(default_factory=list)

    def cli(self, name, argv, stdin="", first_line=True):
        self.jobs.append(Job(name, argv=list(argv), stdin=stdin,
                             first_line=first_line))

    def lib(self, name, call):
        self.jobs.append(Job(name, call=call))

    def oracle(self, name, jobs, check):
        self.oracles.append(Oracle(name, tuple(jobs), check))


def build(workload: str, seed: int) -> Workload:
    if workload not in _WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return _WORKLOADS[workload](seed)


# ---- seeded input helpers --------------------------------------------------

def permutation(n: int, rng: random.Random) -> dict:
    """A seeded bijection of {1..n}."""
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return {i + 1: v for i, v in enumerate(image)}


def inverse(perm: dict) -> dict:
    return {v: k for k, v in perm.items()}


def relabeled(m: int, nonfaces, perm: dict) -> str:
    """Complex JSON with every vertex v renamed perm[v]."""
    nfs = sorted(sorted(perm[v] for v in nf) for nf in nonfaces)
    return json.dumps({"m": m, "minimal_nonfaces": nfs}, sort_keys=True)


def random_complex(m: int, rng: random.Random) -> list:
    """Minimal non-faces of a seeded random complex on [m]: candidate
    non-faces of size 2-4, reduced to an antichain."""
    cands = [c for size, p in ((2, 0.35), (3, 0.12), (4, 0.05))
             for c in itertools.combinations(range(1, m + 1), size)
             if rng.random() < p]
    out = []
    for nf in cands:  # sizes ascend, so supersets come after their subsets
        if not any(set(o) <= set(nf) for o in out):
            out.append(nf)
    return out


def permuted_ring(n: int, gens, perm: dict, rng: random.Random) -> str:
    """Ring JSON with variable i renamed perm[i] (1-based), generators in a
    seeded order."""
    out = []
    for g in gens:
        exp = [0] * n
        for i, e in enumerate(g):
            exp[perm[i + 1] - 1] = e
        out.append(exp)
    rng.shuffle(out)
    return json.dumps({"n": n, "gens": out}, sort_keys=True)


# ---- output parsing --------------------------------------------------------

def betti_table(text: str) -> dict:
    payload = json.loads(text)
    return {(e["i"], tuple(e["I"])): e["dim"] for e in payload["entries"]}


def mapped(table: dict, perm: dict) -> dict:
    """Relabel the subsets of a Betti table through perm."""
    return {(i, tuple(sorted(perm[v] for v in I))): d
            for (i, I), d in table.items()}


def scan_lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def outcome_summary(outcome) -> dict:
    return {"status": outcome.status, "triviality": outcome.triviality,
            "complete": outcome.complete, "defined": outcome.defined}


def _diff(name, got, want):
    if got == want:
        return None
    return f"{name}: got {got!r}, want {want!r}"


# ---- hochster ----------------------------------------------------------------

def polygon_table(m: int) -> dict:
    """Closed-form Betti table of the m-gon: K_I is a circle for I = [m],
    otherwise c disjoint paths with reduced H^0 of rank c - 1."""
    out = {(0, ()): 1}
    for r in range(1, m + 1):
        for I in itertools.combinations(range(1, m + 1), r):
            if r == m:
                out[(m - 2, I)] = 1
                continue
            iset = set(I)
            comps = sum(1 for v in I if (v - 2) % m + 1 not in iset)
            if comps > 1:
                out[(r - 1, I)] = comps - 1
    return out


def duality_error(text: str, dim_zk: int):
    """Z_K of a sphere K is a closed manifold of dimension m + dim K + 1, so
    its total Betti numbers are palindromic with b_0 = b_top = 1."""
    total = {int(p): v for p, v in json.loads(text)["total"].items()}
    if total.get(0) != 1 or total.get(dim_zk) != 1:
        return f"b_0, b_{dim_zk} = {total.get(0)}, {total.get(dim_zk)}"
    for p, v in total.items():
        if total.get(dim_zk - p, 0) != v:
            return f"b_{p} = {v} but b_{dim_zk - p} = {total.get(dim_zk - p, 0)}"
    return None


def hochster(seed: int) -> Workload:
    from masseykit.generators import dodecahedron_nerve, polygon, qn

    rng = random.Random(f"hochster:{seed}")
    w = Workload()
    dod, p8, q3 = dodecahedron_nerve(), polygon(8), qn(3)
    s_dod, s_p8, s_q3 = permutation(12, rng), permutation(8, rng), \
        permutation(8, rng)
    dod_json = relabeled(12, dod.minimal_nonfaces, s_dod)
    p8_json = relabeled(8, p8.minimal_nonfaces, s_p8)
    for tag, field_tag in (("q", "q"), ("fp2", "fp:2")):
        w.cli(f"betti.dodecahedron.{tag}", ["betti", "--field", field_tag],
              dod_json)
        w.cli(f"betti.polygon8.{tag}", ["betti", "--field", field_tag],
              p8_json)
    w.cli("betti.q3.q", ["betti"], relabeled(8, q3.minimal_nonfaces, s_q3))
    rand = []
    for i in range(RANDOM_COMPLEXES):
        nfs = random_complex(6, rng)
        perm = permutation(6, rng)
        rand.append(perm)
        # m <= 7: the CLI also cross-checks Hochster against R(K) itself
        w.cli(f"betti.random{i}", ["betti"],
              json.dumps({"m": 6, "minimal_nonfaces": nfs}, sort_keys=True))
        w.cli(f"betti.random{i}.relabeled", ["betti"],
              relabeled(6, nfs, perm))

    for name in ("dodecahedron", "polygon8"):
        w.oracle(f"{name}: Q and GF(2) tables agree",
                 (f"betti.{name}.q", f"betti.{name}.fp2"),
                 lambda a, b: _diff("tables", betti_table(a), betti_table(b)))
    for job, dim_zk in (("betti.dodecahedron.q", 12 + 3),
                        ("betti.polygon8.q", 8 + 2), ("betti.q3.q", 8 + 3)):
        w.oracle(f"{job}: Poincare duality of Z_K", (job,),
                 lambda t, d=dim_zk: duality_error(t, d))
    w.oracle("polygon8: relabeled table is the m-gon's", ("betti.polygon8.q",),
             lambda t: _diff("table", mapped(betti_table(t), inverse(s_p8)),
                             polygon_table(8)))
    for i, perm in enumerate(rand):
        w.oracle(f"random{i}: table maps under the relabeling",
                 (f"betti.random{i}", f"betti.random{i}.relabeled"),
                 lambda a, b, p=perm: _diff(
                     "table", mapped(betti_table(b), inverse(p)),
                     betti_table(a)))
    spot = sorted(rng.sample(range(1, 1 << 12), 24))
    w.oracle("dodecahedron: sampled subsets match the unrelabeled complex",
             ("betti.dodecahedron.q",),
             lambda t: _dodecahedron_spot_check(t, dod, s_dod, spot))
    return w


def _dodecahedron_spot_check(text, dod, perm, masks):
    from masseykit.simplicial import ReducedCohomology

    table = betti_table(text)
    for mask in masks:
        I = tuple(v for v in range(1, 13) if mask >> (v - 1) & 1)
        rc = ReducedCohomology(dod, I)
        J = tuple(sorted(perm[v] for v in I))
        for q in range(-1, len(I)):
            got = table.get((len(I) - q - 1, J), 0)
            if got != rc.dim(q):
                return f"I={I} q={q}: {got} != {rc.dim(q)}"
    return None


# ---- zk-scan ---------------------------------------------------------------

def _disjoint_triples(pairs) -> int:
    return sum(1 for a, b, c in itertools.permutations(pairs, 3)
               if not (set(a) & set(b) or set(a) & set(c) or set(b) & set(c)))


def zk_scan(seed: int) -> Workload:
    from masseykit.facerings import triple_massey_scan
    from masseykit.fields import QQ
    from masseykit.generators import dodecahedron_nerve, polygon, qn
    from masseykit.simplicial import SimplicialComplex

    rng = random.Random(f"zk-scan:{seed}")
    w = Workload()
    p8, q3, q4, p7 = polygon(8), qn(3), qn(4), polygon(7)
    dod = dodecahedron_nerve()
    s_p8, s_q3, s_q4 = permutation(8, rng), permutation(8, rng), \
        permutation(q4.m, rng)
    s_p7 = permutation(7, rng)
    q3_json = relabeled(8, q3.minimal_nonfaces, s_q3)
    q3_obj = SimplicialComplex.from_json(q3_json)
    # the one complex kept in its generator's labeling: the stop scan's cost
    # is set by where the first nontrivial triple falls in the scan order
    # (0.2-0.7 s over relabelings), which would make this workload's cost a
    # function of the seed; hochster relabels the same complex
    dod_obj = SimplicialComplex.from_json(dod.to_json())

    w.cli("triple-scan.polygon8", ["triple-scan"],
          relabeled(8, p8.minimal_nonfaces, s_p8))
    w.cli("triple-scan.q3", ["triple-scan"], q3_json)
    w.lib("scan-h0.q3", lambda: [
        [list(a), list(b), list(c), outcome_summary(o)]
        for a, b, c, o in triple_massey_scan(q3_obj, QQ, support_mode="h0")])
    w.lib("scan-h0-stop.dodecahedron", lambda: [
        [list(a), list(b), list(c), outcome_summary(o)]
        for a, b, c, o in triple_massey_scan(dod_obj, QQ, support_mode="h0",
                                             stop_on_nontrivial=True)])
    q4_supports = [(i, 4 + i) for i in (1, 2, 3, 4)]
    w.cli("massey.q4", ["massey", "--budget", "16", "--supports",
                        ";".join(f"{s_q4[a]},{s_q4[b]}" for a, b in q4_supports)],
          relabeled(q4.m, q4.minimal_nonfaces, s_q4), first_line=False)
    w.cli("golod.polygon7", ["golod"], relabeled(7, p7.minimal_nonfaces, s_p7),
          first_line=False)

    missing8 = [e for e in itertools.combinations(range(1, 9), 2)
                if not p8.is_face(e)]
    want_lines = _disjoint_triples(missing8)

    def polygon_scan(text):
        lines = scan_lines(text)
        if len(lines) != want_lines:
            return f"{len(lines)} products, want {want_lines}"
        bad = [ln["supports"] for ln in lines
               if ln["triviality"] == "nontrivial"]
        return f"nontrivial polygon triples {bad[:3]}" if bad else None
    w.oracle("polygon8: every ordered disjoint missing-edge triple, "
             "none nontrivial", ("triple-scan.polygon8",), polygon_scan)

    q3_triple = [sorted((s_q3[i], s_q3[i + 3])) for i in (1, 2, 3)]

    def strict_nontrivial(found):
        if found is None:
            return f"triple {q3_triple} not scanned"
        return _diff("triple (1,4),(2,5),(3,6)",
                     (found["status"], found["triviality"]),
                     ("strict", "nontrivial"))
    w.oracle("Q3: triple on (1,4),(2,5),(3,6) is strict and nontrivial",
             ("triple-scan.q3",), lambda t: strict_nontrivial(next(
                 (ln for ln in scan_lines(t)
                  if ln["supports"] == q3_triple), None)))
    w.oracle("Q3 h0 scan: triple on (1,4),(2,5),(3,6) is strict and "
             "nontrivial", ("scan-h0.q3",), lambda res: strict_nontrivial(next(
                 (r[3] for r in res if r[:3] == q3_triple), None)))
    w.oracle("dodecahedron h0 scan stops on a strict nontrivial product",
             ("scan-h0-stop.dodecahedron",), lambda res: _diff(
                 "last outcome", (res[-1][3]["status"],
                                  res[-1][3]["triviality"]) if res else None,
                 ("strict", "nontrivial")))
    w.oracle("Q4: 4-fold product is strict and nontrivial", ("massey.q4",),
             lambda t: _diff("outcome", (json.loads(t)["status"],
                                         json.loads(t)["triviality"]),
                             ("strict", "nontrivial")))
    # Z_K of a polygon is a closed manifold with classes below the top
    # degree, so Poincare duality gives a nonzero product
    w.oracle("polygon7: multiplication is nontrivial", ("golod.polygon7",),
             lambda t: _diff("multiplication_trivial",
                             json.loads(t)["multiplication_trivial"], False))
    return w


# ---- lie-massey ------------------------------------------------------------

WORD_WINDOW = 14                 # W+ window weight for the word sweep
WORD_LENGTHS = (4, 5, 6)
WORD_BUDGETS = (0, 8, 40)
STAIRCASE_K = range(2, 8)


def criterion8_cases(rng: random.Random) -> list:
    """Seeded members of the product families A-D over m0, all of which are
    defined and trivial."""
    def r():
        return Fraction(rng.randint(-4, 4))
    cases = []
    for n in (3, 4):
        for _ in range(20):
            a, b = r(), r()
            if (a, b) == (0, 0):
                a = Fraction(1)
            cases.append({"family": "A", "n": n, "alpha": a, "beta": b})
            cases.append({"family": "B", "n": n,
                          "alpha": a if a != 0 else Fraction(1), "beta": b})
            cases.append({"family": "C", "n": n, "alpha": a,
                          "l": rng.randint(0, n - 1)})
        if n % 2 == 0:
            for _ in range(20):
                cases.append({"family": "D", "n": n, "alpha": r(),
                              "beta": r()})
    return cases


def goncharova_error(text, q_max, w_max):
    """Goncharova: dim H^q_w(W+) is 1 at the two pentagonal weights
    (3q^2 -+ q)/2 and 0 elsewhere."""
    got = {(e["q"], e["w"]): e["dim"] for e in json.loads(text)["entries"]}
    want = {(q, w): 1 for q in range(1, q_max + 1)
            for w in ((3 * q * q - q) // 2, (3 * q * q + q) // 2)
            if w <= w_max}
    return _diff("nonzero dims", got, want)


def lie_massey(seed: int) -> Workload:
    from masseykit import lie
    from masseykit.massey import MasseyEngine

    rng = random.Random(f"lie-massey:{seed}")
    w = Workload()
    for q_max, w_max in ((3, 30), (4, 24)):
        w.cli(f"goncharova.{q_max}.{w_max}",
              ["goncharova", "--qmax", str(q_max), "--wmax", str(w_max)])
        w.oracle(f"goncharova {q_max}/{w_max}: pentagonal weights",
                 (f"goncharova.{q_max}.{w_max}",),
                 lambda t, a=q_max, b=w_max: goncharova_error(t, a, b))

    window = {}

    def words(length, budget):
        if not window:
            dga = lie.ce_window(lie.witt_plus(WORD_WINDOW), 3, WORD_WINDOW)
            window["dga"] = dga
            window["gens"] = (dga.class_of(dga.one_form(1)),
                              dga.class_of(dga.one_form(2)))
        dga = window["dga"]
        engine = MasseyEngine(dga, budget=budget, homogeneous_aux=False)
        return [outcome_summary(engine.massey(list(word)))
                for word in itertools.product(window["gens"], repeat=length)]
    for budget in WORD_BUDGETS:
        for length in WORD_LENGTHS:
            w.lib(f"wplus.words.len{length}.budget{budget}",
                  lambda n=length, b=budget: words(n, b))

    def staircase(k):
        w_max = 2 * k + 3
        dga = lie.ce_window(lie.m0(w_max), 3, w_max)
        e1 = dga.class_of(dga.one_form(1))
        e2 = dga.class_of(dga.one_form(2))
        engine = MasseyEngine(dga, budget=40, homogeneous_aux=False)
        return outcome_summary(engine.massey([e2] + [e1] * (2 * k - 3) + [e2]))
    for k in STAIRCASE_K:
        w.lib(f"m0.staircase.k{k}", lambda k=k: staircase(k))
        # lie.staircase_connection is an explicit defining system
        w.oracle(f"m0 staircase k={k} is defined", (f"m0.staircase.k{k}",),
                 lambda out: _diff("defined", out["defined"], True))

    for i, case in enumerate(criterion8_cases(rng)):
        name = f"criterion8.{i}.{case['family']}{case['n']}"
        w.lib(name, lambda c=case: outcome_summary(lie.classify_1d_massey(c)))
        w.oracle(f"{name}: defined and trivial", (name,),
                 lambda out: _diff("outcome", (out["defined"],
                                               out["triviality"]),
                                   (True, "trivial")))
    return w


# ---- koszul ----------------------------------------------------------------

CUBE_RING = (3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)])
ANR = ((2, 2), (3, 2), (2, 3))


def serre_error(text):
    """Serre: the Poincare series is bounded coefficientwise by
    (1+t)^n / (1 - sum_i b_i t^(i+1))."""
    payload = json.loads(text)
    for i, (t, b) in enumerate(zip(payload["tor_dims"],
                                   payload["serre_bound"])):
        if Fraction(t) > Fraction(b):
            return f"Tor_{i} = {t} exceeds the Serre bound {b}"
    return None


def anr_error(text, n, r):
    """A_{n,r} = k[x_1..x_n]/m^r: Koszul Betti numbers
    C(i+r-2, r-1) C(n+r-1, i+r-1), and the ring is Golod."""
    payload = json.loads(text)
    want = {str(i): comb(i + r - 2, r - 1) * comb(n + r - 1, i + r - 1)
            for i in range(1, n + 1)}
    got = {k: v for k, v in payload["koszul_betti"].items() if k != "0"}
    return _diff("koszul betti", got, want) or \
        _diff("golod equality", payload["golod_equality"], True)


def koszul(seed: int) -> Workload:
    from masseykit.generators import anr

    rng = random.Random(f"koszul:{seed}")
    w = Workload()
    n, gens = CUBE_RING
    cube_json = permuted_ring(n, gens, permutation(n, rng), rng)
    for order in (6, 8):
        w.cli(f"poincare.cube.order{order}",
              ["poincare", "--order", str(order)], cube_json)
    for n, r in ANR:
        ring = anr(n, r)
        w.cli(f"poincare.anr{n}{r}", ["poincare", "--order", "6"],
              permuted_ring(n, ring.generators, permutation(n, rng), rng))
        w.oracle(f"anr({n},{r}): closed-form Koszul Betti numbers, Golod",
                 (f"poincare.anr{n}{r}",),
                 lambda t, n=n, r=r: anr_error(t, n, r))
    for job in [j.name for j in w.jobs]:
        w.oracle(f"{job}: Serre bound holds", (job,), serre_error)

    def truncation(a, b):
        a, b = json.loads(a), json.loads(b)
        return _diff("koszul betti", a["koszul_betti"], b["koszul_betti"]) \
            or _diff("Tor_0..6", a["tor_dims"], b["tor_dims"][:7])
    w.oracle("cube ring: order 6 is the truncation of order 8",
             ("poincare.cube.order6", "poincare.cube.order8"), truncation)
    return w


_WORKLOADS = {"hochster": hochster, "zk-scan": zk_scan,
            "lie-massey": lie_massey, "koszul": koszul}
