"""N-graded Lie algebra presentations and their Chevalley-Eilenberg windows.

Built-in presentations: the positive Witt algebra W+ with [e_i, e_j] =
(j-i) e_{i+j}, and the infinite filiform algebra m0 with [e_1, e_i] =
e_{i+1}.  A window materializes the exterior complex up to a top degree and
weight; the differential is dual to the bracket with the sign fixed so that
d e^3 = e^1 ^ e^2 in m0.  Weight is preserved by d, so per-weight cohomology
of a window agrees with the full algebra whenever the weight fits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .dga import CohomologyClass, DGAlgebra, MultiDegree, merge_sorted
from .errors import DomainError, InvalidInput, MixedDegree, WindowTooSmall
from .fields import (QQ, Field, integer, json_entries, json_object,
                     rational)
from .linalg import axpy, cached


@dataclass
class GradedLie:
    """Finite-weight truncation of an N-graded Lie algebra.

    Brackets are stored for i < j only, as lists of (k, coefficient); the
    coefficients live in Q and get coerced into a window's field later.
    """

    name: str
    weights: dict  # generator index -> weight
    brackets: dict  # (i, j), i < j -> list of (k, coeff)
    truncation_weight: int

    def __post_init__(self):
        for g, w in self.weights.items():
            if w < 0:
                raise InvalidInput(f"generator {g} has negative weight {w}")
        for (i, j), terms in self.brackets.items():
            if i >= j:
                raise InvalidInput("brackets must be keyed by i < j")
            for g in (i, j, *(k for k, _c in terms)):
                if g not in self.weights:
                    raise InvalidInput(
                        f"bracket [{i},{j}] names {g}, which is not a "
                        "generator")
            for k, _c in terms:
                if self.weights[k] != self.weights[i] + self.weights[j]:
                    raise InvalidInput(
                        f"bracket [{i},{j}] -> {k} violates weight additivity")

    @property
    def generators(self) -> list:
        return sorted(self.weights)

    def bracket(self, i: int, j: int) -> list:
        if i == j:
            return []
        if i < j:
            return list(self.brackets.get((i, j), []))
        return [(k, -c) for k, c in self.brackets.get((j, i), [])]

    def jacobi_defect(self, i: int, j: int, k: int) -> dict:
        """[[i,j],k] + [[j,k],i] + [[k,i],j] as a dict over generators."""
        out: dict = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            for m, cm in self.bracket(a, b):
                axpy(out, cm, self.bracket(m, c))
        return out

    def jacobi_failure(self) -> tuple | None:
        """The first triple i < j < k of generators, of total weight at
        most the truncation weight, whose Jacobi defect is nonzero; None
        when the bracket satisfies Jacobi there."""
        w = self.weights
        return next((t for t in itertools.combinations(self.generators, 3)
                     if sum(w[g] for g in t) <= self.truncation_weight
                     and self.jacobi_defect(*t)), None)

    @staticmethod
    def from_json(data) -> "GradedLie":
        data = json_object(data, "Lie presentation")
        if "name" in data:
            name = data["name"]
            json_object(data, f"Lie presentation {name!r}", "W")
            W = integer(data["W"], "W")
            if name == "m0":
                return m0(W)
            if name == "witt_plus":
                return witt_plus(W)
            raise InvalidInput(f"unknown Lie presentation {name!r}")
        what = "Lie presentation JSON"
        weights = {integer(g["i"], "generator index"):
                   integer(g["w"], "Lie weight") for g in json_entries(
                       data, "generators", what, dict, "i", "w")}
        brackets = {}
        for n, b in enumerate(json_entries(data, "brackets", what, dict,
                                           "i", "j", "terms")):
            i, j = (integer(b[k], "bracket index") for k in "ij")
            brackets[(i, j)] = [(integer(t["k"], "bracket index"), rational(
                t["c"], "bracket coefficient")) for t in json_entries(
                    b, "terms", f"{what} brackets[{n}]", dict, "k", "c")]
        W = integer(data.get("W", max(weights.values(), default=0)), "W")
        lie = GradedLie("custom", weights, brackets, W)
        # Jacobi is d d = 0 on a CE window; without it ranks of d mean nothing
        if bad := lie.jacobi_failure():
            raise InvalidInput(
                "brackets violate the Jacobi identity on generators "
                f"{', '.join(map(str, bad))}")
        return lie


def m0(W: int) -> GradedLie:
    """Infinite filiform algebra truncated at weight W: [e1, e_i] = e_{i+1}."""
    if W < 2:
        raise InvalidInput("need W >= 2")
    weights = {i: i for i in range(1, W + 1)}
    brackets = {(1, i): [(i + 1, 1)] for i in range(2, W) if i + 1 <= W}
    return GradedLie("m0", weights, brackets, W)


def witt_plus(W: int) -> GradedLie:
    """Positive part of the Witt algebra truncated at weight W."""
    if W < 2:
        raise InvalidInput("need W >= 2")
    weights = {i: i for i in range(1, W + 1)}
    brackets = {}
    for i in range(1, W + 1):
        for j in range(i + 1, W + 1):
            if i + j <= W:
                brackets[(i, j)] = [(i + j, j - i)]
    return GradedLie("witt_plus", weights, brackets, W)


class CEAlgebra(DGAlgebra):
    """Window of the Chevalley-Eilenberg complex with trivial coefficients.

    Monomials are strictly increasing tuples of generator indices; the
    bidegree of e^{i1} ^ ... ^ e^{iq} is (q, sum of weights).
    """

    def __init__(self, lie: GradedLie, q_max: int, w_max: int, field: Field = QQ):
        if w_max > lie.truncation_weight:
            raise InvalidInput("window weight exceeds the algebra truncation")
        super().__init__(field)
        self.lie = lie
        self.q_max = q_max
        self.q_store = q_max + 1
        self.w_max = w_max
        self._gens = [g for g in lie.generators if lie.weights[g] <= w_max]
        self._levels: dict = {}
        # e^k |-> terms of d e^k, from the reversed bracket table
        self._dgen: dict = {g: [] for g in self._gens}
        for (i, j), terms in lie.brackets.items():
            for k, c in terms:
                if k in self._dgen:
                    self._dgen[k].append(((i, j), field.of(c)))

    aux_len = 1

    # ---- window hooks ---------------------------------------------------
    def in_window(self, deg: MultiDegree) -> bool:
        (w,) = deg.aux
        return 0 <= deg.q <= self.q_store and 0 <= w <= self.w_max

    def basis(self, deg: MultiDegree) -> list:
        def build():
            self._require(deg)
            return self._level(deg.q)[1].get(deg.aux[0], [])
        return cached(self._bases, deg, build)

    def _level(self, q: int) -> tuple:
        """The monomials of q factors, as (monomial, weight, position of the
        last generator) triples and bucketed by weight: level q - 1 in
        lexicographic order, each monomial extended by every window
        generator above its last index that keeps the weight <= w_max.
        Every bucket comes out in lexicographic order of generator indices,
        the order that fixes basis indices.  Exact because no weight is
        negative: a prefix heavier than w_max has no extension in the
        window.  Cached per level; the triples are what level q + 1
        extends."""
        def build():
            if q == 0:
                return [((), 0, -1)], {0: [()]}
            gens, w_max = self._gens, self.w_max
            wts = [self.lie.weights[g] for g in gens]
            flat, buckets = [], {}
            for mono, w, pos in self._level(q - 1)[0]:
                for i in range(pos + 1, len(gens)):
                    w2 = w + wts[i]
                    if w2 <= w_max:
                        m2 = mono + (gens[i],)
                        flat.append((m2, w2, i))
                        buckets.setdefault(w2, []).append(m2)
            return flat, buckets
        return cached(self._levels, q, build)

    def degree_of_mono(self, mono) -> MultiDegree:
        return MultiDegree(len(mono), (sum(self.lie.weights[g] for g in mono),))

    def d_mono(self, mono) -> list:
        out: dict = {}
        for t, g in enumerate(mono):
            rest = mono[:t] + mono[t + 1:]
            sign_t = 1 if t % 2 == 0 else -1
            for (a, b), c in self._dgen.get(g, ()):
                merged = merge_sorted(rest, (a, b))
                if merged is not None:
                    axpy(out, sign_t * merged[1], ((merged[0], c),))
        return list(out.items())

    def mul_mono(self, m1, m2) -> list:
        merged = merge_sorted(m1, m2)
        if merged is None:
            return []
        mono, sgn = merged
        deg = self.degree_of_mono(mono)
        if not self.in_window(deg):
            raise WindowTooSmall(
                f"product of weight {deg.aux[0]} exceeds the window (w_max={self.w_max})")
        return [(mono, self.field.of(sgn))]

    def window_degrees(self) -> list:
        return [MultiDegree(q, (w,))
                for q in range(0, self.q_store + 1)
                for w in range(0, self.w_max + 1)]

    # ---- helpers --------------------------------------------------------
    def one_form(self, *terms) -> dict:
        """Cochain from (index, coeff) pairs or bare indices."""
        out: dict = {}
        for t in terms:
            if isinstance(t, tuple):
                g, c = t
            else:
                g, c = t, 1
            axpy(out, 1, (((g,), self.field.of(c)),))
        return out

    def deg(self, q: int, w: int) -> MultiDegree:
        return MultiDegree(q, (w,))


def ce_window(g: GradedLie, q_max: int, w_max: int, field: Field = QQ) -> CEAlgebra:
    return CEAlgebra(g, q_max, w_max, field)


def cohomology_table(g: GradedLie, q_max: int, w_max: int,
                     field: Field = QQ) -> dict:
    """Per-bidegree dimensions of H^q_w(g) for 1 <= q <= q_max and
    1 <= w <= w_max, in that order."""
    dga = ce_window(g, q_max, w_max, field)
    return {(q, w): dga.cohomology_dim(dga.deg(q, w))
            for q in range(1, q_max + 1) for w in range(1, w_max + 1)}


def goncharova_table(q_max: int, w_max: int, field: Field = QQ) -> dict:
    """Per-bidegree dimensions of H^q_w(W+) for q <= q_max, w <= w_max."""
    return cohomology_table(witt_plus(w_max), q_max, w_max, field)


def pentagonal_weights(q: int) -> tuple:
    return ((3 * q * q - q) // 2, (3 * q * q + q) // 2)


# ---- the omega cocycle calculus on Lambda(e^2, e^3, ...) -----------------

def _check_domain(mono) -> None:
    if any(g < 2 for g in mono):
        raise DomainError("operator defined only on forms in e^2, e^3, ...")


def d1(x: dict) -> dict:
    """Derivation with D1(e^2) = 0, D1(e^i) = e^{i-1}; weight drops by one."""
    out: dict = {}
    for mono, c in x.items():
        _check_domain(mono)
        axpy(out, 1, ((tuple(sorted(mono[:t] + (g - 1,) + mono[t + 1:])), c)
                      for t, g in enumerate(mono)
                      if g != 2 and g - 1 not in mono))
    return out


def _power(op, x: dict, k: int) -> dict:
    for _ in range(k):
        if not x:
            return {}
        x = op(x)
    return x


def d1_power(x: dict, k: int) -> dict:
    return _power(d1, x, k)


def _tail(prefix: dict, start: int, out: dict) -> dict:
    """In place: out += sum_l (-1)^l D1^l(prefix) ^ e^{start+l}."""
    sign = 1
    while prefix:
        if any(pm and pm[-1] >= start for pm in prefix):
            raise DomainError("prefix indices must stay below the appended one")
        axpy(out, sign, ((pm + (start,), pc) for pm, pc in prefix.items()))
        prefix, sign, start = d1(prefix), -sign, start + 1
    return out


def d_minus1(x: dict) -> dict:
    """Right inverse of D1: on xi ^ e^i (i the top index) it is
    sum_l (-1)^l D1^l(xi) ^ e^{i+1+l}."""
    out: dict = {}
    for mono, c in x.items():
        _check_domain(mono)
        _tail({mono[:-1]: c}, mono[-1] + 1, out)
    return out


def d_minus1_power(x: dict, k: int) -> dict:
    return _power(d_minus1, x, k)


def omega_of(phi: dict, m: int) -> dict:
    """Extended omega on arguments phi ^ e^m ^ e^{m+1}:
    sum_l (-1)^l D1^l(phi ^ e^m) ^ e^{m+1+l}."""
    psi: dict = {}
    for mono, c in phi.items():
        merged = merge_sorted(mono, (m,))
        if merged is not None:
            axpy(psi, merged[1], ((merged[0], c),))
    return _tail(psi, m + 1, {})


@dataclass
class OmegaCocycle:
    """Closed (q+1)-form omega(e^{i1} ^ ... ^ e^{iq} ^ e^{iq+1}) of weight
    i1 + ... + i_{q-1} + 2 iq + 1, given by its strictly increasing index
    tuple (i1, ..., iq)."""

    indices: tuple
    form: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        idx = tuple(self.indices)
        if not idx or any(i < 2 for i in idx) or list(idx) != sorted(set(idx)):
            raise InvalidInput("indices must satisfy 2 <= i1 < ... < iq")
        object.__setattr__(self, "indices", idx)
        if not self.form:
            self.form = omega_of({idx[:-1]: 1}, idx[-1])

    @property
    def weight(self) -> int:
        return sum(self.indices[:-1]) + 2 * self.indices[-1] + 1

    @property
    def q(self) -> int:
        return len(self.indices) + 1


def omega(*indices) -> OmegaCocycle:
    """The cocycle omega(e^{i1} ^ ... ^ e^{iq} ^ e^{iq+1}) for indices
    2 <= i1 < ... < iq, given separately or as one tuple.

    Normalization: the top monomial e^{i1} ^ ... ^ e^{iq} ^ e^{iq+1} has
    coefficient +1.  For one index k,

        omega(k) = sum_{l=0}^{k-2} (-1)^l e^{k-l} ^ e^{k+1+l}
                 = sum_{r=1}^{k-1} (-1)^{k-1-r} e^{r+1} ^ e^{2k-r},

    so omega(3) = e^3 ^ e^4 - e^2 ^ e^5, and the coefficient of
    e^2 ^ e^{2k-1} is (-1)^k.  The cocycle normalized by +1 on
    e^2 ^ e^{2k-1} instead is (-1)^k omega(k); see ``staircase_connection``
    for where the two normalizations part.
    """
    if len(indices) == 1 and isinstance(indices[0], (tuple, list)):
        indices = tuple(indices[0])
    return OmegaCocycle(tuple(indices))


def _filiform_connection(dga: CEAlgebra, n: int, last: dict, column):
    """The shape both explicit m0 defining systems share: e^2 at (1, 1),
    e^1 on the inner diagonal, first row (-1)^{j+1} e^{j+1}, ``last`` at
    (n, n) and ``column(i)`` at (i, n) for 1 < i < n."""
    from .massey import FormalConnection

    entries = {(1, 1): dga.one_form(2), (n, n): last}
    for i in range(2, n):
        entries[(i, i)] = dga.one_form(1)
        entries[(1, i)] = dga.one_form((i + 1, 1 if i % 2 else -1))
        entries[(i, n)] = column(i)
    return FormalConnection(dga, n, entries)


def staircase_connection(dga: CEAlgebra, k: int):
    """Explicit defining system for <e^2, e^1 x (2k-3), e^2> over m0.

    First row (-1)^{j+1} e^{j+1}, inner diagonal e^1, last column descending
    powers; the related cocycle is 2 (-1)^k omega(e^k ^ e^{k+1}).

    Derivation.  The convention is the one in ``masseykit.massey`` (May,
    "Matric Massey products", 1969; Kraines, "Massey higher products",
    1966): mu(i, j) = d a(i, j) - sum_r bar(a(i, r)) ^ a(r+1, j), with value
    c(A) = sum_r bar(a(1, r)) ^ a(r+1, n).  Every entry of a defining system
    for a product of 1-classes is a 1-form, and bar is the identity on
    1-forms, so c(A) = sum_r a(1, r) ^ a(r+1, n).  In m0, d e^{i+1} =
    e^1 ^ e^i.

    With n = 2k - 1 the entries are a(1, 1) = a(n, n) = e^2,
    a(i, i) = e^1 for 1 < i < n, a(1, j) = (-1)^{j+1} e^{j+1} and
    a(i, n) = e^{n+2-i} for 1 < i, j < n, all others 0.  Each inner slot
    (i, j) != (1, n) has a zero defect: d a(1, j) = (-1)^{j+1} e^1 ^ e^j =
    a(1, j-1) ^ e^1, and likewise down the last column.

    k = 3 by hand (classes e^2, e^1, e^1, e^1, e^2): the first row is
    -e^3, e^4, -e^5, the last column e^5, e^4, e^3, and

        c(A) = e^2 ^ e^5 + (-e^3) ^ e^4 + e^4 ^ e^3 + (-e^5) ^ e^2
             = 2 e^2 ^ e^5 - 2 e^3 ^ e^4 = -2 omega(3).

    General k: the r-th term is (-1)^{r+1} e^{r+1} ^ e^{2k-r} for every
    1 <= r <= n - 1 (the end terms r = 1 and r = n - 1 included).  The terms
    r and n - r are equal, since swapping the factors and
    (-1)^{n-r+1} = (-1)^r give the same sign, so

        c(A) = 2 sum_{r=1}^{k-1} (-1)^{r+1} e^{r+1} ^ e^{2k-r}
             = 2 (-1)^k omega(k)

    by the closed form of ``omega``.  The value is +2 omega(k) for even k
    and -2 omega(k) for odd k.

    Other sign conventions do not remove the factor (-1)^k.  Under
    dA + A ^ A = 0 (bar = -1 on 1-forms), or with d replaced by -d, a
    defining system B for the inputs x_i makes -B a defining system in the
    convention above for the inputs -x_i, with the same corner sum; scaling
    the n inputs by -1 scales the value set by (-1)^n.  So the value changes
    at most by a sign fixed by n = 2k - 1 odd, the same for every k.

    Normalization: the value is +2 times the cocycle normalized by +1 on
    e^2 ^ e^{2k-1}, which is (-1)^k omega(k).  "2 omega(e^k ^ e^{k+1}) is a
    value" holds verbatim for that normalization and for even k; with
    omega normalized by +1 on e^k ^ e^{k+1}, as here, the value is
    2 (-1)^k omega(k).
    """
    if k < 2:
        raise InvalidInput("need k >= 2")
    n = 2 * k - 1
    return _filiform_connection(dga, n, dga.one_form(2),
                                lambda i: dga.one_form(n + 2 - i))


def omega_tail_connection(dga: CEAlgebra, i1: int, tail: OmegaCocycle):
    """Explicit defining system for <e^2, e^1 x (i1-2), omega(...)>: first row
    (-1)^{j+1} e^{j+1}, inner diagonal e^1, last column with shift-operator
    powers applied to the closing cocycle."""
    if i1 < 3:
        raise InvalidInput("need i1 >= 3")
    f = dga.field
    return _filiform_connection(
        dga, i1, {m: f.of(c) for m, c in tail.form.items()},
        lambda i: {m: f.of(c)
                   for m, c in d_minus1_power(tail.form, i1 - i).items()})


def five_fold_connection(dga: CEAlgebra, t=0):
    """One-parameter family of defining systems for the conjugated 5-fold
    product <e^1, e^2, -e^1, -2e^1, -e^2> over W+, with related cocycle
    (e^2 ^ e^5 - 3 e^3 ^ e^4) + t e^2 ^ e^3."""
    from .massey import FormalConnection

    f = dga.field
    t = f.of(t)
    e = dga.one_form
    entries = {
        (1, 1): e(1), (2, 2): e(2), (3, 3): e((1, -1)),
        (4, 4): e((1, -2)), (5, 5): e((2, -1)),
        (1, 2): e(3), (1, 3): e(4), (1, 4): e(5),
        (2, 3): e(3), (2, 4): e(4),
        (3, 4): e((2, -1)),
        (3, 5): {(4,): f.of(-1), (2,): -t} if t != 0 else {(4,): f.of(-1)},
        (4, 5): e((3, 2)),
    }
    entries = {k: {m: c for m, c in v.items() if c != 0}
               for k, v in entries.items()}
    return FormalConnection(dga, 5, {k: v for k, v in entries.items() if v})


def one_dim_classes(dga: CEAlgebra, scalars) -> list:
    """Classes alpha e^1 + beta e^2 from (alpha, beta) pairs; mixed-weight
    representatives get the nominal degree label (1, 0)."""
    out = []
    for a, b in scalars:
        rep = dga.one_form((1, a), (2, b))
        if not rep:
            raise InvalidInput("zero class")
        if dga.d(rep):
            raise InvalidInput("representative not closed")
        try:
            deg = dga.degree_of(rep)
        except MixedDegree:
            deg = MultiDegree(1, (0,))
        out.append(CohomologyClass(dga, deg, rep))
    return out


def triple_criterion(scalars) -> bool:
    """Vanishing of b1 (a2 b3 - a3 b2) - b3 (a1 b2 - a2 b1): triviality of
    the triple product of alpha_i e^1 + beta_i e^2 over m0."""
    (a1, b1), (a2, b2), (a3, b3) = scalars
    return b1 * (a2 * b3 - a3 * b2) - b3 * (a1 * b2 - a2 * b1) == 0


def family_scalars(tag: str, n: int, params: dict) -> list:
    """(alpha, beta) tuples for the named trivial product families over m0.

    A: n equal classes alpha e^1 + beta e^2.
    B: classes (i alpha + beta) e^1 + e^2.
    C: e^1 x l, then e^2 + alpha e^1, then e^1 x (n - l - 1).
    D: e^2 + alpha e^1, e^1 x 2k, e^2 + beta e^1 (n = 2k + 2).
    """
    if tag == "A":
        a, b = params["alpha"], params["beta"]
        return [(a, b)] * n
    if tag == "B":
        a, b = params["alpha"], params["beta"]
        if a == 0:
            raise InvalidInput("family B needs alpha != 0")
        return [(i * a + b, 1) for i in range(1, n + 1)]
    if tag == "C":
        a, l = params["alpha"], params["l"]
        if not 0 <= l <= n - 1:
            raise InvalidInput("need 0 <= l <= n-1")
        out = [(1, 0)] * l + [(a, 1)] + [(1, 0)] * (n - l - 1)
        return out
    if tag == "D":
        if n < 4 or n % 2 != 0:
            raise InvalidInput("family D needs n = 2k + 2, k >= 1")
        a, b = params["alpha"], params["beta"]
        return [(a, 1)] + [(1, 0)] * (n - 2) + [(b, 1)]
    raise InvalidInput(f"unknown family {tag!r}")


_m0_window_cache: dict = {}


def m0_window(w_max: int, field: Field = QQ) -> CEAlgebra:
    """Shared m0 windows up to q = 3, cached in the module-global
    ``_m0_window_cache``: the cached elimination data makes repeated
    searches (classification sweeps) cheap."""
    return cached(_m0_window_cache, (w_max, field),
                  lambda: ce_window(m0(w_max), 3, w_max, field))


def classify_1d_massey(spec, field: Field = QQ):
    """Massey outcome for products of classes alpha e^1 + beta e^2 over m0,
    searched at budget 16 in the window of weights up to 2n + 4.

    ``spec`` is either a list of (alpha, beta) pairs or a dict
    {"family": tag, "n": n, ...family parameters...}.
    """
    from .massey import MasseyEngine

    if isinstance(spec, dict):
        scalars = family_scalars(spec["family"], int(spec["n"]),
                                 {k: v for k, v in spec.items()
                                  if k not in ("family", "n")})
    else:
        scalars = list(spec)
    dga = m0_window(2 * len(scalars) + 4, field)
    scalars = [(field.of(a), field.of(b)) for a, b in scalars]
    classes = one_dim_classes(dga, scalars)
    engine = MasseyEngine(dga, budget=16, homogeneous_aux=False)
    return engine.massey(classes)


def omega_expand(form: dict) -> dict:
    """Expansion of a closed form in Lambda(e^2, e^3, ...) into the omega
    basis, computed by peeling minimal last indices.

    On that subcomplex d F = e^1 ^ D1 F, so closed means D1 F = 0; for such F
    every monomial of minimal last index L must end in (L-1, L) (decrementing
    the last index is injective on the distinct prefixes, so the slice could
    not cancel in D1 F otherwise), and subtracting the matching omega forms
    strictly raises the minimal last index.  Returns {index tuple: coeff}.
    """
    from .errors import UnsupportedOperands

    rest = {m: c for m, c in form.items() if c != 0}
    out: dict = {}
    while rest:
        L = min(m[-1] for m in rest)
        slice_monos = [m for m in rest if m[-1] == L]
        for mono in slice_monos:
            if len(mono) < 2 or mono[-2] != L - 1:
                raise UnsupportedOperands(
                    "form is not closed in Lambda(e^2, ...)")
            c = rest.get(mono, 0)
            if c == 0:
                continue
            out[mono[:-1]] = c
            axpy(rest, -c, omega(mono[:-1]).form.items())
    return out


def m0_product(x, y: OmegaCocycle) -> dict:
    """Product of the listed basis classes of H*(m0), in closed form.

    ``x`` is 1 or 2 (for the classes [e^1], [e^2]) or an OmegaCocycle.
    Products of omega classes stay inside Lambda(e^2, ...), are closed there,
    and expand exactly into omega cocycles; the returned cochain is that
    combination (it equals the wedge product on the nose).
    """
    from .errors import UnsupportedOperands

    if x == 1:
        return {}
    if x == 2:
        if y.indices[0] == 2:
            return {}
        return omega((2,) + y.indices).form
    if not isinstance(x, OmegaCocycle):
        raise UnsupportedOperands(f"unsupported left operand {x!r}")
    wedge: dict = {}
    for m1, c1 in x.form.items():
        for m2, c2 in y.form.items():
            merged = merge_sorted(m1, m2)
            if merged is not None:
                axpy(wedge, merged[1] * c1, ((merged[0], c2),))
    out: dict = {}
    for idx, c in omega_expand(wedge).items():
        axpy(out, c, omega(idx).form.items())
    return out
