"""Simplicial complexes on [m], induced subcomplexes, reduced cohomology
and the per-subset table of multigraded Betti numbers.

A complex is stored by its minimal non-faces (an antichain of subsets of
size >= 2, so every element of [m] is a vertex); a subset is a face exactly
when it contains no minimal non-face.  Vertices are 1-based; bitmask
arithmetic keeps the face tests cheap.

The faces are enumerated once per complex, on first use, as bitmasks
grouped by size; the faces of an induced subcomplex K_I are the masks
contained in I.  Dimensions of reduced cohomology are rank-only: no
kernel or quotient basis is built for them (``ReducedCohomology.dim``).
For the whole table the rank path is resumed (``linalg.extend_pivots``):
``hochster_table`` walks the subsets once, each extending its parent's
elimination of the faces with 3 or more vertices.  Degree zero is read
off the 1-skeleton, with no elimination: over every field the vertex rows
of a nonempty K_I have rank 1, the edge rows rank |I| - c(I) for the c(I)
``components`` (proof at ``hochster_table``), and the cycles of
``quotient(0)`` are the components' indicators (proof there).
``ReducedCohomology.classes`` and ``reduce`` are the one transport between
face-keyed cochains and quotient coordinates.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field as dc_field

from .errors import CapExceeded, InvalidInput
from .fields import QQ, Field, integer, json_entries, json_object
from .linalg import EchelonSolver, QuotientBasis, cached, extend_pivots, rank

HOCHSTER_CAP = 14


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def _unmask(mask: int) -> tuple:
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


@dataclass
class SimplicialComplex:
    m: int
    minimal_nonfaces: list  # sorted tuples of vertices, an antichain

    def __post_init__(self):
        check_vertices(self.m, ())
        nfs = sorted({tuple(sorted(set(nf))) for nf in self.minimal_nonfaces})
        for nf in nfs:
            if len(nf) < 2:
                raise InvalidInput("singleton non-face: every i must be a vertex")
            check_vertices(self.m, nf, "non-face")
        masks = [_mask(nf) for nf in nfs]
        for i, a in enumerate(masks):
            for j, b in enumerate(masks):
                if i != j and a & b == a:
                    raise InvalidInput("minimal non-faces must form an antichain")
        self.minimal_nonfaces = nfs
        self._nf_masks = masks
        self._faces = None

    # ---- basic structure -------------------------------------------------
    def is_face_mask(self, mask: int) -> bool:
        return all(nf & mask != nf for nf in self._nf_masks)

    def is_face(self, vertices) -> bool:
        return self.is_face_mask(_mask(vertices))

    def face_table(self) -> list:
        """Entry k: the (vertex tuple, mask) pairs of the k-vertex faces in
        lexicographic order, enumerated once and kept on K (``_faces``).  A
        face f grows only by a vertex v above its top one, and f + v is a
        face unless it contains a minimal non-face topped by v."""
        if self._faces is None:
            below: list = [[] for _ in range(self.m + 1)]
            for nf, nm in zip(self.minimal_nonfaces, self._nf_masks):
                below[nf[-1]].append(nm ^ 1 << (nf[-1] - 1))
            levels = [[0]]
            while levels[-1]:
                levels.append([f | 1 << (v - 1) for f in levels[-1]
                               for v in range(f.bit_length() + 1, self.m + 1)
                               if all(r & f != r for r in below[v])])
            self._faces = [sorted((_unmask(f), f) for f in level)
                           for level in levels[:-1]]
        return self._faces

    def faces_of_dim(self, q: int, within=None) -> list:
        """Faces with q + 1 vertices (q = -1 gives the empty face)."""
        I = -1 if within is None else _mask(within)
        return [t for t, _f in faces_within(self.face_table(), q + 1, I)]

    def facets(self) -> list:
        return [t for level in self.face_table() for t, f in level
                if not any(self.is_face_mask(f | 1 << v)
                           for v in range(self.m) if not f >> v & 1)]

    def dim(self) -> int:
        return max((len(f) for f in self.facets()), default=0) - 1

    def to_json(self) -> str:
        return json.dumps({"m": self.m,
                           "minimal_nonfaces": [list(nf) for nf in
                                                self.minimal_nonfaces]},
                          sort_keys=True)

    @staticmethod
    def from_json(data) -> "SimplicialComplex":
        data = json_object(data, "complex", "m")
        m = integer(data["m"], "vertex count m")
        for key, make in (("minimal_nonfaces", SimplicialComplex),
                          ("facets", from_facets)):
            if key in data:
                return make(m, [tuple(integer(v, "vertex") for v in s)
                                for s in json_entries(data, key,
                                                      "complex JSON", list)])
        raise InvalidInput("complex JSON needs minimal_nonfaces or facets")


def faces_within(levels: list, size: int, mask: int) -> list:
    """The (vertex tuple, mask) pairs of a face table (``face_table``) with
    ``size`` vertices that lie inside ``mask``."""
    if not 0 <= size < len(levels):
        return []
    return [tf for tf in levels[size] if tf[1] & mask == tf[1]]


def _join(comps: list, bit: int, nbrs: int) -> list:
    """Merge ``bit`` with the components meeting ``nbrs``; it goes last."""
    joined = sum((c for c in comps if c & nbrs), bit)
    return [c for c in comps if not c & joined] + [joined]


def components(levels: list, mask: int) -> list:
    """The components of the 1-skeleton of K_I as vertex masks, ordered by
    largest vertex (a mask's bit length); ``levels`` is K's face table and
    ``mask`` is I.  Each edge merges the components of its two ends."""
    comps = [f for _t, f in faces_within(levels, 1, mask)]
    for _t, e in faces_within(levels, 2, mask):
        comps = _join(comps, 0, e)
    return sorted(comps, key=int.bit_length)


def from_facets(m: int, facets: list) -> SimplicialComplex:
    """Complex generated by the given facets (all of [m] must appear)."""
    check_vertices(m, itertools.chain(*facets), "facet")
    fmasks = [_mask(f) for f in facets]
    if _mask(itertools.chain(*facets)) != (1 << m) - 1:
        raise InvalidInput("every element of [m] must be a vertex")
    nonfaces = []
    # minimal non-faces: non-faces all of whose proper subsets are faces
    for r in range(2, m + 1):
        for combo in itertools.combinations(range(1, m + 1), r):
            cm = _mask(combo)
            if any(cm & fm == cm for fm in fmasks):
                continue
            if all(any((cm ^ (1 << (v - 1))) & fm == (cm ^ (1 << (v - 1)))
                       for fm in fmasks) for v in combo):
                nonfaces.append(combo)
    return SimplicialComplex(m, nonfaces)


def induced(K: SimplicialComplex, I) -> SimplicialComplex:
    """Induced subcomplex on I, relabeled to [|I|] by sorted order."""
    I = sorted(I)
    relabel = {v: i + 1 for i, v in enumerate(I)}
    iset = set(I)
    nfs = [tuple(relabel[v] for v in nf)
           for nf in K.minimal_nonfaces if set(nf) <= iset]
    return SimplicialComplex(len(I), nfs)


def join(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    """Join: K2's vertices are shifted past K1's."""
    nfs = list(K1.minimal_nonfaces)
    nfs += [tuple(v + K1.m for v in nf) for nf in K2.minimal_nonfaces]
    return SimplicialComplex(K1.m + K2.m, nfs)


def is_flag(K: SimplicialComplex) -> bool:
    return all(len(nf) == 2 for nf in K.minimal_nonfaces)


def skeleton1(K: SimplicialComplex) -> dict:
    """1-skeleton as an adjacency dict {vertex: set of neighbours}."""
    adj = {v: set() for v in range(1, K.m + 1)}
    for u, v in K.faces_of_dim(1):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_chordal(graph: dict) -> bool:
    """Chordality via repeated removal of simplicial vertices (a perfect
    elimination ordering exists iff the graph is chordal)."""
    adj = {v: set(ns) for v, ns in graph.items()}
    remaining = set(adj)
    while remaining:
        simplicial = None
        for v in sorted(remaining):
            nbrs = adj[v] & remaining
            if all(b in adj[a] for a, b in itertools.combinations(sorted(nbrs), 2)):
                simplicial = v
                break
        if simplicial is None:
            return False
        remaining.discard(simplicial)
    return True


def flag_complex(m: int, edges) -> SimplicialComplex:
    """Clique complex of a graph: minimal non-faces are the non-edges."""
    eset = {tuple(sorted(e)) for e in edges}
    nfs = [e for e in itertools.combinations(range(1, m + 1), 2)
           if e not in eset]
    return SimplicialComplex(m, nfs)


def graph_complex(m: int, edges) -> SimplicialComplex:
    """The graph itself as a 1-dimensional complex."""
    eset = {tuple(sorted(e)) for e in edges}
    nfs = [e for e in itertools.combinations(range(1, m + 1), 2)
           if e not in eset]
    nfs += [t for t in itertools.combinations(range(1, m + 1), 3)
            if all(tuple(sorted(p)) in eset
                   for p in itertools.combinations(t, 2))]
    return SimplicialComplex(m, nfs)


# ---- reduced simplicial cohomology ----------------------------------------

def _coboundary_rows(faces) -> list:
    """Rows of the reduced coboundary C^q -> C^{q+1}, one per (q+1)-face
    mask f in ``faces``, keyed by facet masks, with (-1)^t at f - v, t the
    number of vertices of f below v."""
    rows = []
    for f in faces:
        row, rest, sign = {}, f, 1
        while rest:
            bit = rest & -rest
            row[f ^ bit] = sign
            rest, sign = rest ^ bit, -sign
        rows.append(row)
    return rows


class ReducedCohomology:
    """Reduced cohomology of an induced subcomplex K_I over a field.  It
    keeps K's faces, not K, so that ``reduced_cache`` on K is no cycle."""

    def __init__(self, K: SimplicialComplex, within=None, field: Field = QQ):
        self.within = tuple(sorted(within)) if within is not None \
            else tuple(range(1, K.m + 1))
        self.field = field
        self._mask = _mask(self.within)
        self._levels = K.face_table()
        self._qb: dict = {}
        self._ranks: dict | None = None

    def quotient(self, q: int) -> QuotientBasis:
        """Cycles of C~^q(K_I) modulo boundaries.  In degree 0 the cycles
        are the indicators of the ``components`` of the 1-skeleton, since
        d x = 0 says x_u = x_v on each edge.  ``kernel_basis`` of the edge
        rows gives the same list: the pivots are the leftmost independent
        columns, so the free ones are the components' largest vertices, and
        the vector 1 at one of them, 0 at the rest, is an indicator."""
        def build():
            one = self.field.one()
            below, faces, above = ([f for _t, f in faces_within(
                self._levels, q + s, self._mask)] for s in range(3))
            src = {f: i for i, f in enumerate(faces)}
            if q == 0:
                cycles = [{i: one for f, i in src.items() if f & c}
                          for c in components(self._levels, self._mask)]
            else:
                cycles = EchelonSolver(self.field, len(src), [
                    {src[g]: one * c for g, c in row.items()}
                    for row in _coboundary_rows(above)]).kernel_basis()
            images: dict = {f: {} for f in below}
            for i, row in enumerate(_coboundary_rows(faces)):
                for g, c in row.items():
                    images[g][i] = one * c
            boundaries = [img for img in images.values() if img]
            return QuotientBasis(self.field, len(src), cycles, boundaries)
        return cached(self._qb, q, build)

    def dim(self, q: int) -> int:
        """dim H~^q(K_I) = n_q - rank d_q - rank d_{q-1}: n_q counts the
        q-faces of K_I and d_q: C^q -> C^{q+1} is the reduced coboundary, a
        row per (q+1)-face.  No kernel or quotient basis is built.  The
        first call takes the rank of every face size's rows and caches
        (rows, rank) per degree on this object (``_ranks``), both 0
        outside."""
        if self._ranks is None:
            self._ranks = {}
            for size in range(min(len(self.within) + 1, len(self._levels))):
                faces = [f for _t, f in faces_within(self._levels, size,
                                                     self._mask)]
                self._ranks[size - 2] = (
                    len(faces), rank(_coboundary_rows(faces), self.field))
        n_q, rank_prev = self._ranks.get(q - 1, (0, 0))
        return n_q - self._ranks.get(q, (0, 0))[1] - rank_prev

    def basis_faces(self, q: int) -> list:
        return [t for t, _f in faces_within(self._levels, q + 1, self._mask)]

    def classes(self, q: int) -> list:
        """The representatives of ``quotient(q)`` as cochains keyed by face
        tuple, in basis order."""
        faces = self.basis_faces(q)
        return [{faces[i]: c for i, c in rep.items()}
                for rep in self.quotient(q).representatives]

    def reduce(self, q: int, cochain: dict) -> dict:
        """Coordinates of the class of a face-keyed q-cocycle in
        ``classes(q)``; ``InvalidInput`` off the cycles."""
        if not cochain:
            return {}
        idx = {t: i for i, t in enumerate(self.basis_faces(q))}
        return self.quotient(q).reduce({idx[t]: c for t, c in cochain.items()})


def check_cap(m: int) -> None:
    """``CapExceeded`` for more than ``HOCHSTER_CAP`` vertices: the
    Hochster table and the R(K) window walk all 2^m vertex subsets."""
    if m > HOCHSTER_CAP:
        raise CapExceeded(f"m = {m} exceeds the cap {HOCHSTER_CAP}")


def check_vertices(m: int, vertices, kind: str = "support") -> None:
    """``InvalidInput`` unless m >= 0, then every ``kind`` vertex in 1..m."""
    if m < 0:
        raise InvalidInput(f"need m >= 0 vertices, got {m}")
    bad = [v for v in vertices if not 1 <= v <= m]
    if bad:
        raise InvalidInput(f"{kind} vertex {bad[0]} is not in 1..{m}")


def reduced_cache(K: SimplicialComplex, within, field: Field = QQ) -> ReducedCohomology:
    """Induced-subcomplex cohomology data, cached on K (``K._rc_cache``);
    the heavy sweeps hit the same (K, I, field) triples repeatedly.  The
    vertices are checked on a miss, so a hit pays nothing."""
    key = (tuple(sorted(within)) if within is not None else None, field)

    def build():
        check_vertices(K.m, key[0] or ())
        return ReducedCohomology(K, within, field)
    return cached(K.__dict__.setdefault("_rc_cache", {}), key, build)


@dataclass
class BettiTable:
    """Nonzero entries (homological index, vertex subset) -> dimension."""

    field_tag: str
    entries: dict = dc_field(default_factory=dict)

    def total(self) -> dict:
        """Dims of H^p(Z_K) by total degree p = |I| + q + 1."""
        out: dict = {}
        for (i, I), d in self.entries.items():
            p = 2 * len(I) - i
            out[p] = out.get(p, 0) + d
        return out

    def to_json(self) -> dict:
        return {
            "field": self.field_tag,
            "entries": [{"i": i, "I": list(I), "dim": d}
                        for (i, I), d in sorted(self.entries.items(),
                                                key=lambda kv: (sorted(kv[0][1]),
                                                                kv[0][0]))],
        }

    def to_csv(self) -> str:
        lines = ["i,I,dim"]
        for (i, I), d in sorted(self.entries.items(),
                                key=lambda kv: (sorted(kv[0][1]), kv[0][0])):
            lines.append(f"{i},{' '.join(str(v) for v in I)},{d}")
        return "\n".join(lines) + "\n"


def hochster_table(K: SimplicialComplex, field: Field = QQ) -> BettiTable:
    """Per-subset Betti numbers: the (i, I) entry is the dimension of the
    reduced cohomology of K_I in degree q = |I| - i - 1, that is
    n_q - rank d_q - rank d_{q-1} as in ``ReducedCohomology.dim``.

    One depth-first walk over the subsets: I grows to I + v for each v
    above its top vertex, so every subset is reached once.  Per face size
    the walk carries the face count of K_I and, for faces of 3 or more
    vertices, the pivot dict of the rank loop over their coboundary rows
    (``extend_pivots``), whose size is the rank.  A child extends these by
    the faces of K_(I+v) topped by v alone and leaves its parent's state as
    it was.  This is exact: a face inside I has all its facets inside I, so
    the rows of K_I are rows of K_(I+v) unchanged, and the lead set of the
    combined rows is that of their span, whatever the order the rows came
    in.  The new faces of 1 and 2 vertices are v and its (below[v] &
    I).bit_count() edges; from 3 vertices up the rows are filtered, and the
    walk stops at the first size with no new face: a face with s + 1 >= 3
    vertices topped by v has a facet with s vertices topped by v.

    The rows of faces with 1 and 2 vertices are not eliminated, since
    their ranks are known over every field.  Each vertex row is the
    augmentation {empty face: 1}, so these rows have rank 1 when I is
    nonempty.  The row of an edge uv is e_v - e_u: every edge row sums to
    0 over each connected component of the 1-skeleton of K_I, and the
    edges of a spanning forest give |I| - c(I) independent rows (a leaf's
    edge is the only row with a nonzero entry at the leaf), where c(I)
    counts the components.  So the edge rows have rank |I| - c(I).  The
    walk carries the components as vertex masks; I + v merges v with the
    components that meet its neighbours below v (``_join``)."""
    check_cap(K.m)
    levels = K.face_table()
    # topped[v][size]: (mask, coboundary row) of the faces topped by v with
    # size >= 3 vertices; below[v]: the neighbours of v below v
    topped = [[[] for _ in levels] for _ in range(K.m + 1)]
    for size, level in enumerate(levels[3:], 3):
        masks = [f for _t, f in level]
        for f, row in zip(masks, _coboundary_rows(masks)):
            topped[f.bit_length()][size].append((f, row))
    below = [0] * (K.m + 1)
    for (u, v), f in faces_within(levels, 2, -1):
        below[v] |= 1 << (u - 1)
    entries: dict = {}

    def visit(I: tuple, mask: int, comps: list, counts: list, pivots: list):
        r = len(I)
        # row ranks per face size: the empty face's row is empty
        ranks = [0, min(r, 1), r - len(comps)] + [len(p) for p in pivots[3:]]
        for q in range(-1, min(r, len(levels) - 1)):
            d = counts[q + 1] - ranks[q + 2] - ranks[q + 1]
            if d:
                entries[(r - q - 1, I)] = d
        for v in range(I[-1] + 1 if I else 1, K.m + 1):
            child = mask | 1 << (v - 1)
            counts_v, pivots_v = counts[:], pivots[:]
            counts_v[1] += 1
            counts_v[2] += (below[v] & mask).bit_count()
            for size in range(3, len(levels)):
                new = [row for f, row in topped[v][size] if f & child == f]
                if not new:
                    break
                counts_v[size] += len(new)
                pivots_v[size] = extend_pivots(pivots[size], new, field)
            visit(I + (v,), child, _join(comps, 1 << (v - 1), below[v]),
                  counts_v, pivots_v)

    # the empty face is the one face of K_(), and its row is empty
    visit((), 0, [], [1] + [0] * len(levels), [{}] * (len(levels) + 1))
    return BettiTable(field.tag, entries)
