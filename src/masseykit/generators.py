"""Built-in complexes and rings: cubes, 2-truncated cubes, multiwedges,
polygon boundaries, the reduced power-algebra quotients, and the facet nerve
of the dodecahedron."""

from __future__ import annotations

import hashlib

from .errors import InvalidInput
from .fields import integer
from .monomial import MonomialQuotient, anr
from .simplicial import SimplicialComplex, graph_complex

__all__ = ["cube", "qn", "multiwedge", "anr", "polygon",
           "dodecahedron_nerve", "MonomialQuotient"]


def cube(n: int) -> SimplicialComplex:
    """Boundary structure of the n-cube's facet poset: 2n vertices with
    minimal non-faces the opposite pairs {i, n+i}."""
    if n < 1:
        raise InvalidInput("need n >= 1")
    return SimplicialComplex(2 * n, [(i, n + i) for i in range(1, n + 1)])


def qn(n: int) -> SimplicialComplex:
    """Nerve of the 2-truncated cube: the n-cube with every codimension-two
    face F_k cap F_{n+k+i} (1 <= i <= n-2, k <= n-i) cut off.

    Vertices: the 2n cube facets, then the truncation facets w(k, i) in
    lexicographic (i, k) order.  With the interval [k, k+i] attached to
    w(k, i), the minimal non-faces are exactly

    - originals {k, n+k+i}: opposite pairs (i = 0) and truncated pairs;
    - {w(k, i), p} for bottoms p in (k, k+i];
    - {w(k, i), n+k+l} for tops with 0 <= l <= i-1;
    - {w(k, i), w(k', i')} when the two intervals properly overlap
      (they intersect and neither contains the other).

    Validated for n <= 5 against exact vertex enumeration of the cut cube
    with consecutively shrinking generic truncations, which is the regime
    realizing this quadratic (flag) face ideal.
    """
    if n < 2:
        raise InvalidInput("need n >= 2")
    w_index = {}
    v = 2 * n
    for i in range(1, n - 1):
        for k in range(1, n - i + 1):
            v += 1
            w_index[(k, i)] = v
    nonfaces = []
    for i in range(0, n - 1):
        for k in range(1, n - i + 1):
            nonfaces.append((k, n + k + i))
    for (k, i), w in w_index.items():
        for p in range(k + 1, k + i + 1):
            nonfaces.append(tuple(sorted((w, p))))
        for l in range(0, i):
            nonfaces.append(tuple(sorted((w, n + k + l))))
    for (k1, i1), w1 in w_index.items():
        for (k2, i2), w2 in w_index.items():
            if w1 >= w2:
                continue
            lo = max(k1, k2)
            hi = min(k1 + i1, k2 + i2)
            overlap = lo <= hi
            nested = (k1 <= k2 and k2 + i2 <= k1 + i1) or \
                     (k2 <= k1 and k1 + i1 <= k2 + i2)
            if overlap and not nested:
                nonfaces.append((w1, w2))
    return SimplicialComplex(v, sorted(set(nonfaces)))


def multiwedge(K: SimplicialComplex, J) -> SimplicialComplex:
    """Replace vertex i by J[i-1] copies; each minimal non-face expands to
    the union of all copies of its vertices."""
    J = [integer(j, "copy count") for j in J]
    if len(J) != K.m or any(j < 1 for j in J):
        raise InvalidInput("J must list a positive copy count per vertex")
    index = {}
    v = 0
    for i in range(1, K.m + 1):
        for c in range(J[i - 1]):
            v += 1
            index[(i, c)] = v
    nonfaces = []
    for nf in K.minimal_nonfaces:
        blown = []
        for i in nf:
            blown.extend(index[(i, c)] for c in range(J[i - 1]))
        nonfaces.append(tuple(sorted(blown)))
    return SimplicialComplex(v, nonfaces)


def polygon(m: int) -> SimplicialComplex:
    """Boundary m-gon: vertices 1..m, edges between cyclic neighbours."""
    if m < 3:
        raise InvalidInput("need m >= 3")
    return graph_complex(m, [(i, i % m + 1) for i in range(1, m + 1)])


# facet triangles of the icosahedral sphere (= facet adjacency nerve of the
# dodecahedron): vertex 1 at the top, upper belt 2-6, lower belt 7-11,
# vertex 12 at the bottom
_ICOSAHEDRON_FACETS = (
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
    (2, 3, 7), (3, 7, 8), (3, 4, 8), (4, 8, 9), (4, 5, 9),
    (5, 9, 10), (5, 6, 10), (6, 10, 11), (6, 2, 11), (2, 7, 11),
    (7, 8, 12), (8, 9, 12), (9, 10, 12), (10, 11, 12), (7, 11, 12),
)

_ICOSAHEDRON_SHA256 = \
    "2bd3e9f03d27b1179873187dc0cbc50023f957461dca33ade53732cc40f9f35c"


def dodecahedron_nerve() -> SimplicialComplex:
    """Facet nerve of the dodecahedron: the icosahedral 2-sphere on 12
    vertices, shipped as literal data guarded by a checksum."""
    blob = repr(_ICOSAHEDRON_FACETS).encode()
    digest = hashlib.sha256(blob).hexdigest()
    if digest != _ICOSAHEDRON_SHA256:
        raise InvalidInput("embedded dodecahedron nerve data corrupted")
    from .simplicial import from_facets
    return from_facets(12, list(_ICOSAHEDRON_FACETS))
