"""Built-in test complexes, cones and the named staircase products.

The corpus is addressable by name, e.g. complex_by_name("rp2") or the CLI
form "@rp2".  Products are built by simplicial.product, re-exported here,
with their two projection maps; they keep their two factors, whose models
give their cohomology.
"""

from __future__ import annotations

from itertools import combinations

from .simplicial import SimplicialComplex, product


def point() -> SimplicialComplex:
    return SimplicialComplex(1, [(0,)])


def circle() -> SimplicialComplex:
    """Minimal triangulation of S^1: three vertices."""
    return SimplicialComplex(3, [(0, 1), (1, 2), (0, 2)])


def sphere2() -> SimplicialComplex:
    """Boundary of the 3-simplex."""
    return SimplicialComplex(4, list(combinations(range(4), 3)))


def torus7() -> SimplicialComplex:
    """Moebius-Kantor torus: the vertex-minimal 7-vertex triangulation of T^2.

    Triangles are {i, i+1, i+3} and {i, i+2, i+3} mod 7; every pair of
    vertices spans an edge and each edge lies in exactly two triangles.
    """
    tris = []
    for i in range(7):
        tris.append(tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))))
        tris.append(tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7))))
    return SimplicialComplex(7, tris)


def rp2_6() -> SimplicialComplex:
    """The 6-vertex real projective plane (antipodal quotient of the icosahedron)."""
    tris = [
        (0, 1, 3),
        (0, 1, 4),
        (0, 2, 3),
        (0, 2, 5),
        (0, 4, 5),
        (1, 2, 4),
        (1, 2, 5),
        (1, 3, 5),
        (2, 3, 4),
        (3, 4, 5),
    ]
    return SimplicialComplex(6, tris)


def klein8() -> SimplicialComplex:
    """A vertex-minimal 8-vertex triangulation of the Klein bottle.

    Obtained by edge-contracting a 12-vertex grid-quotient triangulation
    (see scripts/find_small_klein.py, which regenerates and re-verifies this
    facet list: closed surface, Euler characteristic 0, H_1 = Z + Z/2).
    """
    tris = [
        (0, 1, 5),
        (0, 1, 7),
        (0, 2, 3),
        (0, 2, 7),
        (0, 3, 4),
        (0, 4, 5),
        (1, 2, 3),
        (1, 2, 4),
        (1, 3, 6),
        (1, 4, 7),
        (1, 5, 6),
        (2, 4, 6),
        (2, 6, 7),
        (3, 4, 6),
        (4, 5, 7),
        (5, 6, 7),
    ]
    return SimplicialComplex(8, tris)


def cone(x: SimplicialComplex) -> SimplicialComplex:
    """Cone with apex added as the new highest-numbered vertex."""
    apex = x.vertex_count
    maximal = [s + (apex,) for s in x.maximal_simplices]
    if not maximal:
        maximal = [(apex,)]
    return SimplicialComplex(x.vertex_count + 1, maximal)


_BUILDERS = {
    "point": point,
    "s1": circle,
    "s2": sphere2,
    "t2": torus7,
    "klein": klein8,
    "rp2": rp2_6,
}

_PRODUCTS = {
    "s1xs1": ("s1", "s1"),
    "rp2xrp2": ("rp2", "rp2"),
}

CORPUS_NAMES = tuple(_BUILDERS) + tuple(_PRODUCTS)

_cache: dict = {}


def complex_by_name(name: str) -> SimplicialComplex:
    name = name.lower().lstrip("@")
    if name in _cache:
        return _cache[name]
    if name in _BUILDERS:
        value = _BUILDERS[name]()
    elif name in _PRODUCTS:
        value = product_with_projections(*_PRODUCTS[name])[0]
    else:
        raise KeyError(f"unknown corpus complex {name!r}; known: {', '.join(CORPUS_NAMES)}")
    _cache[name] = value
    return value


def product_with_projections(name_a: str, name_b: str):
    """(product, proj1, proj2) of two corpus complexes, built once; a named
    product such as "rp2xrp2" is this same complex."""
    key = (name_a, name_b)
    cached = _cache.get(key)
    if cached is None:
        cached = product(complex_by_name(name_a), complex_by_name(name_b))
        _cache[key] = cached
    return cached
