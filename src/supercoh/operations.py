"""Cochain-level cohomology operations.

Cup products use the front-face/back-face (Alexander-Whitney) formula on
the fixed vertex order.  Cup-i products follow Steenrod's overlapping-block
formula over F_2, and squares are defined by Sq^k(x) = x cup_{p-k} x in
degree p.  The Bockstein lifts values to [0, m) and divides the integer
coboundary by m, landing in integral cochains.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat
from operator import floordiv, mod, mul, xor

from .simplicial import Cochain, CohomologyClass, _lanes, class_coordinates


def cup(a: Cochain, b: Cochain) -> Cochain:
    """Front-face/back-face cup product of a (deg p) and b (deg q)."""
    if a.complex != b.complex or a.modulus != b.modulus:
        raise ValueError("cup product needs a common complex and modulus")
    x = a.complex
    n = a.modulus
    if n == 2:
        front, back = x.cup_i_planes(0, a.degree, b.degree)
        return Cochain._from_bits(x, a.degree + b.degree, a._bits(front) & b._bits(back))
    ((front, back),) = x.cup_i_table(0, a.degree, b.degree)
    values = map(mul, map(a.values.__getitem__, front), map(b.values.__getitem__, back))
    if n:
        values = map(mod, values, repeat(n))
    return Cochain._reduced(x, a.degree + b.degree, n, tuple(values))


def cup_i(i: int, a: Cochain, b: Cochain) -> Cochain:
    """Steenrod cup-i product over F_2; cup_0 is the ordinary cup product.

    On a simplex [v_0..v_m] the value is the sum over cut sequences
    j_0 < ... < j_i of a(even blocks) * b(odd blocks), where consecutive
    blocks share their cut vertex.  The complex keeps, per (i, p, q), one
    gather of the even and one of the odd faces of all cut sequences with
    blocks of the right sizes, a lane per sequence
    (SimplicialComplex.cup_i_planes): their and, lanes xored, is the product.
    """
    if a.modulus != 2 or b.modulus != 2:
        raise ValueError("cup_i products are defined over Z/2 only")
    if a.complex != b.complex:
        raise ValueError("cup_i needs a common complex")
    if i < 0:
        raise ValueError("cup_i index must be >= 0")
    x = a.complex
    deg = a.degree + b.degree - i
    if deg < 0:
        raise ValueError("cup_i target degree is negative")
    even, odd = x.cup_i_planes(i, a.degree, b.degree)
    lanes = a._bits(even) & b._bits(odd)
    return Cochain._from_bits(x, deg, reduce(xor, _lanes(lanes, x.simplex_count(deg)), 0))


def sq(k: int, x: CohomologyClass) -> CohomologyClass:
    """Steenrod square Sq^k via the self cup-(p-k) product; zero for k > p."""
    if x.modulus != 2:
        raise ValueError("Steenrod squares act on mod-2 classes")
    if k < 0:
        raise ValueError("Sq^k needs k >= 0")
    p = x.degree
    if k > p:
        return CohomologyClass(Cochain.zero(x.complex, p + k, 2))
    return CohomologyClass(cup_i(p - k, x.cochain, x.cochain))


def reduce_mod(x: Cochain, n: int) -> Cochain:
    """Coefficient reduction Z -> Z/n or Z/m -> Z/n for n | m."""
    if n <= 0:
        raise ValueError("target modulus must be positive")
    if x.modulus and x.modulus % n:
        raise ValueError(f"{n} does not divide the source modulus {x.modulus}")
    return Cochain._reduced(x.complex, x.degree, n, tuple(map(mod, x.values, repeat(n))))


def bockstein(b: CohomologyClass) -> CohomologyClass:
    """Integral Bockstein of a mod-m class, for 0 -> Z -> Z -> Z/m -> 0.

    The representative lifts values to [0, m); the integer coboundary of the
    lift is divisible by m and the quotient is the output cocycle.  Its
    class is independent of the lift.  Mod 2 it halves the fold of the
    lift's delta that the check of b kept (Cochain._half_delta).
    """
    m = b.modulus
    if m <= 0:
        raise ValueError("bockstein needs a finite modulus")
    if m == 2:
        values = b.cochain._half_delta()
    else:
        values = map(floordiv, b.cochain.coboundary_values(), repeat(m))
    return CohomologyClass(Cochain._reduced(b.complex, b.degree + 1, 0, tuple(values)))


def sq1_via_bockstein(b: CohomologyClass) -> CohomologyClass:
    """Sq^1 computed as reduction mod 2 of the integral Bockstein."""
    if b.modulus != 2:
        raise ValueError("expects a mod-2 class")
    return CohomologyClass(reduce_mod(bockstein(b).cochain, 2))


def nonzero_actions(cls: CohomologyClass) -> tuple[bool, bool, bool]:
    """Whether Sq^1, Sq^2 and beta of a mod-2 class are nonzero classes."""
    images = (sq(1, cls), sq(2, cls), bockstein(cls))
    return tuple(any(class_coordinates(image.cochain)) for image in images)
