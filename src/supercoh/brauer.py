"""Graded Brauer groups of finite simplicial complexes.

Elements are triples (a, b, c) of cocycles with the twisted addition

    ku:  (a, b, c) + (a', b', c') = (a+a', b+b', c + c' + beta(b cup b'))
    ko:  (a, b, c) + (a', b', c') = (a+a', b+b', c + c' + b cup b')

over the coefficient layout a: H^0 (mod 2 for ku, mod 8 for ko),
b: H^1 mod 2, c: H^3 integral (ku) or H^2 mod 2 (ko).  Element arithmetic
is cochain-level and equality is class-level, so no canonical
representatives are ever chosen.  element is the one constructor from raw
values: identity_element and BrauerElement.from_json_dict go through it.
Group extraction builds no cochain: twist_subgroup reads its relations off
the cohomology records of the Morse complex, or of the tensor model of a
product, and abstract_group adds the a slot to it.
"""

from __future__ import annotations

import operator
from itertools import islice, repeat
from math import gcd, lcm
from random import Random

from . import operations, simplicial
from .exact_linalg import AbelianGroupPresentation, Record, SparseMatrix, cokernel, direct_sum
from .simplicial import Cochain, SimplicialComplex

KU = "ku"
KO = "ko"

# variant -> ((a degree, a modulus), (b degree, b modulus), (c degree, c modulus))
_LAYOUT = {
    KU: ((0, 2), (1, 2), (3, 0)),
    KO: ((0, 8), (1, 2), (2, 2)),
}


def variant_layout(variant: str):
    if variant not in _LAYOUT:
        raise ValueError(f"unknown variant {variant!r}; expected 'ku' or 'ko'")
    return _LAYOUT[variant]


class BrauerElement(Record):
    variant: str
    a: Cochain
    b: Cochain
    c: Cochain

    def __post_init__(self):
        layout = variant_layout(self.variant)
        base = self.a.complex
        for cochain, (deg, mod) in zip((self.a, self.b, self.c), layout):
            if cochain.complex != base:
                raise ValueError("components live on different complexes")
            if cochain.degree != deg or cochain.modulus != mod:
                raise ValueError(
                    f"component of degree {cochain.degree} mod {cochain.modulus} "
                    f"does not match the {self.variant} layout {(deg, mod)}"
                )
            if not cochain.is_cocycle():
                raise ValueError("brauer components must be cocycles")

    @property
    def base(self) -> SimplicialComplex:
        return self.a.complex

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "a": list(self.a.values),
            "b": list(self.b.values),
            "c": list(self.c.values),
        }

    @classmethod
    def from_json_dict(cls, data: dict, base: SimplicialComplex) -> "BrauerElement":
        return element(base, data["variant"], data["a"], data["b"], data["c"])


def identity_element(x: SimplicialComplex, variant: str) -> BrauerElement:
    return element(x, variant)


def element(x: SimplicialComplex, variant: str, a=None, b=None, c=None) -> BrauerElement:
    """Element from raw value vectors; omitted components are zero."""
    slots = (
        Cochain.zero(x, d, m) if vals is None else Cochain(x, d, m, tuple(vals))
        for vals, (d, m) in zip((a, b, c), variant_layout(variant))
    )
    return BrauerElement(variant, *slots)


def _require_same_context(x: BrauerElement, y: BrauerElement):
    if x.variant != y.variant or x.base != y.base:
        raise ValueError("brauer elements have different variants or bases")


def _twist(variant: str, b1: Cochain, b2: Cochain) -> Cochain:
    cup = operations.cup(b1, b2)
    if variant == KU:
        return operations.bockstein(simplicial.CohomologyClass(cup)).cochain
    return cup


def add(x: BrauerElement, y: BrauerElement) -> BrauerElement:
    _require_same_context(x, y)
    return BrauerElement(
        x.variant,
        x.a + y.a,
        x.b + y.b,
        x.c + y.c + _twist(x.variant, x.b, y.b),
    )


def negate(x: BrauerElement) -> BrauerElement:
    """Inverse for the twisted law: (-a, b, -c - twist(b, b)).  Mod 2, -x is
    x and - is +, so ku's is (a, b, -c - beta(b cup b)), ko's (-a, b, c + b cup b).
    For a mod-2 1-cocycle b, beta(b cup b) is the zero cochain, not only a
    coboundary; ku's twist is still computed, so that its cup and its
    Bockstein are checked here as in add."""
    return BrauerElement(x.variant, -x.a, x.b, -x.c - _twist(x.variant, x.b, x.b))


def equals(x: BrauerElement, y: BrauerElement) -> bool:
    """Componentwise class equality."""
    _require_same_context(x, y)
    return (
        simplicial.is_cohomologous(x.a, y.a)
        and simplicial.is_cohomologous(x.b, y.b)
        and simplicial.is_cohomologous(x.c, y.c)
    )


def element_order(x: BrauerElement):
    """Order of x, or "infinite", read off class coordinates.

    When [b] != 0 the order is even and x + x has b = 0 on the nose, so it
    is twice the order of x + x.  When [b] = 0 every twist term of k*x is a
    coboundary, so the order is the lcm of the orders of [a] and [c]."""
    if any(_coordinates(x.b)):
        order = element_order(add(x, x))
        return order if order == "infinite" else 2 * order
    orders = (_class_order(x.a), _class_order(x.c))
    return "infinite" if "infinite" in orders else lcm(*orders)


def _coordinates(c: Cochain) -> list[int]:
    coords = simplicial.class_coordinates(c)
    if coords is None:
        raise ArithmeticError("cocycle not expressible in the cohomology basis")
    return coords


def _class_order(c: Cochain):
    """Order of [c]: the lcm of d / gcd(d, y) over its coordinates y on
    generators of order d, or "infinite" when a free coordinate is nonzero."""
    orders = simplicial.generator_orders(c.complex, c.degree, c.modulus)
    coords = _coordinates(c)
    if any(y for y, d in zip(coords, orders) if d == 0):
        return "infinite"
    return lcm(*(d // gcd(d, y) for y, d in zip(coords, orders) if d))


# ---------------------------------------------------------------------------
# Abstract group extraction


def abstract_group(x: SimplicialComplex, variant: str) -> AbelianGroupPresentation:
    """Abstract group structure of the full twisted cohomology group of X:
    H^0(X; Z/m_a) + T, since the a slot never enters the twist."""
    da, ma = variant_layout(variant)[0]
    return direct_sum(simplicial.presentation(x, da, ma), twist_subgroup(x, variant))


def twist_subgroup(x: SimplicialComplex, variant: str) -> AbelianGroupPresentation:
    """The twist sector: the subgroup T of elements (0, b, c), on the basis
    classes of the b and c sectors.

    n*(0, 0, c) = (0, 0, n*c), so a c generator of order o gives the
    relation o*e_c.  A b generator g = (0, b, 0) has order 2 in H^1, and
    g + g = (0, 0, twist(b, b)) lands in the c sector.  For ko the twist
    b cup b is Sq^1 b, which gives the relation 2*e_b - (coordinates of
    Sq^1 b), read off the Morse complex (simplicial.sq1_coordinates).  For
    ku it is beta(b cup b) = beta(rho_2 beta(b)) = 0, since Sq^1 b is the
    reduction of an integral class and beta kills every such reduction, so
    the relation is 2*e_b."""
    _, (db, mb), (dc, mc) = variant_layout(variant)
    if variant == KO:
        twice = simplicial.sq1_coordinates(x, db)
    else:
        twice = [()] * len(simplicial.generator_orders(x, db, mb))
    c_orders = simplicial.generator_orders(x, dc, mc)
    nb = len(twice)
    # one row per generator, b then c; column k is the relation of generator k
    rows = [{} for _ in range(nb + len(c_orders))]
    for i, coords in enumerate(twice):
        rows[i][i] = 2
        for j, m in enumerate(coords):
            if m:
                rows[nb + j][i] = -m
    for j, order in enumerate(c_orders):
        if order:
            rows[nb + j][nb + j] = order
    return cokernel(SparseMatrix(len(rows), len(rows), rows), 0)


# ---------------------------------------------------------------------------


def commutativity_certificate(x: BrauerElement, y: BrauerElement) -> Cochain:
    """Cochain z with (x+y).c - (y+x).c = delta(z) exactly.

    The a and b slots of x+y and y+x agree on the nose; the c slots differ
    by the commutator of the cup twist, which is the coboundary of the
    cup-1 witness (taken through a Bockstein-compatible lift for ku).
    """
    _require_same_context(x, y)
    variant = x.variant
    diff = (add(x, y).c) - (add(y, x).c)
    if diff.is_zero():
        return Cochain.zero(x.base, diff.degree - 1, diff.modulus)
    b1 = operations.cup_i(1, x.b, y.b)
    if variant == KO:
        witness = b1
    else:
        u = Cochain(x.base, 2, 0, operations.cup(x.b, y.b).values)
        v = Cochain(x.base, 2, 0, operations.cup(y.b, x.b).values)
        s = Cochain(x.base, 1, 0, b1.values).coboundary()
        w = u - v - s
        if any(val % 2 for val in w.values):
            raise ArithmeticError("cup-1 witness lift is not even")
        witness = Cochain(x.base, 2, 0, tuple(val // 2 for val in w.values))
    if not (witness.coboundary() - diff).is_zero():
        raise ArithmeticError("commutativity witness failed exact verification")
    return witness


def random_element(x: SimplicialComplex, variant: str, rng: Random) -> BrauerElement:
    """Random element: random classes plus random coboundaries in each slot;
    for ku, c also gets beta(u cup v) for random u, v half of the time."""
    (da, ma), (db, mb), (dc, mc) = variant_layout(variant)
    a = _random_cocycle(x, da, ma, rng)
    b = _random_cocycle(x, db, mb, rng)
    c = _random_cocycle(x, dc, mc, rng)
    if variant == KU:
        u = _random_cocycle(x, db, mb, rng)
        v = _random_cocycle(x, db, mb, rng)
        c = c + _twist(KU, u, v).scale(rng.randrange(2))
    return BrauerElement(variant, a, b, c)


def _random_cocycle(x: SimplicialComplex, deg: int, mod: int, rng: Random) -> Cochain:
    """A random coboundary plus a random combination of the basis classes,
    summed and reduced in one pass (mod 2, xor of the classes drawn odd)."""
    _, basis = simplicial.cohomology(x, deg, mod)
    bound = _random_coboundary(x, deg, mod, rng)
    draws = _draws(rng, mod or 5, len(basis))
    if mod == 2:
        return sum((cls.cochain for cls, k in zip(basis, draws) if k), bound)
    acc = bound.values
    for cls, k in zip(basis, draws):
        acc = map(operator.add, acc, map(operator.mul, repeat(k), cls.cochain.values))
    if mod:
        acc = map(operator.mod, acc, repeat(mod))
    return Cochain._reduced(x, deg, mod, tuple(acc))


def _random_coboundary(x: SimplicialComplex, deg: int, mod: int, rng: Random) -> Cochain:
    if deg == 0:
        return Cochain.zero(x, 0, mod)
    values = _draws(rng, mod or 7, x.simplex_count(deg - 1))
    return Cochain._reduced(x, deg - 1, mod, tuple(values)).coboundary()


def _draws(rng: Random, m: int, k: int):
    """k draws from range(m), the values and the rng state of
    rng.choices(range(m), k=k): CPython's choices takes floor(random() * m)."""
    return map(int, map(operator.mul, islice(iter(rng.random, 2.0), k), repeat(float(m))))
