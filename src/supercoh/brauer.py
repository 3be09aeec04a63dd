"""Graded Brauer groups of finite simplicial complexes.

Elements are triples (a, b, c) of cocycles with the twisted addition

    ku:  (a, b, c) + (a', b', c') = (a+a', b+b', c + c' + beta(b cup b'))
    ko:  (a, b, c) + (a', b', c') = (a+a', b+b', c + c' + b cup b')

over the coefficient layout a: H^0 (mod 2 for ku, mod 8 for ko),
b: H^1 mod 2, c: H^3 integral (ku) or H^2 mod 2 (ko).  All arithmetic is
cochain-level; equality is class-level, so no canonical representatives are
ever chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from . import operations, simplicial
from .exact_linalg import AbelianGroupPresentation, IntMatrix, cokernel
from .simplicial import Cochain, SimplicialComplex

KU = "ku"
KO = "ko"

# variant -> ((a degree, a modulus), (b degree, b modulus), (c degree, c modulus))
_LAYOUT = {
    KU: ((0, 2), (1, 2), (3, 0)),
    KO: ((0, 8), (1, 2), (2, 2)),
}

DEFAULT_ORDER_CAP = 64


def variant_layout(variant: str):
    if variant not in _LAYOUT:
        raise ValueError(f"unknown variant {variant!r}; expected 'ku' or 'ko'")
    return _LAYOUT[variant]


@dataclass(frozen=True)
class BrauerElement:
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
        variant = data["variant"]
        (da, ma), (db, mb), (dc, mc) = variant_layout(variant)
        return cls(
            variant,
            Cochain(base, da, ma, tuple(data["a"])),
            Cochain(base, db, mb, tuple(data["b"])),
            Cochain(base, dc, mc, tuple(data["c"])),
        )


def identity_element(x: SimplicialComplex, variant: str) -> BrauerElement:
    (da, ma), (db, mb), (dc, mc) = variant_layout(variant)
    return BrauerElement(
        variant,
        Cochain.zero(x, da, ma),
        Cochain.zero(x, db, mb),
        Cochain.zero(x, dc, mc),
    )


def element(x: SimplicialComplex, variant: str, a=None, b=None, c=None) -> BrauerElement:
    """Element from raw value vectors; omitted components are zero."""
    (da, ma), (db, mb), (dc, mc) = variant_layout(variant)
    mk = lambda vals, d, m: (
        Cochain.zero(x, d, m) if vals is None else Cochain(x, d, m, tuple(vals))
    )
    return BrauerElement(variant, mk(a, da, ma), mk(b, db, mb), mk(c, dc, mc))


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
    """Inverse for the twisted law: ku (a, b, -c - beta(b cup b)),
    ko (-a, b, c + b cup b)."""
    t = _twist(x.variant, x.b, x.b)
    if x.variant == KU:
        return BrauerElement(x.variant, x.a, x.b, -x.c - t)
    return BrauerElement(x.variant, -x.a, x.b, x.c + t)


def equals(x: BrauerElement, y: BrauerElement) -> bool:
    """Componentwise class equality."""
    _require_same_context(x, y)
    return (
        simplicial.is_cohomologous(x.a, y.a)
        and simplicial.is_cohomologous(x.b, y.b)
        and simplicial.is_cohomologous(x.c, y.c)
    )


def is_identity(x: BrauerElement) -> bool:
    return equals(x, identity_element(x.base, x.variant))


def element_order(x: BrauerElement, cap: int = DEFAULT_ORDER_CAP):
    """Least k <= cap with k*x trivial; "infinite" when the free part of the
    c-class is nonzero; None when the cap is exceeded."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    (dc, mc) = variant_layout(x.variant)[2]
    if mc == 0 and _has_free_part(x.c):
        return "infinite"
    acc = x
    for k in range(1, cap + 1):
        if is_identity(acc):
            return k
        acc = add(acc, x)
    return None


def _has_free_part(c: Cochain) -> bool:
    orders = simplicial.generator_orders(c.complex, c.degree, c.modulus)
    coords = simplicial.class_coordinates(c)
    if coords is None:
        raise ArithmeticError("cocycle not expressible in the cohomology basis")
    return any(co for co, o in zip(coords, orders) if o == 0)


# ---------------------------------------------------------------------------
# Abstract group extraction


def _sector_data(x: SimplicialComplex, variant: str, include_a: bool):
    """(slot, degree, modulus, basis, orders) per sector, a then b then c."""
    layout = variant_layout(variant)
    sectors = []
    slots = ("a", "b", "c") if include_a else ("b", "c")
    for slot, (deg, mod) in zip(("a", "b", "c"), layout):
        if slot not in slots:
            continue
        _, basis = simplicial.cohomology(x, deg, mod)
        orders = simplicial.generator_orders(x, deg, mod)
        sectors.append((slot, deg, mod, basis, orders))
    return sectors


def _group_from_sectors(x: SimplicialComplex, variant: str, include_a: bool) -> AbelianGroupPresentation:
    """Presentation of the extension group on the chosen sectors.

    Generators are the cohomology basis classes.  Each torsion generator g
    of order n contributes the relation n*g = (sum of c-basis classes),
    where n*g is computed by repeated twisted addition and re-expressed in
    the c-basis by coboundary solving.
    """
    sectors = _sector_data(x, variant, include_a)
    gens = []  # (slot, index, order, element)
    c_rank = 0
    for slot, deg, mod, basis, orders in sectors:
        for i, (cls, order) in enumerate(zip(basis, orders)):
            el = _generator_element(x, variant, slot, cls.cochain)
            gens.append((slot, i, order, el))
        if slot == "c":
            c_rank = len(basis)
    c_offset = len(gens) - c_rank
    relations = []
    for pos, (slot, i, order, el) in enumerate(gens):
        if order == 0:
            continue
        acc = el
        for _ in range(order - 1):
            acc = add(acc, el)
        # n*g lands in the c sector: a and b parts are exactly zero cochains
        if not (acc.a.is_zero() and acc.b.is_zero()):
            raise ArithmeticError("torsion power did not collapse to the c sector")
        coords = simplicial.class_coordinates(acc.c)
        if coords is None:
            raise ArithmeticError("relation target not in the c-basis span")
        col = [0] * len(gens)
        col[pos] = order
        for j, m in enumerate(coords):
            col[c_offset + j] -= m
        relations.append(col)
    if not gens:
        return AbelianGroupPresentation.trivial()
    if relations:
        rel = IntMatrix.from_rows(
            [[col[i] for col in relations] for i in range(len(gens))]
        )
    else:
        rel = IntMatrix(len(gens), 0, ())
    return cokernel(rel, 0)


def _generator_element(x, variant, slot, cochain) -> BrauerElement:
    e = identity_element(x, variant)
    if slot == "a":
        return BrauerElement(variant, cochain, e.b, e.c)
    if slot == "b":
        return BrauerElement(variant, e.a, cochain, e.c)
    return BrauerElement(variant, e.a, e.b, cochain)


def abstract_group(x: SimplicialComplex, variant: str) -> AbelianGroupPresentation:
    """Abstract group structure of the full twisted cohomology group of X."""
    return _group_from_sectors(x, variant, include_a=True)


def twist_subgroup(x: SimplicialComplex, variant: str) -> AbelianGroupPresentation:
    """Subgroup of elements with trivial degree-0 component (the twist sector)."""
    return _group_from_sectors(x, variant, include_a=False)


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
        witness = Cochain.zero(x.base, diff.degree - 1, diff.modulus)
        return witness
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
    check = witness.coboundary() - diff
    mod = diff.modulus
    ok = all(v % mod == 0 for v in check.values) if mod else check.is_zero()
    if not ok:
        raise ArithmeticError("commutativity witness failed exact verification")
    return witness


def random_element(x: SimplicialComplex, variant: str, rng: Random) -> BrauerElement:
    """Random element: random classes plus random coboundaries in each slot."""
    (da, ma), (db, mb), (dc, mc) = variant_layout(variant)
    a = _random_cocycle(x, da, ma, rng)
    b = _random_cocycle(x, db, mb, rng)
    if variant == KO:
        c = _random_cocycle(x, dc, mc, rng)
    else:
        c = _random_coboundary(x, dc, mc, rng)
        u = _random_cocycle(x, db, mb, rng)
        v = _random_cocycle(x, db, mb, rng)
        c = c + _twist(KU, u, v).scale(rng.randrange(2))
    return BrauerElement(variant, a, b, c)


def _random_cocycle(x: SimplicialComplex, deg: int, mod: int, rng: Random) -> Cochain:
    _, basis = simplicial.cohomology(x, deg, mod)
    out = _random_coboundary(x, deg, mod, rng)
    for cls, k in zip(basis, rng.choices(range(mod or 5), k=len(basis))):
        out = out + cls.cochain.scale(k)
    return out


def _random_coboundary(x: SimplicialComplex, deg: int, mod: int, rng: Random) -> Cochain:
    if deg == 0:
        return Cochain.zero(x, 0, mod)
    values = rng.choices(range(mod or 7), k=x.simplex_count(deg - 1))
    return Cochain(x, deg - 1, mod, tuple(values)).coboundary()
