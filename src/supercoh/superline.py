"""Superline bundles over a finite simplicial base, with the signed symmetry.

A superline is a line bundle together with a locally constant parity
function to Z/2.  Bundles are modeled by their characteristic cocycles: w1
(degree-1 mod 2) for the real flavor, c1 (degree-2 integral) for the
complex flavor; iso classes of line bundles on a finite complex are exactly
these classes.  The tensor symmetry on a component with parities n, m is
the sign (-1)^{n m}.
"""

from __future__ import annotations

from . import simplicial
from .exact_linalg import AbelianGroupPresentation, Record, direct_sum
from .simplicial import Cochain, CohomologyClass, SimplicialComplex
from .stable2type import Stable2TypeData

REAL = "real"
COMPLEX = "complex"

_LINE_CLASS_SHAPE = {REAL: (1, 2), COMPLEX: (2, 0)}  # flavor -> (degree, modulus)


class SuperLine(Record):
    """(line bundle, parity): parity is one Z/2 value per connected component."""

    flavor: str
    base: SimplicialComplex
    parity: tuple[int, ...]
    line_class: CohomologyClass

    def __post_init__(self):
        if self.flavor not in (REAL, COMPLEX):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        ncomp = len(self.base.components())
        if len(self.parity) != ncomp:
            raise ValueError(f"need one parity per component ({ncomp})")
        object.__setattr__(self, "parity", tuple(p % 2 for p in self.parity))
        deg, mod = _LINE_CLASS_SHAPE[self.flavor]
        c = self.line_class
        if c.complex != self.base or c.degree != deg or c.modulus != mod:
            raise ValueError(
                f"{self.flavor} line class must be a degree-{deg} cocycle mod {mod}"
            )

    @classmethod
    def trivial(cls, flavor: str, base: SimplicialComplex) -> "SuperLine":
        deg, mod = _LINE_CLASS_SHAPE[flavor]
        return cls(
            flavor,
            base,
            (0,) * len(base.components()),
            CohomologyClass(Cochain.zero(base, deg, mod)),
        )


def _require_compatible(l: SuperLine, m: SuperLine):
    if l.flavor != m.flavor or l.base != m.base:
        raise ValueError("superlines live on different bases or flavors")


def symmetry_sign(l: SuperLine, m: SuperLine, component: int) -> int:
    """Sign of the braiding on the given component: (-1)^{n m}."""
    _require_compatible(l, m)
    return -1 if (l.parity[component] * m.parity[component]) % 2 else 1


def iso_class_group(x: SimplicialComplex, flavor: str) -> AbelianGroupPresentation:
    """Group of iso classes: H^0(X; Z/2) x H^1(X; Z/2) (real) or
    H^0(X; Z/2) x H^2(X; Z) (complex), read off the cohomology records with
    no representative built."""
    deg, mod = _LINE_CLASS_SHAPE[flavor]
    return direct_sum(simplicial.presentation(x, 0, 2), simplicial.presentation(x, deg, mod))


def classification_data(flavor: str) -> Stable2TypeData:
    """Stable 2-type of the superline groupoid over a point.

    pi0 = Z/2 (parity), pi1 = the sign subgroup {+-1} of the field's units,
    and q sends the odd object to the -1 automorphism: the k-invariant is
    nonzero for both flavors.
    """
    if flavor not in (REAL, COMPLEX):
        raise ValueError(f"unknown flavor {flavor!r}")
    z2 = AbelianGroupPresentation(0, (2,))
    return Stable2TypeData(z2, z2, ((1,),))
