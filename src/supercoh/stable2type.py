"""Classification data for Picard groupoids / spectral 2-types.

A stable 2-type is classified by (pi0, pi1, q) where q is a homomorphism
pi0 (x) Z/2 -> pi1 landing in the 2-torsion.  Generators of pi0 (x) Z/2 are
the even-order torsion generators of pi0 followed by its free generators;
q is stored as one pi1-coordinate column per such generator.

Two triples on the same groups are equivalent when q' = phi1 . q .
(phi0 (x) Z/2)^-1 for automorphisms phi0 of pi0 and phi1 of pi1.  Give a
generator of order d the 2-exponent v2(d), a free one infinity, and the
basis element (d/2) t of pi1[2] the exponent of t.  A generator of order
2^a maps only to elements killed by 2^a, so Aut(pi0) acts on pi0 (x) Z/2
through the invertible matrices that keep the span of the generators of
exponent <= k for every k, and Aut(pi1) acts on pi1[2] through those that
keep the span of the basis elements of exponent >= l for every l; every
such block-triangular matrix lifts.  A map between two such flagged
spaces is a representation of a type A quiver, whose indecomposables are
intervals counted by the ranks of the composites.  So the orbit of q is
fixed by its corner ranks: the F2 rank of q on the columns of exponent
<= k and the rows of exponent < l.

Only one layer of gluing data is classified here.  Attaching a third
homotopy group on top of the ku/ko catalog entries involves one more level
of choices which this module deliberately does not encode: for the complex
flavor the group of candidate gluings is cyclic of order 4 with the two
generators yielding equivalent towers, and for the real flavor two of the
four candidates restrict to the same connected-cover datum with no
preferred pick between them.  Operationally that second layer is exactly
the Bockstein-of-cup (ku) and cup (ko) twists implemented by the brauer
module's group laws, which are insensitive to the remaining ambiguity.
"""

from __future__ import annotations

import itertools
from math import inf

from .exact_linalg import AbelianGroupPresentation, Record

DEFAULT_ENUM_CAP = 4096


def _mod2_generator_indices(g: AbelianGroupPresentation) -> list[int]:
    """Indices (into [torsion generators..., free generators...]) surviving mod 2.

    Generator order convention: torsion generators first (invariant factor
    order), then free generators, matching cohomology bases elsewhere.
    """
    return [i for i, d in enumerate(_orders(g)) if d % 2 == 0]  # a free one has order 0


def _two_torsion_elements(g: AbelianGroupPresentation) -> list[tuple[int, ...]]:
    """All 2-torsion elements, as coordinate tuples over the generators."""
    choices = [(0, d // 2) if d % 2 == 0 else (0,) for d in g.invariant_factors]
    return [(*combo, *(0,) * g.free_rank) for combo in itertools.product(*choices)]


def _orders(g: AbelianGroupPresentation) -> list[int]:
    """Orders of the generators of g, torsion first, 0 for a free one."""
    return [*g.invariant_factors, *[0] * g.free_rank]


def _canonical_element(g: AbelianGroupPresentation, coords) -> tuple[int, ...]:
    return tuple(c % d if d else c for c, d in zip(coords, _orders(g)))


class Stable2TypeData(Record):
    """(pi0, pi1, q) with q given column-per-mod-2-generator of pi0."""

    pi0: AbelianGroupPresentation
    pi1: AbelianGroupPresentation
    q: tuple  # columns: element coordinates in pi1 for each mod-2 generator

    def __post_init__(self):
        s = len(_mod2_generator_indices(self.pi0))
        if len(self.q) != s:
            raise ValueError(f"q needs {s} columns for pi0 (x) Z/2")
        ngen = len(_orders(self.pi1))
        canon = []
        for col in self.q:
            col = tuple(col)
            if len(col) != ngen:
                raise ValueError("q column has wrong length for pi1")
            col = _canonical_element(self.pi1, col)
            doubled = _canonical_element(self.pi1, tuple(2 * c for c in col))
            if any(doubled):
                raise ValueError("q values must be 2-torsion in pi1")
            canon.append(col)
        object.__setattr__(self, "q", tuple(canon))

    def to_json_dict(self) -> dict:
        return {
            "pi0": {"free_rank": self.pi0.free_rank, "invariant_factors": list(self.pi0.invariant_factors)},
            "pi1": {"free_rank": self.pi1.free_rank, "invariant_factors": list(self.pi1.invariant_factors)},
            "q": [list(col) for col in self.q],
        }


def is_trivial(data: Stable2TypeData) -> bool:
    """True when the symmetry map q is zero, i.e. the k-invariant vanishes."""
    return all(not any(col) for col in data.q)


def enumerate_symmetric_structures(
    pi0: AbelianGroupPresentation,
    pi1: AbelianGroupPresentation,
    cap: int = DEFAULT_ENUM_CAP,
) -> list[Stable2TypeData]:
    """All symmetric monoidal structures on (pi0, pi1): Hom(pi0 (x) Z/2, pi1[2])."""
    s = len(_mod2_generator_indices(pi0))
    # pi1[2] has 2^e elements for e even invariant factors, so there are
    # 2^k structures, k = e * s; refuse before listing any (and list none when
    # pi0 (x) Z/2 is zero).  2^k > cap exactly when k >= the bit length of
    # max(cap, 0), so 2^k itself is never built
    k = s * sum(1 for d in pi1.invariant_factors if d % 2 == 0)
    if k >= max(cap, 0).bit_length():
        raise ValueError(f"enumeration of 2^{k} structures exceeds cap {cap}")
    out = []
    for combo in itertools.product(_two_torsion_elements(pi1) if s else (), repeat=s):
        out.append(Stable2TypeData(pi0, pi1, tuple(combo)))
    return out


# ---------------------------------------------------------------------------
# Equivalence


def _f2_rank(vectors) -> int:
    """Rank over F2 of bitmask vectors: each is reduced by the kept vectors
    of its leading bit until that bit is new or the vector vanishes."""
    leading = {}
    for v in vectors:
        while v and v.bit_length() in leading:
            v ^= leading[v.bit_length()]
        if v:
            leading[v.bit_length()] = v
    return len(leading)


def _corner_ranks(data: Stable2TypeData) -> tuple[int, ...]:
    """F2 ranks of q on the columns of 2-exponent <= k and the rows of
    2-exponent < l, for each exponent k of pi0 and each exponent l of pi1
    or infinity.  An exponent is kept as the 2-part d & -d of an order d,
    infinite for a free generator; q columns are 2-torsion, so only even
    torsion rows carry bits."""
    pi0, pi1 = data.pi0, data.pi1
    col_exps = [d & -d for d in pi0.invariant_factors if d % 2 == 0] + [inf] * pi0.free_rank
    row_exps = [d & -d for d in pi1.invariant_factors]
    cols = [sum(1 << i for i, c in enumerate(col) if c) for col in data.q]
    ranks = []
    for k in sorted(set(col_exps)):
        for l in (*sorted(set(row_exps)), inf):
            rows = sum(1 << i for i, e in enumerate(row_exps) if e < l)
            ranks.append(_f2_rank(c & rows for c, e in zip(cols, col_exps) if e <= k))
    return tuple(ranks)


def equivalent(d1: Stable2TypeData, d2: Stable2TypeData) -> bool:
    """Existence of isomorphisms (phi0, phi1) with phi1 . q = q' . (phi0 (x) Z/2):
    the same groups and the same corner ranks (see the module docstring)."""
    return d1.pi0 == d2.pi0 and d1.pi1 == d2.pi1 and _corner_ranks(d1) == _corner_ranks(d2)


# ---------------------------------------------------------------------------
# Catalog


def _cyclic(n: int) -> AbelianGroupPresentation:
    return AbelianGroupPresentation(0, (n,))


def catalog() -> dict[str, Stable2TypeData]:
    """Named classification data.

    sphere: pi0 = Z with nonzero symmetry (the swap on the tensor square);
    ku/ko: the truncated Picard spectra data with their nonzero first
    k-invariants; calg_c and calg_r are the invertible-superalgebra aliases
    carrying the same 2-type data as ku and ko.
    """
    z = AbelianGroupPresentation(1, ())
    z2 = _cyclic(2)
    sphere = Stable2TypeData(z, z2, ((1,),))
    ku = Stable2TypeData(z2, z2, ((1,),))
    ko = Stable2TypeData(_cyclic(8), z2, ((1,),))
    return {
        "sphere": sphere,
        "ku": ku,
        "ko": ko,
        "calg_c": ku,
        "calg_r": ko,
    }

