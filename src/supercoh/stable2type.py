"""Classification data for Picard groupoids / spectral 2-types.

A stable 2-type is classified by (pi0, pi1, q) where q is a homomorphism
pi0 (x) Z/2 -> pi1 landing in the 2-torsion.  Generators of pi0 (x) Z/2 are
the free generators of pi0 followed by its even-order torsion generators; q
is stored as one pi1-coordinate column per such generator.

Equivalence testing is a finite search, one pass over each automorphism
group; the caps on free-rank matrix entries are sound here because the
compatibility condition only sees the induced maps mod 2, and every GL(F_2)
class has a small integer lift.

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
from dataclasses import dataclass
from math import gcd

from .dsv import Field, invert
from .exact_linalg import (
    AbelianGroupPresentation,
    IntMatrix,
    chain_coordinates,
    invariant_factor_chain,
)

DEFAULT_ENUM_CAP = 4096
DEFAULT_SEARCH_CAP = 1_000_000


def tensor_mod2(g: AbelianGroupPresentation) -> AbelianGroupPresentation:
    """G (x) Z/2: one Z/2 for each free generator and each even factor."""
    k = g.free_rank + sum(1 for d in g.invariant_factors if d % 2 == 0)
    return AbelianGroupPresentation(0, (2,) * k) if k else AbelianGroupPresentation.trivial()


def _mod2_generator_indices(g: AbelianGroupPresentation) -> list[int]:
    """Indices (into [torsion generators..., free generators...]) surviving mod 2.

    Generator order convention: torsion generators first (invariant factor
    order), then free generators, matching cohomology bases elsewhere.
    """
    nt = len(g.invariant_factors)
    surviving = [i for i, d in enumerate(g.invariant_factors) if d % 2 == 0]
    surviving.extend(range(nt, nt + g.free_rank))
    return surviving


def _two_torsion_elements(g: AbelianGroupPresentation) -> list[tuple[int, ...]]:
    """All 2-torsion elements, as coordinate tuples over the generators."""
    nt = len(g.invariant_factors)
    choices = []
    for d in g.invariant_factors:
        choices.append((0, d // 2) if d % 2 == 0 else (0,))
    out = []
    for combo in itertools.product(*choices) if nt else [()]:
        out.append(tuple(combo) + (0,) * g.free_rank)
    return out


def _canonical_element(g: AbelianGroupPresentation, coords) -> tuple[int, ...]:
    nt = len(g.invariant_factors)
    out = []
    for i, c in enumerate(coords):
        if i < nt:
            out.append(c % g.invariant_factors[i])
        else:
            out.append(c)
    return tuple(out)


@dataclass(frozen=True)
class Stable2TypeData:
    """(pi0, pi1, q) with q given column-per-mod-2-generator of pi0."""

    pi0: AbelianGroupPresentation
    pi1: AbelianGroupPresentation
    q: tuple  # columns: element coordinates in pi1 for each mod-2 generator

    def __post_init__(self):
        s = len(_mod2_generator_indices(self.pi0))
        if len(self.q) != s:
            raise ValueError(f"q needs {s} columns for pi0 (x) Z/2")
        ngen = len(self.pi1.invariant_factors) + self.pi1.free_rank
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
    torsion2 = _two_torsion_elements(pi1)
    count = len(torsion2) ** s
    if count > cap:
        raise ValueError(f"enumeration of {count} structures exceeds cap {cap}")
    out = []
    for combo in itertools.product(torsion2, repeat=s):
        out.append(Stable2TypeData(pi0, pi1, tuple(combo)))
    return out


def product(d1: Stable2TypeData, d2: Stable2TypeData) -> Stable2TypeData:
    """Product of Picard groupoid data: direct sums with block q.

    The direct sums are renormalized to invariant-factor form, so the block
    q is transported through the tracked change of generators.
    """
    pi0, t0 = _direct_sum_tracked(d1.pi0, d2.pi0)
    pi1, t1 = _direct_sum_tracked(d1.pi1, d2.pi1)
    new_cols = _transform_q_columns(d1, d2, pi0, pi1, t0, t1)
    return Stable2TypeData(pi0, pi1, new_cols)


def _direct_sum_tracked(a: AbelianGroupPresentation, b: AbelianGroupPresentation):
    """Normalized direct sum plus the transform of old generator coordinates.

    The old generators are those of a, then those of b, each torsion first.
    The new ones are the invariant-factor chain of the old torsion orders,
    then the old free generators.  Returns (presentation, info) where
    info["matrix"][j] is old generator j in the new generators.
    """
    orders = [*a.invariant_factors, *[0] * a.free_rank, *b.invariant_factors, *[0] * b.free_rank]
    # the chain deals a tie to the larger key first; keyed (d, -j), a summand
    # already in invariant-factor form keeps its generators
    keys = [(d, -j) for j, d in enumerate(orders)]
    chain = invariant_factor_chain(zip(orders, keys))
    free = [j for j, d in enumerate(orders) if d == 0]
    matrix = []
    for j in range(len(orders)):
        coords = chain_coordinates(chain, {key: int(i == j) for i, key in enumerate(keys)})
        matrix.append(coords + [int(i == j) for i in free])
    factors = tuple(f for f, _ in chain)
    pres = AbelianGroupPresentation(len(free), factors)
    info = {
        "matrix": matrix,
        "orders": [*factors, *[0] * len(free)],
        "offset_b": len(a.invariant_factors) + a.free_rank,
    }
    return pres, info


def _map_element(info, factor_index, coords):
    """Old-generator coordinates (in one factor) to new-generator coordinates."""
    offset = 0 if factor_index == 0 else info["offset_b"]
    n_new = len(info["orders"])
    acc = [0] * n_new
    for j, c in enumerate(coords):
        if not c:
            continue
        col = info["matrix"][offset + j]
        for i in range(n_new):
            acc[i] += c * col[i]
    out = []
    for v, o in zip(acc, info["orders"]):
        out.append(v % o if o else v)
    return tuple(out)


def _transform_q_columns(d1, d2, pi0, pi1, t0, t1):
    """q columns of the product in the normalized generator bases."""
    # old q columns in the new pi1 generators, in the order of the old mod-2
    # generators of pi0: those of d1, then those of d2
    q_old = [_map_element(t1, k, col) for k, d in enumerate((d1, d2)) for col in d.q]
    old_m2 = _mod2_generator_indices(d1.pi0)
    old_m2 += [t0["offset_b"] + i for i in _mod2_generator_indices(d2.pi0)]
    # the mod-2 matrix of old -> new generators, inverted over F2, expresses
    # each new mod-2 generator over the old ones
    m2 = [[t0["matrix"][old_j][new_i] % 2 for old_j in old_m2] for new_i in _mod2_generator_indices(pi0)]
    inv = invert(Field(2), m2)
    if inv is None:
        raise ArithmeticError("mod-2 generator transform is not invertible")
    # new column r sums the old columns c with inv[r][c] odd
    return _q_times_mod2(pi1, q_old, list(zip(*inv)))


# ---------------------------------------------------------------------------
# Equivalence search


def _iter_torsion_automorphisms(g: AbelianGroupPresentation, cap):
    """All automorphisms of the torsion part, as generator-image tuples."""
    factors = g.invariant_factors
    nt = len(factors)
    if nt == 0:
        yield ()
        return
    ranges = []
    for j in range(nt):
        col_choices = []
        for i in range(nt):
            # hom condition: factor d_j generator maps to elements killed by d_j
            step = factors[i] // gcd(factors[i], factors[j])
            col_choices.append(range(0, factors[i], step))
        ranges.append(list(itertools.product(*col_choices)))
    total = 1
    for r in ranges:
        total *= len(r)
        if total > cap[0]:
            raise ValueError("automorphism search exceeds cap")
    for cols in itertools.product(*ranges):
        cap[0] -= 1
        if cap[0] < 0:
            raise ValueError("automorphism search exceeds cap")
        if _is_torsion_automorphism(factors, cols):
            yield cols


def _prime_divisors(n: int) -> list[int]:
    """Primes dividing n >= 1, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def _is_torsion_automorphism(factors, cols) -> bool:
    """Bijectivity of the endomorphism given by generator images.

    An endomorphism of a finite abelian group is bijective iff no element of
    prime order lies in its kernel, so only the nonzero elements of each
    socle G[p] are mapped: coordinates (d // p) * a, a in [0, p), on the
    factors d that p divides.  Every prime divides the last factor."""
    for p in _prime_divisors(max(factors, default=1)):
        steps = [(j, d // p) for j, d in enumerate(factors) if d % p == 0]
        for coeffs in itertools.product(range(p), repeat=len(steps)):
            if not any(coeffs):
                continue
            img = [0] * len(factors)
            for (j, step), a in zip(steps, coeffs):
                for i, x in enumerate(cols[j]):
                    img[i] += a * step * x
            if not any(v % d for v, d in zip(img, factors)):
                return False
    return True


def _iter_free_blocks(rank: int, bound: int = 1):
    """Integer matrices with entries in [-bound, bound] and determinant +-1."""
    if rank == 0:
        yield ()
        return
    entries = range(-bound, bound + 1)
    for flat in itertools.product(entries, repeat=rank * rank):
        m = [list(flat[i * rank : (i + 1) * rank]) for i in range(rank)]
        if abs(_det(m)) == 1:
            yield tuple(tuple(r) for r in m)


def _det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    acc = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        acc += (-1) ** j * m[0][j] * _det(minor)
    return acc


def _iter_automorphisms(g: AbelianGroupPresentation, cap):
    """Automorphisms as (torsion_cols, free_block, mixed_block).

    The full automorphism acts by: free gen e_j -> sum_i A[i][j] e_i + sum C[i][j] t_i,
    torsion gen t_j -> sum_i D[i][j] t_i.  (Hom(torsion, free) = 0.)
    """
    if g.free_rank > 2:
        raise ValueError("equivalence search supports free rank <= 2")
    factors = g.invariant_factors
    nt = len(factors)
    mixed_choices = (
        list(itertools.product(*(range(d) for d in factors)))
        if nt
        else [()]
    )
    for d_cols in _iter_torsion_automorphisms(g, cap):
        for a_block in _iter_free_blocks(g.free_rank):
            for c_cols in itertools.product(mixed_choices, repeat=g.free_rank):
                cap[0] -= 1
                if cap[0] < 0:
                    raise ValueError("automorphism search exceeds cap")
                yield d_cols, a_block, c_cols


def _mod2_action(g: AbelianGroupPresentation, d_cols, a_block, c_cols):
    """Induced matrix on the mod-2 generators (rows/cols in mod-2 gen order)."""
    surv = _mod2_generator_indices(g)
    nt = len(g.invariant_factors)
    mat = []
    for r_pos in surv:
        row = []
        for c_pos in surv:
            if c_pos < nt:  # torsion source generator
                val = d_cols[c_pos][r_pos] if r_pos < nt else 0
            else:
                j = c_pos - nt
                if r_pos < nt:
                    val = c_cols[j][r_pos]
                else:
                    val = a_block[r_pos - nt][j]
            row.append(val % 2)
        mat.append(row)
    return mat


def _apply_pi1_automorphism(g: AbelianGroupPresentation, d_cols, a_block, c_cols, coords):
    nt = len(g.invariant_factors)
    n = nt + g.free_rank
    acc = [0] * n
    for j, c in enumerate(coords):
        if not c:
            continue
        if j < nt:
            for i in range(nt):
                acc[i] += c * d_cols[j][i]
        else:
            jj = j - nt
            for i in range(nt):
                acc[i] += c * c_cols[jj][i]
            for i in range(g.free_rank):
                acc[nt + i] += c * a_block[i][jj]
    return _canonical_element(g, tuple(acc))


def equivalent(d1: Stable2TypeData, d2: Stable2TypeData) -> bool:
    """Existence of isomorphisms (phi0, phi1) with phi1 . q = q' . (phi0 (x) Z/2).

    One pass over each automorphism group: the set {phi1 . q} over Aut(pi1),
    then a scan of Aut(pi0) for q' . (phi0 (x) Z/2) in that set.
    """
    if d1.pi0 != d2.pi0 or d1.pi1 != d2.pi1:
        return False
    if not d1.q:
        return True
    budget = [DEFAULT_SEARCH_CAP]
    moved = {
        tuple(_apply_pi1_automorphism(d1.pi1, *phi1, col) for col in d1.q)
        for phi1 in _iter_automorphisms(d1.pi1, budget)
    }
    return any(
        _q_times_mod2(d1.pi1, d2.q, _mod2_action(d1.pi0, *phi0)) in moved
        for phi0 in _iter_automorphisms(d1.pi0, budget)
    )


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


def unit_map_matrix(name: str) -> IntMatrix:
    """Generator matrix of the unit-induced surjection pi0(sphere) -> pi0."""
    if name == "ku":
        return IntMatrix.from_rows([[1]])  # Z -> Z/2
    if name == "ko":
        return IntMatrix.from_rows([[1]])  # Z -> Z/8
    raise KeyError(name)


def mod2_induced_map(hom: IntMatrix, src: AbelianGroupPresentation, dst: AbelianGroupPresentation):
    """Matrix of hom (x) Z/2 on the surviving mod-2 generators."""
    src_idx = _mod2_generator_indices(src)
    dst_idx = _mod2_generator_indices(dst)
    out = []
    for r in dst_idx:
        out.append([hom.at(r, c) % 2 for c in src_idx])
    return out


def _q_times_mod2(pi1: AbelianGroupPresentation, q, m) -> tuple:
    """Columns of q . m for a mod-2 matrix m (rows index the q columns):
    column j sums the q columns i with m[i][j] odd, canonical in pi1."""
    n1 = len(pi1.invariant_factors) + pi1.free_rank
    cols = []
    for j in range(len(m[0]) if m else 0):
        acc = [0] * n1
        for col, row in zip(q, m):
            if row[j] % 2:
                acc = [x + y for x, y in zip(acc, col)]
        cols.append(_canonical_element(pi1, tuple(acc)))
    return tuple(cols)


def compose_q_with_mod2(data: Stable2TypeData, induced) -> tuple:
    """Columns of q composed with an induced mod-2 matrix (columns = source gens)."""
    return _q_times_mod2(data.pi1, data.q, induced)
