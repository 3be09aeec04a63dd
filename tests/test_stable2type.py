import itertools
import time
from math import gcd, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _is_torsion_automorphism, f2_rref, is_torsion_automorphism_brute
from oracles import equivalent as equivalent_nested

from supercoh import stable2type as s2t
from supercoh.exact_linalg import AbelianGroupPresentation as G
from supercoh.exact_linalg import normalize_factors

Z = G(1, ())
Z2 = G(0, (2,))
Z3 = G(0, (3,))
Z4 = G(0, (4,))
Z8 = G(0, (8,))


class TestEnumeration:
    @pytest.mark.parametrize(
        "pi0,pi1,count",
        [(Z8, Z2, 2), (Z2, Z2, 2), (Z, Z2, 2), (Z3, Z2, 1), (Z2, Z3, 1)],
    )
    def test_counts(self, pi0, pi1, count):
        assert len(s2t.enumerate_symmetric_structures(pi0, pi1)) == count

    def test_formula_vs_bruteforce(self):
        # |structures| = |Hom(pi0 (x) Z/2, pi1[2])| counted elementwise
        groups = [Z, Z2, Z3, Z8, G(0, (2, 4)), G(1, (2,))]
        for pi0, pi1 in itertools.product(groups, repeat=2):
            tor2 = [
                x
                for x in itertools.product(*(range(d) for d in pi1.invariant_factors))
                if all((2 * c) % d == 0 for c, d in zip(x, pi1.invariant_factors))
            ]
            # pi0 (x) Z/2 has one Z/2 per free generator and per even factor
            s = pi0.free_rank + sum(1 for d in pi0.invariant_factors if d % 2 == 0)
            expected = len(tor2) ** s
            got = len(s2t.enumerate_symmetric_structures(pi0, pi1))
            assert got == expected, (pi0, pi1)

    def test_cap(self):
        big = G(0, (2,) * 8)
        with pytest.raises(ValueError):
            s2t.enumerate_symmetric_structures(big, big, cap=10)

    def test_cap_is_checked_before_listing(self):
        # pi1[2] has 2^40 elements: only their count may be computed
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"enumeration of 2\^40 structures exceeds cap 10"):
            s2t.enumerate_symmetric_structures(Z2, G(0, (2,) * 40), cap=10)
        # pi0 (x) Z/2 = 0: the one structure q = () needs no element of pi1[2]
        assert len(s2t.enumerate_symmetric_structures(Z3, G(0, (2,) * 40), cap=10)) == 1
        assert time.perf_counter() - start < 1

    def test_cap_message_for_a_huge_count(self):
        # 2^20000 has over 4300 decimal digits: the message names it as a power
        big = G(0, (2,) * 200)
        with pytest.raises(ValueError, match=r"enumeration of 2\^20000 structures exceeds cap 10$"):
            s2t.enumerate_symmetric_structures(G(0, (2,) * 100), big, cap=10)

    def test_cap_boundary(self):
        # (Z/2, (Z/2)^2): 4 structures, listed at cap 4 and refused at cap 3 or below
        z2sq = G(0, (2, 2))
        assert len(s2t.enumerate_symmetric_structures(Z2, z2sq, cap=4)) == 4
        for cap in (3, 0, -1):
            with pytest.raises(ValueError, match=r"2\^2 structures"):
                s2t.enumerate_symmetric_structures(Z2, z2sq, cap=cap)


class TestValidation:
    def test_q_must_be_two_torsion(self):
        with pytest.raises(ValueError):
            s2t.Stable2TypeData(Z2, Z4, ((1,),))
        s2t.Stable2TypeData(Z2, Z4, ((2,),))  # d/2 is fine

    def test_q_column_count(self):
        with pytest.raises(ValueError):
            s2t.Stable2TypeData(Z2, Z2, ())


class TestEquivalence:
    def test_reflexive(self):
        for data in s2t.catalog().values():
            assert s2t.equivalent(data, data)

    def test_zero_vs_nonzero(self):
        nonzero = s2t.Stable2TypeData(Z2, Z2, ((1,),))
        zero = s2t.Stable2TypeData(Z2, Z2, ((0,),))
        assert not s2t.equivalent(nonzero, zero)
        assert not s2t.equivalent(zero, nonzero)

    def test_z4_nonzero_structures(self):
        a = s2t.Stable2TypeData(Z4, Z2, ((1,),))
        b = s2t.Stable2TypeData(Z4, Z2, ((1,),))
        assert s2t.equivalent(a, b)

    def test_different_groups(self):
        assert not s2t.equivalent(
            s2t.Stable2TypeData(Z2, Z2, ((1,),)),
            s2t.Stable2TypeData(Z4, Z2, ((1,),)),
        )

    def test_symmetric_and_transitive_sample(self):
        pool = s2t.enumerate_symmetric_structures(G(0, (2, 2)), Z2)
        for a, b in itertools.product(pool, repeat=2):
            ab = s2t.equivalent(a, b)
            ba = s2t.equivalent(b, a)
            assert ab == ba
        # transitivity spot check on an equivalence chain
        for a, b, c in itertools.product(pool, repeat=3):
            if s2t.equivalent(a, b) and s2t.equivalent(b, c):
                assert s2t.equivalent(a, c)

    def test_swap_generators_equivalence(self):
        # (Z/2)^2 with q hitting one generator is equivalent to hitting the other
        pi0 = G(0, (2, 2))
        a = s2t.Stable2TypeData(pi0, Z2, ((1,), (0,)))
        b = s2t.Stable2TypeData(pi0, Z2, ((0,), (1,)))
        assert s2t.equivalent(a, b)


class TestEquivalenceAgainstNestedSearch:
    """The corner ranks answer exactly as the nested search kept in
    tests/oracles.py."""

    POOLS = (
        # the algebra_small benchmark specs
        (G(0, (4, 8)), G(0, (2, 2))),
        (G(0, (2, 8)), G(0, (2, 2))),
        (G(1, (2,)), G(0, (2, 2))),
        (G(0, (2, 2)), Z2),
        (Z, Z2),
        (G(2, ()), G(0, (2, 4))),
    )

    @pytest.mark.parametrize("pi0, pi1", POOLS, ids=lambda g: str(g).replace(" ⊕ ", "+"))
    def test_every_pair(self, pi0, pi1):
        pool = s2t.enumerate_symmetric_structures(pi0, pi1)
        for a, b in itertools.product(pool, repeat=2):
            assert s2t.equivalent(a, b) == equivalent_nested(a, b)

    @pytest.mark.parametrize(
        "pi0, pi1",
        # two or more exponents on both sides; 7 classes each
        [(G(0, (2, 4)), G(0, (2, 4))), (G(1, (2,)), G(0, (4, 8))), (G(1, (4,)), G(0, (2, 4)))],
        ids=lambda g: str(g).replace(" ⊕ ", "+"),
    )
    def test_partition_of_multilevel_pools(self, pi0, pi1):
        pool = s2t.enumerate_symmetric_structures(pi0, pi1)
        labels = _class_labels(pool, s2t.equivalent)
        assert max(labels) + 1 == 7
        assert labels == _class_labels(pool, equivalent_nested)


def _exponent(d):
    """The 2-exponent v2(d) of an order d, infinite for a free generator."""
    return (d & -d).bit_length() - 1 if d else inf


@given(
    st.lists(st.sampled_from([0, 2, 4, 8, 16]), max_size=4),
    st.lists(st.sampled_from([2, 4, 8, 3, 6]), max_size=4),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_corner_ranks_match_the_scanning_echelon(orders0, factors1, free1, rng):
    """Each corner rank is the F2 rank, by the oracle's bitmask echelon, of
    the q bits on the columns of exponent <= k and the rows of exponent < l."""
    pi0 = G(orders0.count(0), normalize_factors(d for d in orders0 if d))
    pi1 = G(free1, normalize_factors(factors1))
    col_exps = [_exponent(d) for d in pi0.invariant_factors + (0,) * pi0.free_rank if d % 2 == 0]
    row_exps = [_exponent(d) for d in pi1.invariant_factors]
    q = [
        tuple(rng.choice((0, d // 2)) if d % 2 == 0 else 0 for d in pi1.invariant_factors) + (0,) * free1
        for _ in col_exps
    ]
    ranks = []
    for k in sorted(set(col_exps)):
        for l in sorted(set(row_exps)) + [inf]:
            rows = [
                sum(1 << i for i, (c, e) in enumerate(zip(col, row_exps)) if c and e < l)
                for col, e in zip(q, col_exps)
                if e <= k
            ]
            ranks.append(len(f2_rref(rows)[1]))
    assert s2t._corner_ranks(s2t.Stable2TypeData(pi0, pi1, tuple(q))) == tuple(ranks)


def _class_labels(pool, equivalent):
    """Class of each structure, numbered by first appearance: each one is
    compared with one representative of each class found so far."""
    reps, labels = [], []
    for data in pool:
        label = next((i for i, rep in enumerate(reps) if equivalent(rep, data)), len(reps))
        if label == len(reps):
            reps.append(data)
        labels.append(label)
    return labels


@pytest.mark.parametrize("factors", [(2,), (3,), (4,), (12,), (2, 2), (2, 4), (3, 6), (4, 8), (2, 2, 2)], ids=str)
def test_socle_bijectivity_check_matches_the_brute_one(factors):
    """Checking the socles answers as mapping the whole group, on every
    endomorphism of Z/d1 + ... given by generator images."""
    images = [
        list(itertools.product(*(range(0, di, di // gcd(di, dj)) for di in factors)))
        for dj in factors
    ]
    answers = set()
    for cols in itertools.product(*images):
        answer = _is_torsion_automorphism(factors, cols)
        assert answer == is_torsion_automorphism_brute(factors, cols), cols
        answers.add(answer)
    assert answers == {True, False}


class TestCatalog:
    def test_entries(self):
        cat = s2t.catalog()
        assert cat["sphere"].pi0 == Z
        assert cat["ku"].pi0 == Z2
        assert cat["ko"].pi0 == Z8
        for name in ("sphere", "ku", "ko"):
            assert cat[name].pi1 == Z2
            assert not s2t.is_trivial(cat[name])

    def test_freed_aliases(self):
        cat = s2t.catalog()
        assert cat["calg_c"] == cat["ku"]
        assert cat["calg_r"] == cat["ko"]

    def test_unit_compatibility(self):
        cat = s2t.catalog()
        # the unit sends 1 in pi0(S) = Z to the one generator of pi0 = Z/2
        # (ku) and Z/8 (ko), so it carries q to q when the columns agree
        for name in ("ku", "ko"):
            assert cat[name].q == cat["sphere"].q


def _random_automorphism(orders, rng, moves=8):
    """Generator images of a product of elementary automorphisms, each of
    which respects the orders (0 for a free generator): e_j -> e_j + c e_i
    when c e_i is killed by the order of e_j, e_j -> u e_j for a unit u,
    and the swap of two generators of the same order."""
    n = len(orders)
    images = [[int(i == j) for i in range(n)] for j in range(n)]
    for _ in range(moves if n else 0):
        i, j, kind = rng.randrange(n), rng.randrange(n), rng.randrange(3)
        di, dj = orders[i], orders[j]
        if kind == 0 and i != j and (di or not dj):
            c = rng.randint(-3, 3) if not dj else di // gcd(di, dj) * rng.randrange(di)
            images[j] = [x + c * y for x, y in zip(images[j], images[i])]
        elif kind == 1:
            u = rng.choice([u for u in range(1, dj) if gcd(u, dj) == 1]) if dj else -1
            images[j] = [u * x for x in images[j]]
        elif kind == 2 and di == dj:
            images[i], images[j] = images[j], images[i]
    return images


def _reduce(orders, coords):
    return tuple(c % d if d else c for c, d in zip(coords, orders))


presentations_up_to_free_rank_3 = st.builds(
    lambda free, orders: G(free, normalize_factors(orders)),
    st.integers(0, 3),
    st.lists(st.integers(1, 16), max_size=3),
)


@given(presentations_up_to_free_rank_3, presentations_up_to_free_rank_3, st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_transport_by_automorphisms_is_equivalent(pi0, pi1, rng):
    """q and phi1 . q . (psi0 (x) Z/2) are equivalent for automorphisms psi0
    of pi0 and phi1 of pi1."""
    orders0 = [*pi0.invariant_factors, *[0] * pi0.free_rank]
    orders1 = [*pi1.invariant_factors, *[0] * pi1.free_rank]
    mod2 = [i for i, d in enumerate(orders0) if d % 2 == 0]
    q = [tuple(rng.choice((0, d // 2)) if d % 2 == 0 else 0 for d in orders1) for _ in mod2]
    psi0 = _random_automorphism(orders0, rng)
    phi1 = _random_automorphism(orders1, rng)
    moved = []
    for j in mod2:
        # q(psi0(g_j)): the q columns of the mod-2 generators psi0(g_j) hits an odd number of times
        x = [0] * len(orders1)
        for t, col in zip(mod2, q):
            x = [a + psi0[j][t] % 2 * b for a, b in zip(x, col)]
        moved.append(_reduce(orders1, [sum(c * image[i] for c, image in zip(x, phi1)) for i in range(len(orders1))]))
    a = s2t.Stable2TypeData(pi0, pi1, tuple(q))
    b = s2t.Stable2TypeData(pi0, pi1, tuple(moved))
    assert s2t.equivalent(a, b) and s2t.equivalent(b, a)
