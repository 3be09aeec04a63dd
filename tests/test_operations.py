import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cup_i_loop

from supercoh import corpus
from supercoh.brauer import BrauerElement
from supercoh.dsv import QQ, DSV, BoundedChainComplex, DSVMap, Field, direct_sum, mat_mul, swap_map
from supercoh.exact_linalg import AbelianGroupPresentation, SparseMatrix, cokernel, smith_decomposition, solve_mod
from supercoh.operations import bockstein, cup, cup_i, reduce_mod, sq, sq1_via_bockstein
from supercoh.simplicial import (
    Cochain,
    CohomologyClass,
    SimplicialComplex,
    SimplicialMap,
    class_coordinates,
    cohomology,
    is_cohomologous,
    presentation,
    sq1_coordinates,
)
from supercoh.stable2type import Stable2TypeData
from supercoh.superline import SuperLine, classification_data

F5 = Field(5)

SURFACES = ("s1", "s2", "t2", "klein", "rp2", "s1xs1")
SQ1_NAMES = corpus.CORPUS_NAMES + ("rp2xs1", "kleinxs1", "t2xs1", "s2xs1")


def random_cochain(x, q, n, rng):
    hi = n if n else 9
    lo = 0 if n else -4
    return Cochain(x, q, n, tuple(rng.randint(lo, hi - 1) for _ in range(x.simplex_count(q))))


complexes = st.sampled_from(SURFACES)


class TestCup:
    def test_unit(self, t2):
        rng = random.Random(0)
        unit = Cochain(t2, 0, 2, (1,) * 7)
        b = random_cochain(t2, 1, 2, rng)
        assert cup(unit, b).values == b.values

    def test_rp2_square_nonzero(self, rp2):
        _, basis = cohomology(rp2, 1, 2)
        w = basis[0].cochain
        assert not is_cohomologous(cup(w, w), Cochain.zero(rp2, 2, 2))

    def test_torus_mixed_cup_generates(self, t2):
        _, basis = cohomology(t2, 1, 2)
        b1, b2 = (c.cochain for c in basis)
        assert not is_cohomologous(cup(b1, b2), Cochain.zero(t2, 2, 2))

    def test_modulus_mismatch(self, t2):
        a = Cochain.zero(t2, 1, 2)
        b = Cochain.zero(t2, 1, 3)
        with pytest.raises(ValueError):
            cup(a, b)

    @given(complexes, st.integers(0, 2), st.integers(0, 2), st.sampled_from([0, 2, 3, 4]), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_leibniz_exact(self, name, p, q, n, seed):
        x = corpus.complex_by_name(name)
        if p + q + 1 > x.dim:
            return
        rng = random.Random(seed)
        a = random_cochain(x, p, n, rng)
        b = random_cochain(x, q, n, rng)
        lhs = cup(a, b).coboundary()
        sign = 1 if p % 2 == 0 else -1
        rhs = cup(a.coboundary(), b) + cup(a, b.coboundary()).scale(sign)
        diff = lhs - rhs
        if n:
            assert all(v % n == 0 for v in diff.values)
        else:
            assert diff.is_zero()

    def test_bilinear(self, rp2):
        rng = random.Random(4)
        a1 = random_cochain(rp2, 1, 2, rng)
        a2 = random_cochain(rp2, 1, 2, rng)
        b = random_cochain(rp2, 1, 2, rng)
        assert cup(a1 + a2, b).values == (cup(a1, b) + cup(a2, b)).values


class TestCupI:
    def test_cup0_is_cup(self, rp2):
        rng = random.Random(1)
        a = random_cochain(rp2, 1, 2, rng)
        b = random_cochain(rp2, 1, 2, rng)
        assert cup_i(0, a, b).values == cup(a, b).values

    def test_out_of_range_is_zero(self, rp2):
        a = Cochain(rp2, 1, 2, (1,) * 15)
        assert cup_i(2, a, a).degree == 0 or cup_i(2, a, a).is_zero()

    def test_modulus_guard(self, rp2):
        a = Cochain.zero(rp2, 1, 3)
        with pytest.raises(ValueError):
            cup_i(1, a, a)

    def test_circle_commutator_identity(self, s1):
        rng = random.Random(2)
        # on cocycles: delta(a cup_1 b) = a cup b + b cup a
        for _ in range(5):
            _, basis = cohomology(s1, 1, 2)
            a = basis[0].cochain.scale(rng.randint(0, 1))
            b = basis[0].cochain
            lhs = cup_i(1, a, b).coboundary()
            rhs = cup(a, b) + cup(b, a)
            assert all((p - q) % 2 == 0 for p, q in zip(lhs.values, rhs.values))

    @given(complexes, st.integers(0, 2), st.integers(0, 2), st.integers(1, 2), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_coboundary_formula(self, name, p, q, i, seed):
        x = corpus.complex_by_name(name)
        if p + q - i < 0 or p + q - i + 1 > x.dim:
            return
        rng = random.Random(seed)
        a = random_cochain(x, p, 2, rng)
        b = random_cochain(x, q, 2, rng)
        lhs = cup_i(i, a, b).coboundary()
        rhs = (
            cup_i(i - 1, a, b)
            + cup_i(i - 1, b, a)
            + cup_i(i, a.coboundary(), b)
            + cup_i(i, a, b.coboundary())
        )
        assert all((u - v) % 2 == 0 for u, v in zip(lhs.values, rhs.values))


@pytest.mark.parametrize("name", corpus.CORPUS_NAMES + ("rp2xs1",))
def test_cup_i_matches_the_loop(name):
    """The table-driven cup-i against the per-simplex loop, for every i <= 2
    and every (p, q) with 0 <= p + q - i <= dim."""
    if name == "rp2xs1":
        x = corpus.product_with_projections("rp2", "s1")[0]
    else:
        x = corpus.complex_by_name(name)
    rng = random.Random(name)
    for i in range(3):
        for p in range(x.dim + 1):
            for q in range(x.dim + 1):
                if 0 <= p + q - i <= x.dim:
                    a = random_cochain(x, p, 2, rng)
                    b = random_cochain(x, q, 2, rng)
                    assert cup_i(i, a, b) == cup_i_loop(i, a, b), (i, p, q)


class TestSq:
    def test_sq0_identity_on_classes(self, all_surfaces):
        for x in all_surfaces.values():
            for q in range(x.dim + 1):
                for cls in cohomology(x, q, 2)[1]:
                    assert is_cohomologous(sq(0, cls).cochain, cls.cochain)

    def test_sq_top_is_cup_square(self, all_surfaces):
        for x in all_surfaces.values():
            for q in range(x.dim + 1):
                for cls in cohomology(x, q, 2)[1]:
                    got = sq(q, cls).cochain
                    want = cup(cls.cochain, cls.cochain)
                    assert is_cohomologous(got, want)

    def test_sq_above_degree_is_zero(self, rp2):
        _, basis = cohomology(rp2, 1, 2)
        s = sq(2, basis[0])
        assert s.cochain.is_zero()

    def test_rp2_sq1(self, rp2):
        _, basis = cohomology(rp2, 1, 2)
        w = basis[0]
        assert is_cohomologous(sq(1, w).cochain, cup(w.cochain, w.cochain))

    def test_modulus_guard(self, rp2):
        c = CohomologyClass(Cochain.zero(rp2, 1, 3))
        with pytest.raises(ValueError):
            sq(1, c)


@pytest.mark.parametrize("name", SQ1_NAMES)
def test_morse_sq1_matches_the_cochain_squares(name):
    """sq1_coordinates reads Sq^1 off the Morse complex; on X it is the
    cup-(q-1) square and the reduced Bockstein of each basis class."""
    if name.endswith("xs1"):
        x = corpus.product_with_projections(name[: -len("xs1")], "s1")[0]
    else:
        x = corpus.complex_by_name(name)
    for q in (1, 2):
        _, basis = cohomology(x, q, 2)
        morse = sq1_coordinates(x, q)
        assert len(morse) == len(basis)
        for cls, coords in zip(basis, morse):
            assert class_coordinates(sq(1, cls).cochain) == coords, q
            assert class_coordinates(sq1_via_bockstein(cls).cochain) == coords, q


class TestBockstein:
    def test_zero(self, rp2):
        z = CohomologyClass(Cochain.zero(rp2, 1, 2))
        assert bockstein(z).cochain.is_zero()

    def test_liftable_classes_die(self, t2):
        # torus degree-1 classes lift to Z, so the Bockstein vanishes
        for cls in cohomology(t2, 1, 2)[1]:
            b = bockstein(cls)
            assert is_cohomologous(b.cochain, Cochain.zero(t2, 2, 0))

    def test_rp2_sq1_comparison(self, rp2):
        _, basis = cohomology(rp2, 1, 2)
        w = basis[0]
        lhs = reduce_mod(bockstein(w).cochain, 2)
        assert is_cohomologous(lhs, sq(1, w).cochain)

    def test_m_times_class_dies(self, rp2):
        _, basis = cohomology(rp2, 1, 2)
        b = bockstein(basis[0]).cochain
        assert is_cohomologous(b.scale(2), Cochain.zero(rp2, 2, 0))

    def test_integral_output(self, klein):
        for cls in cohomology(klein, 1, 2)[1]:
            b = bockstein(cls)
            assert b.modulus == 0
            assert b.degree == 2


class TestReduceMod:
    def test_even_integral_to_zero(self, rp2):
        c = Cochain(rp2, 1, 0, tuple(2 * i for i in range(15)))
        assert reduce_mod(c, 2).is_zero()

    def test_mod8_to_parity(self, point):
        c = Cochain(point, 0, 8, (5,))
        assert reduce_mod(c, 2).values == (1,)

    def test_unit_reduces_to_unit(self, rp2):
        c = Cochain(rp2, 0, 0, (1,) * 6)
        assert reduce_mod(c, 2).values == (1,) * 6

    def test_nondividing_rejected(self, point):
        c = Cochain(point, 0, 8, (1,))
        with pytest.raises(ValueError):
            reduce_mod(c, 3)


class TestSuiteIdentities:
    def test_sq1_is_rho_beta_everywhere(self, all_surfaces):
        for x in all_surfaces.values():
            for q in range(x.dim + 1):
                for cls in cohomology(x, q, 2)[1]:
                    assert is_cohomologous(
                        sq(1, cls).cochain, sq1_via_bockstein(cls).cochain
                    )

    def test_sq1_sq1_zero(self, all_surfaces):
        for x in all_surfaces.values():
            for q in range(x.dim + 1):
                for cls in cohomology(x, q, 2)[1]:
                    ss = sq(1, sq(1, cls))
                    assert is_cohomologous(ss.cochain, Cochain.zero(x, ss.degree, 2))

    def test_adem_sq2sq2_sq3sq1(self, all_surfaces, rp2xrp2):
        spaces = list(all_surfaces.values()) + [rp2xrp2]
        for x in spaces:
            for q in range(min(x.dim, 3) + 1):
                for cls in cohomology(x, q, 2)[1]:
                    lhs = sq(2, sq(2, cls))
                    rhs = sq(3, sq(1, cls))
                    assert is_cohomologous(lhs.cochain, rhs.cochain)

    def test_cartan_sq1(self, all_surfaces):
        rng = random.Random(12)
        for x in all_surfaces.values():
            _, basis = cohomology(x, 1, 2)
            if not basis:
                continue
            a = basis[0].cochain
            b = basis[-1].cochain
            ab = cup(a, b)
            lhs = sq1_via_bockstein(CohomologyClass(ab)).cochain
            rhs = cup(sq1_via_bockstein(CohomologyClass(a)).cochain, b) + cup(
                a, sq1_via_bockstein(CohomologyClass(b)).cochain
            )
            assert is_cohomologous(lhs, rhs)

    def test_graded_commutativity(self, all_surfaces):
        for x in all_surfaces.values():
            for p in range(x.dim + 1):
                for q in range(x.dim + 1 - p):
                    for ca in cohomology(x, p, 2)[1]:
                        for cb in cohomology(x, q, 2)[1]:
                            assert is_cohomologous(
                                cup(ca.cochain, cb.cochain), cup(cb.cochain, ca.cochain)
                            )


class TestSquaresAgainstRingStructure:
    """Cross-check Sq^k values against cup expressions derived independently."""

    def test_sq2_cartan_on_product(self):
        # Sq2(b1 b2) = Sq2 b1 . b2 + Sq1 b1 . Sq1 b2 + b1 . Sq2 b2 = b1^2 b2^2
        prod, p1, p2 = corpus.product_with_projections("rp2", "rp2")
        rp2 = corpus.complex_by_name("rp2")
        w = cohomology(rp2, 1, 2)[1][0].cochain
        b1, b2 = p1.pullback(w), p2.pullback(w)
        mixed = CohomologyClass(cup(b1, b2))
        lhs = sq(2, mixed).cochain
        rhs = cup(cup(b1, b1), cup(b2, b2))
        assert is_cohomologous(lhs, rhs)
        assert not is_cohomologous(lhs, Cochain.zero(prod, 4, 2))

    def test_sq2_kills_pullback_squares(self):
        # Sq2(b1^2) = b1^4 = 0 since b1 is pulled back from a surface class
        prod, p1, _ = corpus.product_with_projections("rp2", "rp2")
        rp2 = corpus.complex_by_name("rp2")
        w = cohomology(rp2, 1, 2)[1][0].cochain
        b1 = p1.pullback(w)
        square = CohomologyClass(cup(b1, b1))
        out = sq(2, square)
        assert is_cohomologous(out.cochain, Cochain.zero(prod, 4, 2))

    def test_sq1_on_product_degree_three(self):
        # Sq1(b1^2 b2) = b1^2 b2^2 by Cartan with Sq1(b1^2) = 0
        prod, p1, p2 = corpus.product_with_projections("rp2", "rp2")
        rp2 = corpus.complex_by_name("rp2")
        w = cohomology(rp2, 1, 2)[1][0].cochain
        b1, b2 = p1.pullback(w), p2.pullback(w)
        cls = CohomologyClass(cup(cup(b1, b1), b2))
        lhs = sq(1, cls).cochain
        rhs = cup(cup(b1, b1), cup(b2, b2))
        assert is_cohomologous(lhs, rhs)
        # and the Bockstein route agrees
        assert is_cohomologous(sq1_via_bockstein(cls).cochain, rhs)


class TestNaturality:
    def test_pullback_commutes_with_operations(self):
        prod, p1, p2 = corpus.product_with_projections("rp2", "rp2")
        rp2 = corpus.complex_by_name("rp2")
        rng = random.Random(3)
        _, basis = cohomology(rp2, 1, 2)
        w = basis[0].cochain
        for proj in (p1, p2):
            a = w
            b = random_cochain(rp2, 1, 2, rng)
            assert proj.pullback(cup(a, b)).values == cup(
                proj.pullback(a), proj.pullback(b)
            ).values
            assert proj.pullback(cup_i(1, a, b)).values == cup_i(
                1, proj.pullback(a), proj.pullback(b)
            ).values
            bb = bockstein(CohomologyClass(a)).cochain
            assert proj.pullback(bb).values == bockstein(
                CohomologyClass(proj.pullback(a))
            ).cochain.values
            assert proj.pullback(reduce_mod(bb, 2)).values == reduce_mod(
                proj.pullback(bb), 2
            ).values


def _zero(name, q, n):
    return Cochain.zero(corpus.complex_by_name(name), q, n)


def _superline_with_an_integral_line_class():
    rp2 = corpus.complex_by_name("rp2")
    return SuperLine("real", rp2, (0,), CohomologyClass(Cochain.zero(rp2, 2, 0)))


def _pullback_of_a_foreign_cochain():
    rp2 = corpus.complex_by_name("rp2")
    return SimplicialMap(rp2, rp2, range(rp2.vertex_count)).pullback(_zero("s1", 1, 2))


def _edge_onto_two_points():
    # the image (0, 1) of the edge is monotone, but the target has no edge
    return SimplicialMap(SimplicialComplex(2, [(0, 1)]), SimplicialComplex(2, [(0,), (1,)]), (0, 1))


def _map_breaking_d1():
    # d1 = 1 on (1|1): f0 d1 = 1, but d1 f1 = 2
    v = DSV.make(F5, 1, 1, [[0]], [[1]])
    return DSVMap.make(v, v, [[1]], [[2]])


# each call fails the argument check that the message names, at the boundary
# of the module that makes it
ARGUMENT_CHECKS = {
    "brauer-two-complexes": (
        lambda: BrauerElement("ku", _zero("rp2", 0, 2), _zero("s1", 1, 2), _zero("rp2", 3, 0)),
        "different complexes",
    ),
    "brauer-wrong-degree": (
        lambda: BrauerElement("ko", _zero("rp2", 0, 8), _zero("rp2", 1, 2), _zero("rp2", 1, 2)),
        "does not match the ko layout",
    ),
    "brauer-wrong-modulus": (
        lambda: BrauerElement("ko", _zero("rp2", 0, 2), _zero("rp2", 1, 2), _zero("rp2", 2, 2)),
        "does not match the ko layout",
    ),
    "cup_i-two-complexes": (lambda: cup_i(0, _zero("rp2", 1, 2), _zero("s1", 1, 2)), "common complex"),
    "cup_i-negative-index": (lambda: cup_i(-1, _zero("rp2", 1, 2), _zero("rp2", 1, 2)), "index must be >= 0"),
    "cup_i-negative-degree": (lambda: cup_i(2, _zero("rp2", 0, 2), _zero("rp2", 1, 2)), "target degree is negative"),
    "sq-negative-k": (lambda: sq(-1, CohomologyClass(_zero("rp2", 1, 2))), "needs k >= 0"),
    "reduce_mod-zero": (lambda: reduce_mod(_zero("rp2", 1, 0), 0), "must be positive"),
    "reduce_mod-negative": (lambda: reduce_mod(_zero("rp2", 1, 0), -2), "must be positive"),
    "bockstein-integral": (lambda: bockstein(CohomologyClass(_zero("rp2", 1, 0))), "finite modulus"),
    "sq1_via_bockstein-mod-3": (lambda: sq1_via_bockstein(CohomologyClass(_zero("rp2", 1, 3))), "mod-2 class"),
    "superline-line-class-shape": (_superline_with_an_integral_line_class, "degree-1 cocycle mod 2"),
    "superline-unknown-flavor": (lambda: classification_data("quaternionic"), "unknown flavor"),
    "pullback-foreign-cochain": (_pullback_of_a_foreign_cochain, "does not live on the target"),
    "pullback-image-not-a-simplex": (_edge_onto_two_points, "is not a simplex of the target"),
    "complex-negative-vertex-count": (lambda: SimplicialComplex(-1, []), "vertex_count must be >= 0"),
    "cochain-value-count": (lambda: Cochain(corpus.complex_by_name("s1"), 1, 2, (0, 0)), "needs 3 values, got 2"),
    "cochain-negative-modulus": (lambda: Cochain(corpus.complex_by_name("s1"), 1, -2, (0, 0, 0)), "modulus must be >= 0"),
    "cochain-sum-two-degrees": (lambda: _zero("rp2", 1, 0) + _zero("rp2", 2, 0), "context mismatch"),
    "presentation-negative-degree": (lambda: presentation(corpus.complex_by_name("s1"), -1), "degree must be >= 0"),
    "stable2type-short-q-column": (
        lambda: Stable2TypeData(AbelianGroupPresentation(0, (2,)), AbelianGroupPresentation(0, (2,)), ((),)),
        "wrong length for pi1",
    ),
    "solve_mod-negative-modulus": (lambda: solve_mod(SparseMatrix(1, 1, [{0: 2}]), [1], -2), "modulus must be >= 0"),
    "cokernel-negative-modulus": (lambda: cokernel(SparseMatrix(1, 1, [{0: 2}]), -2), "modulus must be >= 0"),
    "sparse-matrix-row-count": (lambda: SparseMatrix(2, 1, [{0: 1}]), "row count does not match"),
    "presentation-negative-free-rank": (lambda: AbelianGroupPresentation(-1, ()), "negative free rank"),
    "oplog-solve-vector-length": (
        lambda: smith_decomposition(SparseMatrix(2, 1, [{0: 1}, {}])).solve([1], 0),
        "dimension mismatch",
    ),
    "dsvmap-two-fields": (lambda: DSVMap(DSV.unit(F5), DSV.unit(QQ), ((1,),), ()), "field mismatch"),
    "dsvmap-f0-shape": (lambda: DSVMap(DSV.unit(F5), DSV.unit(F5), (), ()), "f0 has wrong shape"),
    "dsvmap-f1-shape": (lambda: DSVMap(DSV.odd_line(F5), DSV.odd_line(F5), (), ()), "f1 has wrong shape"),
    "dsvmap-not-commuting-with-d1": (_map_breaking_d1, "does not commute with d1"),
    "bounded-complex-boundary-count": (
        lambda: BoundedChainComplex(F5, 0, (1, 1), ()),
        "one boundary map per adjacent degree pair",
    ),
    "bounded-complex-boundary-shape": (
        lambda: BoundedChainComplex(F5, 0, (1, 1), (((1, 0),),)),
        "boundary 0 has wrong shape",
    ),
    "mat_mul-inner-dimension": (lambda: mat_mul(F5, ((1, 2),), ((1,),)), "dimension mismatch"),
    "direct_sum-two-fields": (lambda: direct_sum(DSV.unit(F5), DSV.unit(QQ)), "field mismatch"),
    "swap_map-two-fields": (lambda: swap_map(DSV.unit(F5), DSV.unit(QQ)), "field mismatch"),
    "dsv-d0-shape": (lambda: DSV(F5, 1, 1, (), ((0,),)), "d0 must be dim1 x dim0"),
    "dsv-d1-shape": (lambda: DSV(F5, 1, 1, ((0,),), ()), "d1 must be dim0 x dim1"),
}


@pytest.mark.parametrize("case", ARGUMENT_CHECKS)
def test_argument_check_raises(case):
    call, message = ARGUMENT_CHECKS[case]
    with pytest.raises(ValueError, match=message):
        call()
