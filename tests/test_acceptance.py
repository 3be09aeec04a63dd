"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  All checks are exact; time limits are enforced.
"""

import random
import time

import pytest

from supercoh import brauer, corpus, dsv, operations, simplicial, stable2type, superline
from supercoh.exact_linalg import AbelianGroupPresentation as G
from supercoh.simplicial import Cochain, CohomologyClass, cohomology, is_cohomologous
from supercoh.verify import _random_bounded_complex, _random_dsv, _random_dsv_map

CORPUS = ("point", "s1", "s2", "t2", "klein", "rp2", "s1xs1", "rp2xrp2")


def _report(number, label, started, limit):
    elapsed = time.time() - started
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number} PASS  {label}  [{elapsed:.2f}s < {limit:.0f}s]")


def test_criterion_1_point_groups():
    t0 = time.time()
    pt = corpus.complex_by_name("point")
    assert brauer.abstract_group(pt, "ku") == G(0, (2,))
    assert brauer.abstract_group(pt, "ko") == G(0, (8,))
    _report(1, "point groups Z/2 and Z/8", t0, 1.0)


def test_criterion_2_rp2_ko_extension():
    t0 = time.time()
    rp2 = corpus.complex_by_name("rp2")
    assert brauer.twist_subgroup(rp2, "ko") == G(0, (4,))
    _, basis = cohomology(rp2, 1, 2)
    w = basis[0].cochain
    x = brauer.element(rp2, "ko", b=w.values)
    assert brauer.element_order(x) == 4
    _report(2, "twist(RP2, ko) = Z/4 with (0,w,0) of order 4", t0, 1.0)


def test_criterion_3_rp2xrp2_ku_extension():
    t0 = time.time()
    prod, p1, p2 = corpus.product_with_projections("rp2", "rp2")
    rp2 = corpus.complex_by_name("rp2")
    _, basis = cohomology(rp2, 1, 2)
    w = basis[0].cochain
    b1, b2 = p1.pullback(w), p2.pullback(w)
    x = brauer.element(prod, "ku", b=b1.values)
    y = brauer.element(prod, "ku", b=b2.values)
    z = brauer.add(x, y)
    assert z.c.values == operations.bockstein(
        CohomologyClass(operations.cup(b1, b2))
    ).cochain.values
    # certificate Sq1 = rho . beta: the mod-2 reduction of the c slot is
    # Sq1(b1 cup b2); it is a nonzero class, so the integral class is nonzero
    # (the reduction of an integral coboundary is a mod-2 coboundary).
    s_beta = operations.reduce_mod(z.c, 2)
    s_cup = operations.sq(1, CohomologyClass(operations.cup(b1, b2)))
    assert is_cohomologous(s_beta, s_cup.cochain)
    assert not is_cohomologous(s_beta, Cochain.zero(prod, 3, 2))
    _report(3, "third slot of (0,b1,0)+(0,b2,0) on RP2xRP2 is nonzero", t0, 60.0)


def test_criterion_4_group_axioms():
    t0 = time.time()
    rng = random.Random(20260810)
    for name in CORPUS:
        x = corpus.complex_by_name(name)
        for variant in ("ku", "ko"):
            ident = brauer.identity_element(x, variant)
            for _ in range(100):
                a = brauer.random_element(x, variant, rng)
                b = brauer.random_element(x, variant, rng)
                c = brauer.random_element(x, variant, rng)
                assert brauer.equals(
                    brauer.add(brauer.add(a, b), c), brauer.add(a, brauer.add(b, c))
                )
                assert brauer.equals(brauer.add(a, ident), a)
                assert brauer.equals(brauer.add(a, brauer.negate(a)), ident)
                assert brauer.equals(brauer.add(a, b), brauer.add(b, a))
    _report(4, "group axioms, 100 random triples per variant per complex", t0, 300.0)


def test_criterion_5_dsv_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(5)
    f5 = dsv.Field(5)
    mismatches = 0
    quasi = 0
    for _ in range(200):
        v = _random_dsv(f5, rng)
        w = v if rng.random() < 0.5 else _random_dsv(f5, rng)
        fmap = _random_dsv_map(f5, v, w, rng)
        qi = dsv.is_quasi_iso(fmap)
        hi = dsv.homotopy_inverse(fmap)
        quasi += qi
        mismatches += qi != (hi is not None)
    assert mismatches == 0
    assert 0 < quasi < 200  # both branches exercised
    _report(5, f"200 maps over F5: quasi-iso iff homotopy inverse ({quasi} quasi-isos)", t0, 60.0)


def test_criterion_6_operation_identities():
    t0 = time.time()
    for name in CORPUS:
        x = corpus.complex_by_name(name)
        # delta delta = 0 in every degree
        for q in range(x.dim - 1):
            a = simplicial.coboundary_matrix(x, q)
            b = simplicial.coboundary_matrix(x, q + 1)
            assert b.mul(a).is_zero()
        for q in range(x.dim + 1):
            _, basis = cohomology(x, q, 2)
            for cls in basis:
                assert is_cohomologous(operations.sq(0, cls).cochain, cls.cochain)
                assert is_cohomologous(
                    operations.sq(q, cls).cochain,
                    operations.cup(cls.cochain, cls.cochain),
                )
                s1c = operations.sq(1, cls)
                assert is_cohomologous(
                    s1c.cochain, operations.sq1_via_bockstein(cls).cochain
                )
                ss = operations.sq(1, s1c)
                assert is_cohomologous(ss.cochain, Cochain.zero(x, ss.degree, 2))
                if q <= 3:
                    lhs = operations.sq(2, operations.sq(2, cls))
                    rhs = operations.sq(3, operations.sq(1, cls))
                    assert is_cohomologous(lhs.cochain, rhs.cochain)
    _report(6, "delta^2 = 0, Sq0 = id, Sq^p = square, Sq1 = rho beta, Sq1Sq1 = 0, Adem", t0, 120.0)


def test_criterion_7_classification_counts():
    t0 = time.time()
    z, z2, z8 = G(1, ()), G(0, (2,)), G(0, (8,))
    assert len(stable2type.enumerate_symmetric_structures(z8, z2)) == 2
    assert len(stable2type.enumerate_symmetric_structures(z2, z2)) == 2
    assert len(stable2type.enumerate_symmetric_structures(z, z2)) == 2
    cat = stable2type.catalog()
    for name in ("sphere", "ku", "ko"):
        assert not stable2type.is_trivial(cat[name])
    # the unit Z -> pi0 sends 1 to the one generator, so it carries the
    # sphere's q to theirs exactly when the q columns agree
    for name in ("ku", "ko"):
        assert cat[name].q == cat["sphere"].q
    _report(7, "two structures each for (Z/8,Z/2), (Z/2,Z/2), (Z,Z/2); units compatible", t0, 1.0)


def test_criterion_8_superline_signs():
    t0 = time.time()
    pt = corpus.complex_by_name("point")
    even = superline.SuperLine.trivial("real", pt)
    odd = superline.SuperLine("real", pt, (1,), even.line_class)
    assert superline.symmetry_sign(odd, odd, 0) == -1
    assert superline.symmetry_sign(even, even, 0) == 1
    swap = dsv.swap_map(dsv.DSV.odd_line(dsv.QQ), dsv.DSV.odd_line(dsv.QQ))
    assert swap.f0[0][0] == dsv.QQ.of(-1)
    assert superline.symmetry_sign(odd, odd, 0) == int(swap.f0[0][0])
    _report(8, "odd/odd symmetry sign -1 in both models", t0, 1.0)


def test_criterion_9_euler_characteristic():
    t0 = time.time()
    rng = random.Random(9)
    f = dsv.QQ
    for _ in range(100):
        e = _random_bounded_complex(f, rng)
        assert dsv.euler_char(dsv.epsilon(e)) == e.euler_characteristic()
        v, w = _random_dsv(f, rng), _random_dsv(f, rng)
        assert dsv.euler_char(dsv.tensor(v, w)) == dsv.euler_char(v) * dsv.euler_char(w)
        assert dsv.euler_char(dsv.direct_sum(v, w)) == dsv.euler_char(v) + dsv.euler_char(w)
        h0, h1 = dsv.homology(v)
        assert dsv.euler_char(v) == h0 - h1
    _report(9, "chi multiplicative/additive and chi(epsilon(E)) = alternating sum", t0, 30.0)
