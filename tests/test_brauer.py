import hashlib
import json
import random

import pytest
from oracles import element_order_loop, group_from_sectors_loop

from supercoh import brauer, corpus, operations, simplicial
from supercoh.brauer import (
    BrauerElement,
    abstract_group,
    add,
    commutativity_certificate,
    element,
    element_order,
    equals,
    identity_element,
    negate,
    twist_subgroup,
)
from supercoh.exact_linalg import AbelianGroupPresentation as G
from supercoh.simplicial import Cochain, SimplicialComplex, cohomology, is_cohomologous

CORPUS = ("point", "s1", "s2", "t2", "klein", "rp2", "s1xs1")
ORDER_NAMES = corpus.CORPUS_NAMES + ("rp2xs1", "kleinxs1")
GROUP_NAMES = ORDER_NAMES + ("t2xs1", "s2xs1")


def _complex(name):
    if name.endswith("xs1"):
        return corpus.product_with_projections(name[: -len("xs1")], "s1")[0]
    return corpus.complex_by_name(name)


def h1_generator(x):
    _, basis = cohomology(x, 1, 2)
    return basis[0].cochain


class TestElementValidation:
    def test_layouts(self, rp2):
        e = identity_element(rp2, "ku")
        assert (e.a.modulus, e.b.modulus, e.c.modulus) == (2, 2, 0)
        assert (e.a.degree, e.b.degree, e.c.degree) == (0, 1, 3)
        e = identity_element(rp2, "ko")
        assert (e.a.modulus, e.b.modulus, e.c.modulus) == (8, 2, 2)
        assert (e.a.degree, e.b.degree, e.c.degree) == (0, 1, 2)

    def test_unknown_variant(self, rp2):
        with pytest.raises(ValueError):
            identity_element(rp2, "kq")

    def test_noncocycle_rejected(self, rp2):
        vals = [0] * rp2.simplex_count(1)
        vals[0] = 1
        with pytest.raises(ValueError):
            element(rp2, "ko", b=vals)

    def test_context_mismatch(self, rp2, t2):
        with pytest.raises(ValueError):
            add(identity_element(rp2, "ko"), identity_element(t2, "ko"))
        with pytest.raises(ValueError):
            add(identity_element(rp2, "ko"), identity_element(rp2, "ku"))


class TestAdd:
    def test_identity_both_variants(self, rp2):
        rng = random.Random(0)
        for variant in ("ku", "ko"):
            x = brauer.random_element(rp2, variant, rng)
            assert equals(add(x, identity_element(rp2, variant)), x)

    def test_ko_rp2_order_four_element(self, rp2):
        w = h1_generator(rp2)
        x = element(rp2, "ko", b=w.values)
        x2 = add(x, x)
        # square lands in the c sector and equals w cup w, which is nonzero
        assert x2.a.is_zero() and x2.b.is_zero()
        assert is_cohomologous(x2.c, operations.cup(w, w))
        assert not is_cohomologous(x2.c, Cochain.zero(rp2, 2, 2))
        assert element_order(x) == 4

    def test_ku_extension_on_product(self):
        prod, p1, p2 = corpus.product_with_projections("rp2", "rp2")
        rp2 = corpus.complex_by_name("rp2")
        w = h1_generator(rp2)
        b1, b2 = p1.pullback(w), p2.pullback(w)
        x = element(prod, "ku", b=b1.values)
        y = element(prod, "ku", b=b2.values)
        z = add(x, y)
        s = operations.reduce_mod(z.c, 2)
        assert not is_cohomologous(s, Cochain.zero(prod, 3, 2))
        # Cartan: Sq1(b1 b2) = b1^2 b2 + b1 b2^2, the mixed classes of the product
        cartan = operations.cup(operations.cup(b1, b1), b2) + operations.cup(
            b1, operations.cup(b2, b2)
        )
        assert is_cohomologous(s, cartan)

    def test_twist_term_scaling(self, t2):
        # the c slot of x+y deviates from c+c' exactly when beta(b cup b') is
        # a nonzero class: never on the torus, always for the product pair
        rng = random.Random(9)
        for _ in range(5):
            x = brauer.random_element(t2, "ku", rng)
            y = brauer.random_element(t2, "ku", rng)
            s = add(x, y)
            assert is_cohomologous(s.c, x.c + y.c)
        prod, p1, p2 = corpus.product_with_projections("rp2", "rp2")
        rp2 = corpus.complex_by_name("rp2")
        w = h1_generator(rp2)
        x = element(prod, "ku", b=p1.pullback(w).values)
        y = element(prod, "ku", b=p2.pullback(w).values)
        s = add(x, y)
        assert not is_cohomologous(s.c, x.c + y.c)

    def test_forgetting_twist_is_homomorphism(self, klein):
        rng = random.Random(1)
        for variant in ("ku", "ko"):
            x = brauer.random_element(klein, variant, rng)
            y = brauer.random_element(klein, variant, rng)
            s = add(x, y)
            assert s.a.values == (x.a + y.a).values
            assert s.b.values == (x.b + y.b).values


class TestNegate:
    def test_identity(self, rp2):
        for variant in ("ku", "ko"):
            e = identity_element(rp2, variant)
            assert equals(negate(e), e)

    def test_ko_rp2(self, rp2):
        w = h1_generator(rp2)
        x = element(rp2, "ko", b=w.values)
        n = negate(x)
        assert is_cohomologous(n.c, operations.cup(w, w))
        assert equals(add(x, n), identity_element(rp2, "ko"))

    def test_ku_point_involution(self, point):
        x = element(point, "ku", a=[1])
        assert equals(negate(x), x)

    def test_randomized_inverse(self):
        rng = random.Random(2)
        for name in ("t2", "rp2", "klein"):
            x = corpus.complex_by_name(name)
            for variant in ("ku", "ko"):
                for _ in range(5):
                    el = brauer.random_element(x, variant, rng)
                    assert equals(add(el, negate(el)), identity_element(x, variant))


class TestEquals:
    def test_self(self, rp2):
        rng = random.Random(3)
        x = brauer.random_element(rp2, "ko", rng)
        assert equals(x, x)

    def test_coboundary_shift(self, rp2):
        rng = random.Random(4)
        x = brauer.random_element(rp2, "ko", rng)
        shifted = BrauerElement(
            "ko",
            x.a,
            x.b + brauer._random_coboundary(rp2, 1, 2, rng),
            x.c + brauer._random_coboundary(rp2, 2, 2, rng),
        )
        assert equals(x, shifted)

    def test_generator_vs_identity(self, rp2):
        w = h1_generator(rp2)
        x = element(rp2, "ko", b=w.values)
        assert not equals(x, identity_element(rp2, "ko"))


class TestElementOrder:
    def test_identity_is_one(self, rp2):
        for variant in ("ku", "ko"):
            assert element_order(identity_element(rp2, variant)) == 1

    def test_ko_point_full_order(self, point):
        assert element_order(element(point, "ko", a=[1])) == 8

    def test_free_part_is_infinite(self):
        # the ku c slot is H^3(X; Z), which is Z on S2 x S1
        prod, _, _ = corpus.product_with_projections("s2", "s1")
        _, basis = cohomology(prod, 3, 0)
        assert basis
        x = element(prod, "ku", c=basis[0].cochain.values)
        assert element_order(x) == "infinite"
        # with [b] != 0 the order is read off x + x, whose free part is 2[c]
        b = cohomology(prod, 1, 2)[1][0].cochain
        y = element(prod, "ku", b=b.values, c=basis[0].cochain.values)
        assert element_order(y) == "infinite"
        assert element_order(element(prod, "ku", b=b.values)) == 2

    def test_random_ku_elements_reach_the_free_class(self):
        # the ku group of S2 x S1 is Z + Z/2 + Z/2; its Z is the c slot, so
        # random elements with a random c class are often of infinite order
        prod, _, _ = corpus.product_with_projections("s2", "s1")
        rng = random.Random("free ku")
        orders = [element_order(brauer.random_element(prod, "ku", rng)) for _ in range(40)]
        assert "infinite" in orders

    @pytest.mark.parametrize("name", ORDER_NAMES)
    def test_orders_match_the_loop(self, name):
        x = _complex(name)
        rng = random.Random(f"order {name}")
        for variant in ("ku", "ko"):
            for _ in range(15):
                el = brauer.random_element(x, variant, rng)
                assert element_order(el) == element_order_loop(el), variant


class TestAbstractGroup:
    @pytest.mark.parametrize("name", GROUP_NAMES)
    def test_groups_match_the_loop(self, name):
        x = _complex(name)
        for variant in ("ku", "ko"):
            assert abstract_group(x, variant) == group_from_sectors_loop(x, variant, True), variant
            assert twist_subgroup(x, variant) == group_from_sectors_loop(x, variant, False), variant

    def test_point(self, point):
        assert abstract_group(point, "ku") == G(0, (2,))
        assert abstract_group(point, "ko") == G(0, (8,))

    def test_rp2_ko(self, rp2):
        assert abstract_group(rp2, "ko") == G(0, (4, 8))

    def test_s1_ku(self, s1):
        assert abstract_group(s1, "ku") == G(0, (2, 2))

    def test_order_matches_sector_product(self):
        # |G| = |H^0| * |H^1| * |H^c-torsion| for finite cases
        for name in ("point", "s1", "t2", "klein", "rp2", "rp2xrp2"):
            x = corpus.complex_by_name(name)
            for variant, mods in (("ku", (2, 2, 0)), ("ko", (8, 2, 2))):
                degs = (0, 1, 3) if variant == "ku" else (0, 1, 2)
                expected = 1
                for d, m in zip(degs, mods):
                    pres, _ = cohomology(x, d, m)
                    if m == 0:
                        o = 1
                        for f in pres.invariant_factors:
                            o *= f
                    else:
                        o = pres.order()
                    expected *= o
                got = abstract_group(x, variant).order()
                assert got == expected, (name, variant)

    def test_torus_untwisted(self, t2):
        # every degree-1 class lifts integrally, so the ku group is the plain product
        assert abstract_group(t2, "ku") == G(0, (2, 2, 2))

    def test_disconnected_base(self):
        from supercoh.simplicial import SimplicialComplex

        two_points = SimplicialComplex(2, [(0,), (1,)])
        assert abstract_group(two_points, "ku") == G(0, (2, 2))
        assert abstract_group(two_points, "ko") == G(0, (8, 8))
        circle_and_point = SimplicialComplex(4, [(0, 1), (1, 2), (0, 2), (3,)])
        assert abstract_group(circle_and_point, "ku") == G(0, (2, 2, 2))
        for x in (two_points, circle_and_point):
            for variant in ("ku", "ko"):
                assert abstract_group(x, variant) == group_from_sectors_loop(x, variant, True)
                assert twist_subgroup(x, variant) == group_from_sectors_loop(x, variant, False)

    def test_product_groups(self, rp2xrp2):
        # ko: 2b1 = x^2 and 2b2 = y^2 force two Z/4 factors over H^2 = (Z/2)^3
        assert abstract_group(rp2xrp2, "ko") == G(0, (2, 4, 4, 8))
        assert twist_subgroup(rp2xrp2, "ko") == G(0, (2, 4, 4))
        # ku: beta(b^2) = 0 for both generators, so the group splits abstractly
        # even though the addition law carries the nonzero beta(b1 b2) twist
        assert abstract_group(rp2xrp2, "ku") == G(0, (2, 2, 2, 2))
        assert twist_subgroup(rp2xrp2, "ku") == G(0, (2, 2, 2))


# the basis of H^1(klein; Z/2) as cohomology() has extended it since
# cohomology moved onto the Morse complex
KLEIN_H1_MOD_2 = (
    (0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 1, 1),
)


def test_group_verbs_build_no_cochain(monkeypatch):
    """abstract_group and twist_subgroup read the Morse records only: no
    representative is extended to X and no cup or Bockstein runs.  The
    basis extended afterwards is the one cohomology() always gave."""
    klein = corpus.complex_by_name("klein")
    fresh = SimplicialComplex(klein.vertex_count, klein.maximal_simplices)
    calls = {"extend": 0, "cup": 0, "bockstein": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(simplicial.MorseComplex, "extend", counted("extend", simplicial.MorseComplex.extend))
    monkeypatch.setattr(operations, "cup", counted("cup", operations.cup))
    monkeypatch.setattr(operations, "bockstein", counted("bockstein", operations.bockstein))
    rp2xs1 = corpus.product(corpus.complex_by_name("rp2"), corpus.complex_by_name("s1"))[0]
    groups = {
        (x, variant, include_a): (abstract_group if include_a else twist_subgroup)(x, variant)
        for x in (fresh, rp2xs1)
        for variant in ("ku", "ko")
        for include_a in (True, False)
    }
    assert calls == {"extend": 0, "cup": 0, "bockstein": 0}
    _, basis = cohomology(fresh, 1, 2)
    assert calls["extend"] == len(basis) == 2
    assert all(isinstance(cls, simplicial.CohomologyClass) and cls.cochain.is_cocycle() for cls in basis)
    assert tuple(cls.cochain.values for cls in basis) == KLEIN_H1_MOD_2
    for (x, variant, include_a), group in groups.items():
        assert group == group_from_sectors_loop(x, variant, include_a), (variant, include_a)


class TestTwistSubgroup:
    def test_point_trivial(self, point):
        assert twist_subgroup(point, "ku").is_trivial()
        assert twist_subgroup(point, "ko").is_trivial()

    def test_rp2_ko(self, rp2):
        assert twist_subgroup(rp2, "ko") == G(0, (4,))

    def test_t2_ku(self, t2):
        assert twist_subgroup(t2, "ku") == G(0, (2, 2))

    def test_klein_ko(self, klein):
        # H^1 = (Z/2)^2, H^2 = Z/2 with one generator squaring nontrivially
        assert twist_subgroup(klein, "ko") == G(0, (2, 4))


class TestCommutativityCertificate:
    def test_equal_elements_zero_witness(self, rp2):
        rng = random.Random(5)
        x = brauer.random_element(rp2, "ko", rng)
        w = commutativity_certificate(x, x)
        assert w.is_zero()

    def test_product_pair_nonzero_witness(self):
        prod, p1, p2 = corpus.product_with_projections("rp2", "rp2")
        rp2 = corpus.complex_by_name("rp2")
        wgen = h1_generator(rp2)
        x = element(prod, "ku", b=p1.pullback(wgen).values)
        y = element(prod, "ku", b=p2.pullback(wgen).values)
        w = commutativity_certificate(x, y)
        assert not w.is_zero()

    def test_verify_runs_a_ku_witness_with_a_nonzero_commutator(self, monkeypatch):
        """verify's group-axiom check reaches the lift branch of the ku
        witness: some ku pair it certifies has sums whose c slots differ."""
        from supercoh import verify

        certify, differing = brauer.commutativity_certificate, []

        def recorded(x, y):
            if x.variant == "ku" and not (add(x, y).c - add(y, x).c).is_zero():
                differing.append((x, y))
            return certify(x, y)

        monkeypatch.setattr(brauer, "commutativity_certificate", recorded)
        assert verify.suite_brauer()[0] == ("group-axioms-randomized", True, "")
        assert differing

    def test_s1_pairs_trivial_classes(self, s1):
        rng = random.Random(6)
        for variant in ("ku", "ko"):
            x = brauer.random_element(s1, variant, rng)
            y = brauer.random_element(s1, variant, rng)
            commutativity_certificate(x, y)  # exact verification inside

    def test_randomized_witnesses(self):
        rng = random.Random(7)
        for name in ("t2", "klein", "rp2"):
            x = corpus.complex_by_name(name)
            for variant in ("ku", "ko"):
                for _ in range(5):
                    a = brauer.random_element(x, variant, rng)
                    b = brauer.random_element(x, variant, rng)
                    commutativity_certificate(a, b)


class TestGroupAxiomsRandomized:
    @pytest.mark.parametrize("name", CORPUS)
    def test_axioms(self, name):
        x = corpus.complex_by_name(name)
        rng = random.Random(hash(name) % 2**32)
        for variant in ("ku", "ko"):
            ident = identity_element(x, variant)
            for _ in range(10):
                a = brauer.random_element(x, variant, rng)
                b = brauer.random_element(x, variant, rng)
                c = brauer.random_element(x, variant, rng)
                assert equals(add(add(a, b), c), add(a, add(b, c)))
                assert equals(add(a, ident), a)
                assert equals(add(a, negate(a)), ident)
                assert equals(add(a, b), add(b, a))


def test_json_roundtrip(rp2):
    rng = random.Random(8)
    x = brauer.random_element(rp2, "ko", rng)
    data = x.to_json_dict()
    again = BrauerElement.from_json_dict(data, rp2)
    assert equals(x, again)


@pytest.mark.parametrize("variant", ["ku", "ko"])
@pytest.mark.parametrize("name", ["rp2", "klein", "rp2xrp2"])
def test_json_roundtrip_on_the_nose(name, variant):
    # from_json_dict goes through element, which rebuilds every slot
    x = corpus.complex_by_name(name)
    rng = random.Random(f"{name} {variant}")
    for _ in range(5):
        e = brauer.random_element(x, variant, rng)
        assert BrauerElement.from_json_dict(e.to_json_dict(), x) == e


# SHA-256 of the Brauer arithmetic of test_arithmetic_is_pinned, taken before
# the mod-2 kernels ran on packed bytes.  A change that alters a result of
# add, negate, equals, element_order, the certificates or the random
# elements on purpose updates it and says so.
ARITHMETIC_SHA256 = "3aa82a3155e1ce9a789f6700a04daf15b6ae0ca59e1059d4467c8e5389daff3f"


def test_arithmetic_is_pinned():
    """Seeded random elements of ku and ko on rp2, klein and rp2xrp2, with
    their sums, negatives, equality verdicts, orders, commutativity
    certificates and the rng state after them, are the ones the digest was
    taken of."""
    digest = hashlib.sha256()
    for name in ("rp2", "klein", "rp2xrp2"):
        x = corpus.complex_by_name(name)
        for variant in ("ku", "ko"):
            rng = random.Random(f"pinned {name} {variant}")
            xs = [brauer.random_element(x, variant, rng) for _ in range(3)]
            sums = [add(a, b) for a in xs for b in xs]
            negatives = [negate(a) for a in xs]
            record = {
                "elements": [e.to_json_dict() for e in xs],
                "add": [e.to_json_dict() for e in sums],
                "negate": [e.to_json_dict() for e in negatives],
                "equals": [equals(a, b) for a in xs + sums for b in xs + negatives],
                "order": [str(element_order(e)) for e in xs + sums],
                "certificate": [list(commutativity_certificate(a, b).values) for a in xs for b in xs],
                "rng": rng.getstate(),
            }
            digest.update(json.dumps([name, variant, record]).encode())
    assert digest.hexdigest() == ARITHMETIC_SHA256
