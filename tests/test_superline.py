import pytest

from supercoh import stable2type, superline
from supercoh.exact_linalg import AbelianGroupPresentation as G
from supercoh.simplicial import Cochain, CohomologyClass, cohomology, is_cohomologous
from supercoh.superline import SuperLine, classification_data, iso_class_group, symmetry_sign, tensor


def real_line(base, parity, values=None):
    c = (
        CohomologyClass(Cochain.zero(base, 1, 2))
        if values is None
        else CohomologyClass(Cochain(base, 1, 2, tuple(values)))
    )
    return SuperLine("real", base, parity, c)


class TestTensor:
    def test_trivial_is_unit(self, rp2):
        t = SuperLine.trivial("real", rp2)
        _, basis = cohomology(rp2, 1, 2)
        l = real_line(rp2, (1,), basis[0].cochain.values)
        out = tensor(t, l)
        assert superline.is_isomorphic(out, l)

    def test_odd_tensor_odd_is_even(self, point):
        odd = SuperLine.trivial("real", point)
        odd = SuperLine("real", point, (1,), odd.line_class)
        sq = tensor(odd, odd)
        assert sq.parity == (0,)

    def test_rp2_twisted_square(self, rp2):
        _, basis = cohomology(rp2, 1, 2)
        w = basis[0].cochain
        l = real_line(rp2, (1,), w.values)
        sq = tensor(l, l)
        assert sq.parity == (0,)
        # 2w reduces to the zero mod-2 cochain exactly
        assert is_cohomologous(sq.line_class.cochain, Cochain.zero(rp2, 1, 2))

    def test_flavor_mismatch(self, rp2):
        a = SuperLine.trivial("real", rp2)
        b = SuperLine.trivial("complex", rp2)
        with pytest.raises(ValueError):
            tensor(a, b)

    def test_commutative_associative_on_iso_classes(self, rp2):
        _, basis = cohomology(rp2, 1, 2)
        w = basis[0].cochain
        lines = [
            SuperLine.trivial("real", rp2),
            real_line(rp2, (1,)),
            real_line(rp2, (0,), w.values),
            real_line(rp2, (1,), w.values),
        ]
        for l in lines:
            for m in lines:
                assert superline.is_isomorphic(tensor(l, m), tensor(m, l))
                for n in lines:
                    assert superline.is_isomorphic(
                        tensor(tensor(l, m), n), tensor(l, tensor(m, n))
                    )


class TestSymmetrySign:
    def test_signs(self, point):
        even = SuperLine.trivial("real", point)
        odd = SuperLine("real", point, (1,), even.line_class)
        assert symmetry_sign(even, even, 0) == 1
        assert symmetry_sign(odd, odd, 0) == -1
        assert symmetry_sign(odd, even, 0) == 1
        assert symmetry_sign(even, odd, 0) == 1

    def test_symmetric_and_bimultiplicative(self, point):
        even = SuperLine.trivial("real", point)
        odd = SuperLine("real", point, (1,), even.line_class)
        for l in (even, odd):
            for m in (even, odd):
                assert symmetry_sign(l, m, 0) == symmetry_sign(m, l, 0)
        # sign(l1 (x) l2, m) = sign(l1, m) * sign(l2, m)
        for l1 in (even, odd):
            for l2 in (even, odd):
                for m in (even, odd):
                    assert symmetry_sign(tensor(l1, l2), m, 0) == symmetry_sign(
                        l1, m, 0
                    ) * symmetry_sign(l2, m, 0)

    def test_unknown_component(self, point):
        even = SuperLine.trivial("real", point)
        with pytest.raises(IndexError):
            symmetry_sign(even, even, 3)


class TestIsoClassGroup:
    def test_point_real(self, point):
        assert iso_class_group(point, "real") == G(0, (2,))

    def test_point_complex(self, point):
        assert iso_class_group(point, "complex") == G(0, (2,))

    def test_circle_real(self, s1):
        assert iso_class_group(s1, "real") == G(0, (2, 2))

    def test_rp2_real(self, rp2):
        assert iso_class_group(rp2, "real") == G(0, (2, 2))

    def test_s2_complex(self, s2):
        # H^0(S2;Z/2) x H^2(S2;Z) = Z/2 x Z
        assert iso_class_group(s2, "complex") == G(1, (2,))


class TestClassificationData:
    def test_both_flavors(self):
        for flavor in ("real", "complex"):
            data = classification_data(flavor)
            assert data.pi0 == G(0, (2,))
            assert data.pi1 == G(0, (2,))
            assert not stable2type.is_trivial(data)

    def test_q_at_zero_is_identity(self):
        # the even object maps to the trivial automorphism
        data = classification_data("real")
        # q columns are the images of the nonzero element; 0 maps to 0 by linearity
        assert data.q == ((1,),)

    def test_no_product_decomposition(self):
        # q != 0 distinguishes the superline 2-type from every product 2-type
        data = classification_data("real")
        zero = stable2type.Stable2TypeData(data.pi0, data.pi1, ((0,),))
        assert not stable2type.equivalent(data, zero)
        # products of trivial-symmetry data stay trivial, hence inequivalent
        G2 = data.pi0
        half = stable2type.Stable2TypeData(G2, stable2type.AbelianGroupPresentation.trivial(), ((),))
        other = stable2type.Stable2TypeData(
            stable2type.AbelianGroupPresentation.trivial(), data.pi1, ()
        )
        prod = stable2type.product(half, other)
        assert stable2type.is_trivial(prod)
        assert not stable2type.equivalent(data, prod)


def test_iso_class_group_matches_brauer_sectors(rp2):
    # the (a, b) components of the KO layout are exactly the real superline data
    from supercoh import brauer

    g = iso_class_group(rp2, "real")
    h0, _ = cohomology(rp2, 0, 2)
    h1, _ = cohomology(rp2, 1, 2)
    from supercoh.exact_linalg import direct_sum

    assert g == direct_sum(h0, h1)


def test_group_builds_no_representative(monkeypatch):
    """iso_class_group reads the cohomology records only: no basis class is
    extended to X, and the groups are those of cohomology()."""
    from supercoh import corpus, simplicial
    from supercoh.exact_linalg import direct_sum

    klein = corpus.complex_by_name("klein")
    fresh = simplicial.SimplicialComplex(klein.vertex_count, klein.maximal_simplices)
    extend = simplicial.MorseComplex.extend
    calls = []

    def counted(*args):
        calls.append(args)
        return extend(*args)

    monkeypatch.setattr(simplicial.MorseComplex, "extend", counted)
    groups = {flavor: iso_class_group(fresh, flavor) for flavor in ("real", "complex")}
    assert calls == []
    assert groups == {"real": G(0, (2, 2, 2)), "complex": G(0, (2, 2))}
    h0 = cohomology(fresh, 0, 2)[0]
    assert groups["real"] == direct_sum(h0, cohomology(fresh, 1, 2)[0])
    assert groups["complex"] == direct_sum(h0, cohomology(fresh, 2)[0])


def test_per_component_parity():
    from supercoh.simplicial import SimplicialComplex

    two = SimplicialComplex(4, [(0, 1), (2, 3)])
    l = SuperLine.trivial("real", two)
    mixed = SuperLine("real", two, (1, 0), l.line_class)
    assert symmetry_sign(mixed, mixed, 0) == -1
    assert symmetry_sign(mixed, mixed, 1) == 1
    assert iso_class_group(two, "real") == G(0, (2, 2))
    with pytest.raises(ValueError):
        SuperLine("real", two, (1,), l.line_class)  # one parity per component
