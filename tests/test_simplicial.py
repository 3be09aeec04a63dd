import pickle
import random
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    class_coordinates_solve,
    coboundary_loop,
    cohomology_integral_dense,
    cohomology_unreduced,
    components,
    cup_value_on,
    is_cohomologous_solve,
)

from supercoh import brauer, corpus
from supercoh.exact_linalg import AbelianGroupPresentation as G
from supercoh.exact_linalg import SparseMatrix, normalize_factors
from supercoh.operations import bockstein, cup, cup_i
from supercoh.simplicial import (
    Cochain,
    CohomologyClass,
    SimplicialComplex,
    SimplicialMap,
    _coboundary,
    _cohomology_record,
    class_coordinates,
    coboundary_matrix,
    cohomology,
    generator_orders,
    is_cohomologous,
)

MODULI = (0, 2, 3, 4, 8)


def test_closure_and_indexing(rp2):
    assert rp2.simplex_count(0) == 6
    assert rp2.simplex_count(1) == 15
    assert rp2.simplex_count(2) == 10
    assert rp2.index_of((0, 1)) >= 0
    assert rp2.contains((0, 1, 3))
    assert not rp2.contains((0, 1, 2))
    with pytest.raises(KeyError):
        rp2.index_of(())


def test_bad_simplices_rejected():
    with pytest.raises(ValueError):
        SimplicialComplex(3, [(1, 0)])
    with pytest.raises(ValueError):
        SimplicialComplex(2, [(0, 5)])
    with pytest.raises(ValueError):
        SimplicialComplex(8, [tuple(range(8))])  # above the dimension cap


@pytest.mark.parametrize("vertex", [1.5, 1.0, True], ids=["float", "integral_float", "bool"])
def test_non_int_vertex_rejected(vertex):
    with pytest.raises(ValueError, match="not an int"):
        SimplicialComplex(3, [(0, vertex)])
    with pytest.raises(ValueError, match="not an int"):
        SimplicialComplex.from_json_dict({"vertex_count": 3, "maximal_simplices": [[0, vertex]]})


def test_coboundary_point(point):
    m = coboundary_matrix(point, 0)
    assert (m.rows, m.cols) == (0, 1)


def test_coboundary_circle_rank(s1):
    from supercoh.exact_linalg import smith_decomposition

    m = coboundary_matrix(s1, 0)
    assert (m.rows, m.cols) == (3, 3)
    assert len(smith_decomposition(m).pivots) == 2


def test_coboundary_out_of_range(s1):
    with pytest.raises(ValueError):
        coboundary_matrix(s1, 5)


def test_delta_squared_zero(all_surfaces):
    for x in all_surfaces.values():
        for q in range(x.dim - 1):
            a = coboundary_matrix(x, q)
            b = coboundary_matrix(x, q + 1)
            assert b.mul(a).is_zero()


KNOWN_COHOMOLOGY = {
    # (complex, degree, modulus) -> presentation
    ("point", 0, 0): G(1, ()),
    ("s1", 1, 0): G(1, ()),
    ("s1", 1, 2): G(0, (2,)),
    ("s2", 2, 0): G(1, ()),
    ("s2", 1, 0): G.trivial(),
    ("t2", 1, 0): G(2, ()),
    ("t2", 2, 0): G(1, ()),
    ("t2", 1, 2): G(0, (2, 2)),
    ("rp2", 1, 0): G.trivial(),
    ("rp2", 2, 0): G(0, (2,)),
    ("rp2", 1, 2): G(0, (2,)),
    ("rp2", 2, 2): G(0, (2,)),
    ("rp2", 0, 8): G(0, (8,)),
    ("klein", 1, 0): G(1, ()),
    ("klein", 2, 0): G(0, (2,)),
    ("klein", 1, 2): G(0, (2, 2)),
    ("klein", 2, 2): G(0, (2,)),
    ("s1xs1", 1, 2): G(0, (2, 2)),
    ("s1xs1", 2, 0): G(1, ()),
    # universal coefficients: H^1(RP2;Z/4) = Tor(Z/2, Z/4) = Z/2 and
    # H^2(RP2;Z/4) = Z/2 (x) Z/4 = Z/2
    ("rp2", 1, 4): G(0, (2,)),
    ("rp2", 2, 4): G(0, (2,)),
}


@pytest.mark.parametrize("key", sorted(KNOWN_COHOMOLOGY, key=str))
def test_known_cohomology(key):
    name, q, n = key
    x = corpus.complex_by_name(name)
    pres, basis = cohomology(x, q, n)
    assert pres == KNOWN_COHOMOLOGY[key]
    # representatives are cocycles matching the presentation size
    total_gens = pres.free_rank + len(pres.invariant_factors)
    assert len(basis) == total_gens
    for cls in basis:
        assert cls.cochain.is_cocycle()


def test_degree_beyond_dimension(rp2):
    pres, basis = cohomology(rp2, 5, 0)
    assert pres.is_trivial() and basis == []


def test_sparse_path_agrees_with_dense(all_surfaces):
    for x in all_surfaces.values():
        for q in range(1, x.dim + 1):
            for n in (0, 2, 3, 4, 5, 6, 8):
                dense = cohomology_integral_dense(x, q, n)
                pres, basis = cohomology(x, q, n)
                orders = generator_orders(x, q, n)
                assert dense[0] == pres
                assert dense[2] == orders
                zero = Cochain.zero(x, q, n)
                for cls, order in zip(basis, orders):
                    assert cls.cochain.is_cocycle()
                    assert not is_cohomologous(cls.cochain, zero)
                    if order:
                        assert is_cohomologous(cls.cochain.scale(order), zero)


def moore3():
    """Mapping cone of the 3-fold circle cover: H^* = (Z, 0, Z/3)."""
    tris = []
    for i in range(9):
        tris.append(tuple(sorted((i, (i + 1) % 9, 12))))
    for i in range(9):
        j = (i + 1) % 9
        fi, fj = 9 + (i % 3), 9 + (j % 3)
        tris.append(tuple(sorted((i, j, fj))))
        tris.append(tuple(sorted((i, fi, fj))))
    return SimplicialComplex(13, tris)


def test_moore_space_torsion():
    m = moore3()
    assert cohomology(m, 1, 0)[0].is_trivial()
    assert cohomology(m, 2, 0)[0] == G(0, (3,))
    assert cohomology(m, 1, 3)[0] == G(0, (3,))


def _cohomology_with_orders(x, q, n):
    return (*cohomology(x, q, n), generator_orders(x, q, n))


def test_coprime_torsion_merges_to_invariant_factors(rp2):
    # RP2 disjoint union Moore(Z/3): H^2 = Z/2 + Z/3, i.e. invariant factor 6;
    # exercises the CRT generator merge in the integral path and its dense oracle
    shift = rp2.vertex_count
    mixed = SimplicialComplex(
        shift + 13,
        list(rp2.maximal_simplices)
        + [tuple(v + shift for v in s) for s in moore3().maximal_simplices],
    )
    for path in (cohomology_integral_dense, _cohomology_with_orders):
        pres, basis, orders = path(mixed, 2, 0)[:3]
        assert pres == G(0, (6,)), path.__name__
        assert orders == [6]
        gen = basis[0].cochain
        zero = Cochain.zero(mixed, 2, 0)
        assert not is_cohomologous(gen, zero)
        for k in (2, 3):
            assert not is_cohomologous(gen.scale(k), zero)
        assert is_cohomologous(gen.scale(6), zero)


def _universal_coefficients(x, q, n):
    """H^q(X;Z) (x) Z/n + Tor(H^{q+1}(X;Z), Z/n), from the integral groups."""
    hq = cohomology(x, q, 0)[0]
    torsion_above = cohomology(x, q + 1, 0)[0].invariant_factors
    factors = [n] * hq.free_rank + [gcd(d, n) for d in hq.invariant_factors + torsion_above]
    return G(0, normalize_factors(factors))


def _rp2_with_extras(rng):
    """The 6-vertex rp2 with its vertices relabelled among 6 to 9 vertices,
    plus up to 4 random simplices on them, which may fill its cycles."""
    count = 6 + rng.randint(0, 3)
    label = rng.sample(range(count), 6)
    maximal = [tuple(sorted(label[v] for v in s)) for s in corpus.rp2_6().maximal_simplices]
    for _ in range(rng.randint(0, 4)):
        maximal.append(tuple(sorted(rng.sample(range(count), rng.randint(1, 4)))))
    return SimplicialComplex(count, maximal)


def test_universal_coefficients_with_torsion():
    """Universal coefficients, and the dense SNF oracle, on random complexes
    glued to rp2, whose H^2(; Z) has torsion unless the extras fill it."""
    rng = random.Random(7)
    with_torsion = 0
    for _ in range(40):
        x = _rp2_with_extras(rng)
        with_torsion += any(cohomology(x, q, 0)[0].invariant_factors for q in range(x.dim + 1))
        for q in range(x.dim + 1):
            for n in (2, 3, 4, 6):
                assert cohomology(x, q, n)[0] == _universal_coefficients(x, q, n), (x, q, n)
            for n in (0, 2, 3, 4, 6):
                pres, _, orders = cohomology_integral_dense(x, q, n)
                assert (pres, orders) == (cohomology(x, q, n)[0], generator_orders(x, q, n)), (x, q, n)
    # the premise: torsion is common, where random_complexes never has it
    assert with_torsion >= 10


def _product_with_s1(name):
    return corpus.product(corpus.complex_by_name(name), corpus.complex_by_name("s1"))[0]


@pytest.mark.parametrize("name", corpus.CORPUS_NAMES + ("rp2xs1", "kleinxs1"))
def test_universal_coefficients(name):
    x = _product_with_s1(name[: -len("xs1")]) if name.endswith("xs1") else corpus.complex_by_name(name)
    for n in (3, 4, 5, 6, 7, 8, 9):
        for q in range(x.dim + 1):
            assert cohomology(x, q, n)[0] == _universal_coefficients(x, q, n), (q, n)


@pytest.mark.parametrize("name", corpus.CORPUS_NAMES + ("rp2xs1", "kleinxs1"))
def test_mod_n_record_matches_the_stack(name):
    """The record of H^q(X; Z/n), built on the model, has the presentation
    and generator orders of the [delta_q | n I] stack of X itself, each basis
    class reads back as e_k, and the two bases name the same classes: the
    model basis in the stack's coordinates, summed over the stack basis,
    reads back as e_k."""
    x = _product_with_s1(name[: -len("xs1")]) if name.endswith("xs1") else corpus.complex_by_name(name)
    for n in (2, 3, 4, 5, 6, 8, 12, 30):
        for q in range(x.dim + 1):
            pres, basis = cohomology(x, q, n)
            orders = generator_orders(x, q, n)
            stack_pres, stack_basis, stack_orders, stack_coordinates = cohomology_unreduced(x, q, n)
            assert (pres, orders) == (stack_pres, stack_orders), (q, n)
            for k, cls in enumerate(basis):
                unit = [int(i == k) for i in range(len(basis))]
                assert class_coordinates(cls.cochain) == unit, (q, n, k)
                back = Cochain.zero(x, q, n)
                for c, stack_cls in zip(stack_coordinates(cls.cochain), stack_basis):
                    back = back + stack_cls.cochain.scale(c)
                assert class_coordinates(back) == unit, (q, n, k)


class CoprimeTorsion:
    """The based cochain complex Z^2 -> Z^2 in degrees 1 and 2 with
    delta_1 = diag(2, 3), zero elsewhere: its torsion has two primes."""

    def size(self, q: int) -> int:
        return 2 if q in (1, 2) else 0

    def delta(self, q: int) -> SparseMatrix:
        rows = [{0: 2}, {1: 3}] if q == 1 else [{} for _ in range(self.size(q + 1))]
        return SparseMatrix(self.size(q + 1), self.size(q), rows)


@pytest.mark.parametrize("q, n", [(2, 0), (1, 6), (2, 6), (1, 12), (2, 12)])
def test_record_on_coprime_torsion(q, n):
    """Z/2 + Z/3 comes out as Z/6, with a generator of order 6 that reads
    back as e_k and whose multiple d reads 0 iff 6 divides d."""
    pres, gens, orders, read = _cohomology_record(CoprimeTorsion(), q, n)
    assert pres == G(0, (6,))
    assert orders == [6]
    for k, gen in enumerate(gens):
        assert read(gen) == [int(t == k) for t in range(len(gens))]
        for d in range(1, 3 * orders[k] + 1):
            assert (read([d * x for x in gen]) == [0] * len(gens)) == (d % orders[k] == 0), d


def test_cohomology_adds_no_attributes_to_the_complex():
    # caches are declared in SimplicialComplex.__init__; attributes added
    # later slow down every attribute load on the complex
    x = _product_with_s1("rp2")
    keys = set(vars(x))
    for n in (0, 2, 3, 4):
        for q in range(x.dim + 1):
            _, basis = cohomology(x, q, n)
            for cls in basis:
                assert class_coordinates(cls.cochain) is not None
                assert not is_cohomologous(cls.cochain, Cochain.zero(x, q, n))
                cls.cochain.coboundary()
    coboundary_matrix(x, 1)
    b = cohomology(x, 1, 2)[1][0]
    cup(b.cochain, b.cochain)
    cup_i(1, b.cochain, b.cochain)
    bockstein(b)
    rng = random.Random(3)
    for variant in ("ku", "ko"):
        u, v = (brauer.random_element(x, variant, rng) for _ in range(2))
        assert brauer.equals(brauer.add(u, v), brauer.add(v, u))
    assert set(vars(x)) == keys


def test_huge_prime_modulus(rp2):
    p = 2**61 - 1
    start = time.perf_counter()
    assert cohomology(rp2, 0, p)[0] == G(0, (p,))
    assert cohomology(rp2, 1, p)[0].is_trivial()
    assert cohomology(rp2, 2, p)[0].is_trivial()
    assert time.perf_counter() - start < 10


def test_modulus_with_two_large_prime_factors(s1):
    # the second modulus is a product of two 61-bit primes
    for n in ((2**31 - 1) * (2**61 - 1), (2**61 - 1) * (2**61 - 31)):
        start = time.perf_counter()
        assert cohomology(s1, 1, n)[0] == G(0, (n,))
        assert time.perf_counter() - start < 2


def test_named_product_is_the_projected_product():
    prod, p1, p2 = corpus.product_with_projections("rp2", "rp2")
    assert corpus.complex_by_name("rp2xrp2") is prod
    assert p1.source is prod and p2.source is prod


def test_class_coordinates_roundtrip():
    import random

    rng = random.Random(6)
    for name, q, n in (("t2", 1, 2), ("klein", 1, 0), ("rp2", 2, 0)):
        x = corpus.complex_by_name(name)
        pres, basis = cohomology(x, q, n)
        orders = generator_orders(x, q, n)
        if not basis:
            continue
        for _ in range(10):
            coeffs = [
                rng.randrange(o) if o else rng.randint(-3, 3) for o in orders
            ]
            combo = Cochain.zero(x, q, n)
            for c, cls in zip(coeffs, basis):
                combo = combo + cls.cochain.scale(c)
            if q >= 1:
                noise = Cochain(
                    x, q - 1, n,
                    tuple(rng.randint(0, 4) for _ in range(x.simplex_count(q - 1))),
                )
                combo = combo + noise.coboundary()
            assert class_coordinates(combo) == coeffs


def test_product_integral_cohomology_kunneth(rp2xrp2):
    # Kunneth for RP2 x RP2 over Z: H^2 = (Z/2)^2, H^3 = Z/2 (Tor), H^4 = Z/2
    assert cohomology(rp2xrp2, 2, 0)[0] == G(0, (2, 2))
    assert cohomology(rp2xrp2, 3, 0)[0] == G(0, (2,))
    assert cohomology(rp2xrp2, 4, 0)[0] == G(0, (2,))
    assert cohomology(rp2xrp2, 1, 0)[0].is_trivial()


def test_cone_acyclic(rp2, t2):
    for base in (rp2, t2):
        c = corpus.cone(base)
        for q in range(1, c.dim + 1):
            for n in (0, 2, 3):
                pres, _ = cohomology(c, q, n)
                assert pres.is_trivial(), (q, n)


def test_euler_characteristic_vs_betti(all_surfaces):
    for x in all_surfaces.values():
        chi = x.euler_characteristic()
        betti = sum(
            (-1) ** q * cohomology(x, q, 0)[0].free_rank for q in range(x.dim + 1)
        )
        assert chi == betti


def test_is_cohomologous_basics(rp2):
    _, basis = cohomology(rp2, 1, 2)
    w = basis[0].cochain
    zero = Cochain.zero(rp2, 1, 2)
    assert is_cohomologous(w, w)
    assert not is_cohomologous(w, zero)
    # a coboundary is cohomologous to zero
    z = Cochain(rp2, 0, 2, tuple(i % 2 for i in range(6)))
    assert is_cohomologous(z.coboundary(), zero)


def test_is_cohomologous_context_mismatch(rp2, t2):
    a = Cochain.zero(rp2, 1, 2)
    b = Cochain.zero(t2, 1, 2)
    with pytest.raises(ValueError):
        is_cohomologous(a, b)


def test_is_cohomologous_requires_cocycles(rp2):
    values = [0] * rp2.simplex_count(1)
    values[0] = 1
    noncocycle = Cochain(rp2, 1, 0, tuple(values))
    assert not noncocycle.is_cocycle()
    with pytest.raises(ValueError):
        is_cohomologous(noncocycle, Cochain.zero(rp2, 1, 0))


def test_class_coordinates(t2):
    pres, basis = cohomology(t2, 1, 2)
    b1, b2 = basis
    x = b1.cochain + b2.cochain
    assert class_coordinates(x) == [1, 1]
    assert class_coordinates(b1.cochain) == [1, 0]


def test_negative_degree_rejected(rp2):
    with pytest.raises(ValueError):
        Cochain(rp2, -1, 0, ())
    with pytest.raises(ValueError):
        Cochain.zero(rp2, -2, 2)


@pytest.mark.parametrize("q, n", [(1, -1), (2, -4), (0, -2)])
def test_negative_modulus_rejected(rp2, q, n):
    with pytest.raises(ValueError, match="modulus must be >= 0"):
        cohomology(rp2, q, n)


def test_cocycle_certificate(rp2):
    values = [0] * rp2.simplex_count(1)
    values[0] = 1
    c = Cochain(rp2, 1, 0, tuple(values))
    assert not c.is_cocycle()
    with pytest.raises(ValueError):
        CohomologyClass(c)


class TestSimplicialMap:
    def test_projection_pullback_is_chain_map(self):
        prod, p1, p2 = corpus.product_with_projections("rp2", "s1")
        rp2 = corpus.complex_by_name("rp2")
        import random

        rng = random.Random(1)
        for proj, target in ((p1, rp2), (p2, corpus.complex_by_name("s1"))):
            for q in range(target.dim):
                vals = tuple(rng.randint(0, 5) for _ in range(target.simplex_count(q)))
                c = Cochain(target, q, 0, vals)
                assert (
                    proj.pullback(c.coboundary()).values
                    == proj.pullback(c).coboundary().values
                )

    def test_invalid_vertex_map(self, s1):
        with pytest.raises(ValueError):
            SimplicialMap(s1, s1, [1, 0, 2])  # not monotone on the (0,1) edge
        with pytest.raises(ValueError):
            SimplicialMap(s1, s1, [0, 1])  # wrong length


def test_constant_map_is_legal(rp2, point):
    m = SimplicialMap(rp2, point, [0] * 6)
    _, basis = cohomology(point, 0, 2)
    pulled = m.pullback(basis[0].cochain)
    assert pulled.values == (1,) * 6


def test_json_roundtrip(rp2):
    data = rp2.to_json_dict()
    again = SimplicialComplex.from_json_dict(data)
    assert again == rp2


@st.composite
def random_complexes(draw):
    """Small random complexes, deliberately non-pure and possibly disconnected."""
    n = draw(st.integers(1, 7))
    n_simplices = draw(st.integers(0, 6))
    maximal = []
    for _ in range(n_simplices):
        size = draw(st.integers(1, min(4, n)))
        verts = draw(
            st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)
        )
        maximal.append(tuple(sorted(verts)))
    return SimplicialComplex(n, maximal)


class TestRandomComplexes:
    @given(random_complexes())
    @settings(max_examples=60, deadline=None)
    def test_delta_squared_and_euler(self, x):
        for q in range(max(x.dim - 1, 0)):
            a = coboundary_matrix(x, q)
            b = coboundary_matrix(x, q + 1)
            assert b.mul(a).is_zero()
        # Euler characteristic agrees with the alternating Betti sum
        chi = x.euler_characteristic()
        betti = sum(
            (-1) ** q * cohomology(x, q, 0)[0].free_rank for q in range(x.dim + 1)
        )
        assert chi == betti

    @given(random_complexes())
    @settings(max_examples=40, deadline=None)
    def test_h0_counts_components(self, x):
        """H^0(X; Z/n) is Z^c or (Z/n)^c for the c components, their
        indicator functions form the basis, and each basis class reads back
        as its unit vector."""
        comps = components(x)
        c = len(comps)
        indicators = {tuple(int(v in comp) for v in range(x.vertex_count)) for comp in comps}
        for n in (0, 2, 3, 8):
            pres, basis = cohomology(x, 0, n)
            assert pres == (G(c, ()) if n == 0 else G(0, (n,) * c)), n
            assert {cls.cochain.values for cls in basis} == indicators, n
            assert len(basis) == c, n
            for k, cls in enumerate(basis):
                assert class_coordinates(cls.cochain) == [int(i == k) for i in range(c)], (n, k)

    @given(random_complexes())
    @settings(max_examples=30, deadline=None)
    def test_cone_kills_cohomology(self, x):
        c = corpus.cone(x)
        for q in range(1, c.dim + 1):
            assert cohomology(c, q, 0)[0].is_trivial()
            assert cohomology(c, q, 2)[0].is_trivial()

    @given(random_complexes(), st.sampled_from([2, 3, 4, 8]))
    @settings(max_examples=40, deadline=None)
    def test_mod_n_basis_is_sound(self, x, n):
        for q in range(x.dim + 1):
            pres, basis = cohomology(x, q, n)
            orders = generator_orders(x, q, n)
            zero = Cochain.zero(x, q, n)
            for cls, order in zip(basis, orders):
                assert cls.cochain.is_cocycle()
                assert not is_cohomologous(cls.cochain, zero)
                assert order > 0
                assert is_cohomologous(cls.cochain.scale(order), zero)


def _random_cochain(x, q, n, rng):
    return Cochain(x, q, n, tuple(rng.randrange(-5, 6) for _ in range(x.simplex_count(q))))


def _check_kernels(x, n, rng):
    """Table-driven delta and cup against the loop oracles, against the
    sparse delta matrix, and delta delta = 0; degrees run one past the top."""
    for q in range(x.dim + 2):
        c = _random_cochain(x, q, n, rng)
        d = c.coboundary()
        assert d == coboundary_loop(c)
        image = [sum(v * c.values[j] for j, v in row.items()) for row in _coboundary(x, q).data]
        assert list(c.coboundary_values()) == image
        assert d.coboundary().is_zero()
        assert c.is_cocycle() == coboundary_loop(c).is_zero()
        for p in range(x.dim + 2 - q):
            b = _random_cochain(x, p, n, rng)
            assert cup(c, b) == cup_value_on(c, b)
            assert cup(b, c) == cup_value_on(b, c)


class TestCochainKernels:
    @given(random_complexes(), st.sampled_from([0, 2, 4]), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_random_complexes(self, x, n, rng):
        _check_kernels(x, n, rng)

    @given(
        st.sampled_from(corpus.CORPUS_NAMES + ("rp2xs1",)),
        st.sampled_from([0, 2, 4]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=12, deadline=None)
    def test_corpus(self, name, n, rng):
        x = _product_with_s1("rp2") if name == "rp2xs1" else corpus.complex_by_name(name)
        _check_kernels(x, n, rng)

    @pytest.mark.parametrize(
        "x",
        [
            SimplicialComplex(1, []),  # a single vertex
            SimplicialComplex(2, [(0, 1)]),  # one 1-simplex: one-index gathers
            SimplicialComplex(3, [(0, 1, 2)]),  # one top simplex, delta_2 lands in nothing
            SimplicialComplex(4, [(0, 1, 2), (2, 3)]),
        ],
        ids=["vertex", "edge", "triangle", "triangle_and_edge"],
    )
    def test_edge_cases(self, x):
        for n in (0, 2, 4):
            _check_kernels(x, n, random.Random(n))
        top = Cochain(x, x.dim, 0, (1,) * x.simplex_count(x.dim))
        assert top.coboundary().values == ()
        assert top.is_cocycle()


def _edge_indicator(x, n):
    """The indicator of the first edge: not a cocycle on a closed surface."""
    values = [0] * x.simplex_count(1)
    values[0] = 1
    return Cochain(x, 1, n, tuple(values))


class TestCochainMemo:
    """delta and the cocycle verdict are computed once and kept on the
    cochain, outside its equality, hash and pickle."""

    @pytest.mark.parametrize("n", [0, 2, 4])
    def test_memo_matches_the_loop(self, rp2, n):
        rng = random.Random(n)
        for q in range(rp2.dim + 1):
            c = _random_cochain(rp2, q, n, rng)
            lift = coboundary_loop(Cochain(rp2, q, 0, c.values)).values
            for _ in range(2):
                assert c.coboundary_values() == lift
                assert c.coboundary() == coboundary_loop(c)
                assert c.is_cocycle() == coboundary_loop(c).is_zero()

    def test_memo_is_outside_equality_hash_and_pickle(self, rp2):
        w = cohomology(rp2, 1, 2)[1][0].cochain
        memoized = Cochain(rp2, 1, 2, w.values)
        assert memoized.is_cocycle() and memoized.coboundary_values()
        fresh = Cochain(rp2, 1, 2, w.values)
        assert memoized == fresh and hash(memoized) == hash(fresh)
        assert repr(memoized) == repr(fresh)
        for c in (memoized, fresh):
            back = pickle.loads(pickle.dumps(c))
            assert back == c and hash(back) == hash(c)
            assert back.is_cocycle() and back.coboundary_values() == memoized.coboundary_values()

    def test_a_load_runs_no_closure(self, rp2xrp2, monkeypatch):
        """Two separately pickled rp2xrp2 cochains load with no call of
        SimplicialComplex.__init__: the closed levels travel in the pickle,
        and the caches are rebuilt on use."""
        rng = random.Random(1)
        cochains = [brauer._random_cocycle(rp2xrp2, q, 2, rng) for q in (1, 2)]
        data = [pickle.dumps(c) for c in cochains]

        def closure(*args):
            raise AssertionError("a load closed X again")

        monkeypatch.setattr(SimplicialComplex, "__init__", closure)
        backs = [pickle.loads(d) for d in data]
        for c, back in zip(cochains, backs):
            x = back.complex
            assert back == c and x == rp2xrp2 and x._simplices == rp2xrp2._simplices and x._index == rp2xrp2._index
            assert x._factors == rp2xrp2._factors and (x._face_tables, x._morse, x._bases) == ({}, None, {})
            assert back.coboundary() == coboundary_loop(back) and class_coordinates(back) == class_coordinates(c)

    def test_integral_values_from_a_list_are_kept(self, rp2):
        z = Cochain(rp2, 0, 0, tuple(range(rp2.simplex_count(0)))).coboundary()
        values = list(z.values)
        c = Cochain(rp2, 1, 0, values)
        assert isinstance(c.values, tuple)
        assert c.is_cocycle()
        delta = c.coboundary_values()
        values[0] += 1
        assert c.values == z.values and c == z
        assert c.is_cocycle() and c.coboundary_values() == delta

    def test_a_failed_verdict_stays_and_every_check_raises(self, rp2):
        bad = _edge_indicator(rp2, 2)
        assert not bad.is_cocycle()
        assert not bad.is_cocycle()
        with pytest.raises(ValueError):
            CohomologyClass(bad)
        with pytest.raises(ValueError):
            brauer.BrauerElement("ko", Cochain.zero(rp2, 0, 8), bad, Cochain.zero(rp2, 2, 2))
        with pytest.raises(ValueError):
            is_cohomologous(bad, Cochain.zero(rp2, 1, 2))
        assert class_coordinates(bad) is None

    def test_bockstein_reads_delta_once(self, rp2, monkeypatch):
        w = cohomology(rp2, 1, 2)[1][0].cochain
        c = Cochain(rp2, 1, 2, w.values)  # fresh: nothing memoized yet
        degrees = []
        face_planes = SimplicialComplex.face_planes  # what a mod-2 delta pass reads

        def counted(self, q):
            degrees.append(q)
            return face_planes(self, q)

        monkeypatch.setattr(SimplicialComplex, "face_planes", counted)
        beta = bockstein(CohomologyClass(c))
        assert degrees.count(1) == 1
        # Sq^1 w = w cup w on rp2, the nonzero class of H^2(rp2; Z/2)
        assert any(class_coordinates(Cochain(rp2, 2, 2, beta.cochain.values)))


@pytest.mark.parametrize("name", corpus.CORPUS_NAMES + ("rp2xs1", "kleinxs1"))
def test_class_coordinates_match_the_solve(name):
    """Coordinates read off the cohomology record equal those of a solve of
    [delta_{q-1} | basis], for random cocycles, and a non-cocycle gives None."""
    x = _product_with_s1(name[: -len("xs1")]) if name.endswith("xs1") else corpus.complex_by_name(name)
    rng = random.Random(name)
    for n in (0, 2, 3, 4, 6, 8, 12, 30):
        for q in range(x.dim + 2):
            _, basis = cohomology(x, q, n)
            orders = generator_orders(x, q, n)
            for _ in range(2):
                coeffs = [rng.randrange(o) if o else rng.randint(-3, 3) for o in orders]
                c = Cochain.zero(x, q, n)
                for k, cls in zip(coeffs, basis):
                    c = c + cls.cochain.scale(k)
                if q:
                    c = c + _random_cochain(x, q - 1, n, rng).coboundary()
                assert class_coordinates(c) == coeffs == class_coordinates_solve(c, basis, orders), (q, n)
            bad = _random_cochain(x, q, n, rng)
            got = class_coordinates(bad)
            assert (got is None) == (not bad.is_cocycle()) and got == class_coordinates_solve(bad, basis, orders)


@pytest.mark.parametrize("name", corpus.CORPUS_NAMES + ("rp2xs1", "kleinxs1"))
def test_is_cohomologous_matches_the_solve(name):
    """is_cohomologous, read off class coordinates, agrees with a solve
    against delta_{q-1}: a + delta r ~ a, a + (basis class) is not ~ a, and
    random pairs of cocycles get the same answer both ways."""
    if name.endswith("xs1"):
        x = corpus.product_with_projections(name[: -len("xs1")], "s1")[0]
    else:
        x = corpus.complex_by_name(name)
    rng = random.Random(name)

    def random_cocycle(q, n, basis, orders):
        c = Cochain.zero(x, q, n)
        for cls, o in zip(basis, orders):
            c = c + cls.cochain.scale(rng.randrange(o) if o else rng.randint(-3, 3))
        return c + _random_cochain(x, q - 1, n, rng).coboundary() if q else c

    for n in (0, 2, 3, 4, 6, 8):
        for q in range(x.dim + 1):
            _, basis = cohomology(x, q, n)
            orders = generator_orders(x, q, n)
            for _ in range(2):
                a = random_cocycle(q, n, basis, orders)
                if q:
                    b = a + _random_cochain(x, q - 1, n, rng).coboundary()
                    assert is_cohomologous(a, b) and is_cohomologous_solve(a, b), (q, n)
                for cls in basis:
                    b = a + cls.cochain
                    assert not is_cohomologous(a, b) and not is_cohomologous_solve(a, b), (q, n)
                b = random_cocycle(q, n, basis, orders)
                assert is_cohomologous(a, b) == is_cohomologous_solve(a, b), (q, n)
