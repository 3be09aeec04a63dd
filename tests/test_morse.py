"""The Morse complex of the coreduction matching and the tensor model of a
staircase product: delta_M^2 = 0, the extension e and restriction r are
cochain maps with r e = 1, and the cohomology records built on them name
the same groups and classes as the same builders fed the coboundaries of
X itself.  On a product, the tensor model gives the groups of X's own
Morse complex and of the Kunneth formula, and the group verbs never touch
X."""

import hashlib
import json
import pickle
import random
import time
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from oracles import cohomology_unreduced, kunneth
from test_simplicial import random_complexes

from supercoh import brauer, corpus, simplicial
from supercoh.exact_linalg import AbelianGroupPresentation as G
from supercoh.simplicial import (
    MAX_SIMPLICES,
    MAX_VERTICES,
    Cochain,
    MorseComplex,
    SimplicialComplex,
    TensorModel,
    class_coordinates,
    cohomology,
    generator_orders,
    presentation,
)

NAMES = corpus.CORPUS_NAMES + ("rp2xs1", "kleinxs1")
# every product below computes on its TensorModel; rp2xrp2xs1 nests one
PRODUCTS = ("s1xs1", "rp2xrp2", "rp2xs1", "kleinxs1", "t2xs1", "s2xs1", "rp2xrp2xs1")


# SHA-256 of the generator values of every cohomology(x, q, n) below, as
# test_representatives_are_pinned takes it.  A change that alters the
# representatives on purpose updates it and says so.
REPRESENTATIVES_SHA256 = "32bef3e6bb31e4aa74cb908fd1e9596c799b973335062188a57297e54363ee5a"


def _complex(name):
    if name.endswith("xs1"):
        return corpus.product_with_projections(name[: -len("xs1")], "s1")[0]
    return corpus.complex_by_name(name)


def _apply(matrix, vec):
    return [sum(v * vec[j] for j, v in row.items()) for row in matrix.data]


def _check_reduction(x, rng):
    m = x.morse_complex()
    for q in range(x.dim + 1):
        size = m.size(q)
        below, above = m.delta(q - 1), m.delta(q)
        assert (below.rows, below.cols, above.rows, above.cols) == (size, m.size(q - 1), m.size(q + 1), size)
        for j in range(m.size(q - 1)):
            unit = [int(i == j) for i in range(m.size(q - 1))]
            assert not any(_apply(above, _apply(below, unit))), q
        for j in range(size):
            unit = [int(i == j) for i in range(size)]
            assert m.restrict(q, m.extend(q, unit)) == unit, q
        vec = [rng.randint(-4, 4) for _ in range(size)]
        extended = Cochain(x, q, 0, m.extend(q, vec))
        values = tuple(rng.randint(-4, 4) for _ in range(x.simplex_count(q)))
        if q < x.dim:
            assert extended.coboundary().values == m.extend(q + 1, _apply(above, vec)), q
            restricted = _apply(above, m.restrict(q, values))
            assert m.restrict(q + 1, Cochain(x, q, 0, values).coboundary_values()) == restricted, q
        else:
            assert extended.is_cocycle()


@pytest.mark.parametrize("name", sorted(set(NAMES + PRODUCTS)))
def test_reduction_is_a_retract_of_cochain_maps(name):
    _check_reduction(_complex(name), random.Random(name))


@given(random_complexes())
@settings(max_examples=60, deadline=None)
def test_reduction_on_random_complexes(x):
    _check_reduction(x, random.Random(0))


@pytest.mark.parametrize("name", ["klein", "rp2", "t2"])
def test_restrict_flows_its_own_chains(name):
    # a fresh model reads a cochain before any delta is built: chains(q) runs
    # the flow itself, and gives what the flow of delta(q - 1) gives
    x, rng = _complex(name), random.Random(name)
    for q in range(x.dim + 1):
        fresh, flowed = MorseComplex(x), MorseComplex(x)
        flowed.delta(q - 1)
        values = tuple(rng.randint(-4, 4) for _ in range(x.simplex_count(q)))
        assert fresh.restrict(q, values) == flowed.restrict(q, values)
        assert fresh.chains(q) == flowed.chains(q)
        assert fresh.restrict(q, fresh.extend(q, [1] * fresh.size(q))) == [1] * fresh.size(q)


def test_matching_is_small():
    # every critical cell of a perfect matching is a mod-2 Betti number; the
    # model of rp2xrp2 is the tensor square of the one of rp2, so it is
    # perfect too, but the matching of X itself is checked on its own
    for name, counts in (("rp2", (1, 1, 1)), ("klein", (1, 2, 1)), ("rp2xrp2", (1, 2, 3, 2, 1))):
        x = _complex(name)
        assert tuple(map(len, MorseComplex(x).critical)) == counts
        assert tuple(map(x.morse_complex().size, range(x.dim + 1))) == counts


def _combination(x, q, n, coords, basis):
    c = Cochain.zero(x, q, n)
    for k, cls in zip(coords, basis):
        c = c + cls.cochain.scale(k)
    return c


@pytest.mark.parametrize("name", NAMES)
def test_reduced_records_match_the_unreduced_path(name):
    """Same presentation and orders; the unreduced reader takes each reduced
    basis class to coordinates whose combination of unreduced basis classes
    reads back as that class, and the other way round.  For n > 0 the
    unreduced path factors the [delta_q | n I] stack of X itself."""
    x = _complex(name)
    for n in (0, 2, 3, 4, 6):
        for q in range(x.dim + 1):
            pres, basis = cohomology(x, q, n)
            orders = generator_orders(x, q, n)
            u_pres, u_basis, u_orders, u_coordinates = cohomology_unreduced(x, q, n)
            assert (pres, orders) == (u_pres, u_orders), (q, n)
            for k, cls in enumerate(basis):
                unit = [int(i == k) for i in range(len(basis))]
                assert class_coordinates(cls.cochain) == unit, (q, n, k)
                back = _combination(x, q, n, u_coordinates(cls.cochain), u_basis)
                assert class_coordinates(back) == unit, (q, n, k)
            for k, cls in enumerate(u_basis):
                unit = [int(i == k) for i in range(len(u_basis))]
                back = _combination(x, q, n, class_coordinates(cls.cochain), basis)
                assert u_coordinates(back) == unit, (q, n, k)


def test_representatives_are_pinned():
    """The representatives of H^q(X; Z/n) on NAMES, q <= dim and
    n in {0, 2, 3, 4}, are the ones the digest was taken of."""
    digest = hashlib.sha256()
    for name in NAMES:
        x = _complex(name)
        for q in range(x.dim + 1):
            for n in (0, 2, 3, 4):
                values = [c.cochain.values for c in cohomology(x, q, n)[1]]
                digest.update(json.dumps([name, q, n, values]).encode())
    assert digest.hexdigest() == REPRESENTATIVES_SHA256


def test_rp2xrp2xs1():
    """Kunneth over Z and Z/2, and the ku/ko group orders as the product of
    their sector orders, on the 81 936 cells of RP2 x RP2 x S1."""
    x = _complex("rp2xrp2xs1")
    start = time.perf_counter()
    integral = [cohomology(x, q, 0)[0] for q in range(1, 6)]
    assert integral == [G(1, ()), G(0, (2, 2)), G(0, (2, 2, 2)), G(0, (2, 2)), G(0, (2,))]
    betti = [len(cohomology(x, q, 2)[0].invariant_factors) for q in range(6)]
    assert betti == [1, 3, 5, 5, 3, 1]
    orders = [
        brauer.abstract_group(x, "ku").order(),
        brauer.twist_subgroup(x, "ku").order(),
        brauer.abstract_group(x, "ko").order(),
        brauer.twist_subgroup(x, "ko").order(),
    ]
    assert orders == [128, 64, 2048, 256]
    assert time.perf_counter() - start < 60


def test_vertex_bound_is_checked_before_building():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds"):
        SimplicialComplex(10**12, [])
    assert time.perf_counter() - start < 1
    with pytest.raises(ValueError, match="exceeds"):
        SimplicialComplex(MAX_VERTICES + 1, [])
    assert SimplicialComplex(MAX_VERTICES, []).simplex_count(0) == MAX_VERTICES


def test_closure_bound_is_checked_before_building(monkeypatch):
    # 126 000 six-simplices of 127 faces each bound 16 002 000 faces, just
    # over MAX_SIMPLICES: refused before the closure lists any face
    facets = list(islice(combinations(range(22), 7), 126_000))

    def no_faces(*args):
        raise AssertionError("a face was built")

    monkeypatch.setattr(simplicial, "combinations", no_faces)
    with pytest.raises(ValueError, match="closure bound 16002000 "):
        SimplicialComplex(22, facets)
    # rp2 x rp2 x rp2 stays buildable: 90 000 six-simplices
    assert 90_000 * (2**7 - 1) <= MAX_SIMPLICES


def _unfactored(x):
    """A copy of X built from its simplices alone, as JSON input is: it
    computes on the Morse complex of its own matching."""
    return SimplicialComplex(x.vertex_count, x.maximal_simplices)


@pytest.mark.parametrize("name", PRODUCTS)
def test_tensor_model_matches_the_morse_complex_of_x(name):
    x = _complex(name)
    own = _unfactored(x)
    model = x.morse_complex()
    assert isinstance(model, TensorModel) and isinstance(own.morse_complex(), MorseComplex)
    assert (model.delta(x.dim).rows, model.delta(x.dim + 1).cols) == (0, 0)
    for n in (0, 2, 3, 4, 6):
        for q in range(x.dim + 2):
            assert presentation(x, q, n) == presentation(own, q, n), (q, n)
    for variant in ("ku", "ko"):
        assert brauer.abstract_group(x, variant) == brauer.abstract_group(own, variant), variant
        assert brauer.twist_subgroup(x, variant) == brauer.twist_subgroup(own, variant), variant


@pytest.mark.parametrize("name", PRODUCTS)
def test_tensor_model_matches_kunneth(name):
    x = _complex(name)
    k, l = (tuple(presentation(f, q) for q in range(f.dim + 1)) for f in x._factors)
    for n in range(x.dim + 2):
        assert presentation(x, n) == kunneth(k, l, n), n


def test_group_verbs_touch_no_product_complex(monkeypatch):
    """ku/ko groups of a fresh product read the models of its factors: no
    face table of X is built and no matching runs on X, nested or not."""
    matched = []
    init = MorseComplex.__init__

    def counted(self, x):
        matched.append(x)
        init(self, x)

    monkeypatch.setattr(MorseComplex, "__init__", counted)
    rp2, s1 = corpus.complex_by_name("rp2"), corpus.complex_by_name("s1")
    inner = corpus.product(s1, s1)[0]
    products = (corpus.product(rp2, s1)[0], corpus.product(rp2, rp2)[0], inner, corpus.product(inner, s1)[0])
    for x in products:
        for variant in ("ku", "ko"):
            brauer.abstract_group(x, variant)
            brauer.twist_subgroup(x, variant)
    assert all(isinstance(x.morse_complex(), TensorModel) for x in products)
    assert [x._face_tables for x in products] == [{}] * len(products)
    assert all(c is rp2 or c is s1 for c in matched)


def test_products_keep_their_factors_through_pickle_not_json():
    """A pickled product keeps its factors and so its representatives; a
    JSON copy computes on its own matching, which may give other
    representatives of the same groups."""
    s1 = corpus.complex_by_name("s1")
    for x in (_complex("rp2xs1"), corpus.product(corpus.product(s1, s1)[0], s1)[0]):
        back = pickle.loads(pickle.dumps(x))
        assert back == x and back._factors == x._factors
        assert back._factors[0]._factors == x._factors[0]._factors
        assert isinstance(back.morse_complex(), TensorModel)
        copy = SimplicialComplex.from_json_dict(json.loads(json.dumps(x.to_json_dict())))
        assert copy == x and copy._factors is None
        assert isinstance(copy.morse_complex(), MorseComplex)
        for n in (0, 2):
            for q in range(x.dim + 1):
                pres, basis = cohomology(x, q, n)
                back_pres, back_basis = cohomology(back, q, n)
                assert pres == back_pres and [c.cochain for c in basis] == [c.cochain for c in back_basis]
                assert cohomology(copy, q, n)[0] == pres
                assert generator_orders(copy, q, n) == generator_orders(x, q, n)


def test_product_keeps_the_isolated_vertices_of_a_factor():
    """A vertex that no listed simplex holds still spans a copy of the other
    factor: circle + point times rp2 has two components, and the model, the
    product's own Morse complex and Kunneth agree on every group."""
    k = SimplicialComplex(4, [(0, 1), (1, 2), (0, 2)])
    l = corpus.complex_by_name("rp2")
    x = corpus.product(k, l)[0]
    own = _unfactored(x)
    assert presentation(x, 0) == G(2, ())
    for n in (0, 2):
        for q in range(x.dim + 2):
            assert presentation(x, q, n) == presentation(own, q, n), (q, n)
    groups = [[presentation(f, q) for q in range(f.dim + 1)] for f in (k, l)]
    assert [presentation(x, q) for q in range(x.dim + 2)] == [kunneth(*groups, q) for q in range(x.dim + 2)]
    _check_reduction(x, random.Random(0))
