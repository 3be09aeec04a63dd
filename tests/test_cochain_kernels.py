"""The one-pass cochain kernels: what they build is what the public
constructor builds, which refuses values that are not ints, mod-2 cocycle
verdicts by face parity agree with the exact delta, the packed mod-2
kernels agree with the per-element oracles, the mod-2 face fold gives the
exact delta and Bockstein of the 0/1 lift, beta(b cup b) is zero, Brauer addition checks each
new cochain once, random Brauer elements are the ones rng.choices drew,
and the face, cup-i, cross-product and pullback index tables built from
vertex columns are the ones built one simplex at a time."""

import pickle
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import coboundary_loop, cross_loop, cup_i_loop, cup_i_table_loop, cup_value_on, face_table_loop
from oracles import pullback_loop
from oracles import random_element as random_element_choices

from supercoh import brauer, corpus
from supercoh.operations import bockstein, cup, cup_i
from supercoh.simplicial import Cochain, CohomologyClass, SimplicialComplex, SimplicialMap

MODULI = (0, 2, 3, 4, 8)


def _random_cochain(x, q, n, rng):
    return Cochain(x, q, n, tuple(rng.randrange(-9, 10) for _ in range(x.simplex_count(q))))


def _assert_public(*cochains: Cochain):
    """Each cochain is indistinguishable from the cochain Cochain(...) builds
    from its values: equal, with the same hash and repr, also after a pickle
    (of all of them at once, which rebuilds their complex once), and a
    mod-2 cochain holds its values packed one byte each."""
    for c, back in zip(cochains, pickle.loads(pickle.dumps(cochains))):
        public = Cochain(c.complex, c.degree, c.modulus, c.values)
        assert c == public and hash(c) == hash(public) and repr(c) == repr(public)
        assert isinstance(c.values, tuple)
        assert back == public and hash(back) == hash(public) and repr(back) == repr(public)
        for packed in (c._packed, public._packed, back._packed):
            assert packed == (bytes(c.values) if c.modulus == 2 else None)


def _reduce(values, n):
    return tuple(v % n for v in values) if n else tuple(values)


@given(
    st.sampled_from(corpus.CORPUS_NAMES),
    st.sampled_from(MODULI),
    st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_kernels_build_what_the_constructor_builds(name, n, seed):
    x = corpus.complex_by_name(name)
    rng = random.Random(seed)
    q = rng.randrange(x.dim + 1)
    a, b = _random_cochain(x, q, n, rng), _random_cochain(x, q, n, rng)
    k = rng.randrange(-9, 10)
    sums = [
        (a + b, map(int.__add__, a.values, b.values)),
        (a - b, map(int.__sub__, a.values, b.values)),
        (-a, (-v for v in a.values)),
        (a.scale(k), (k * v for v in a.values)),
    ]
    for got, expected in sums:
        assert got.values == _reduce(expected, n)
        _assert_public(got)
    d = a.coboundary()
    assert d == coboundary_loop(a)
    _assert_public(d)
    p = rng.randrange(x.dim - q + 1)
    c = cup(a, _random_cochain(x, p, n, rng))
    assert c.degree == q + p
    _assert_public(c)
    if n:
        z = brauer._random_cocycle(x, q, n, rng)
        _assert_public(z)
        _assert_public(bockstein(CohomologyClass(z)).cochain)


@pytest.mark.parametrize(
    "degree, modulus, value",
    [(0, 0, 1.5), (1, 2, 0.5), (1, 2, "1"), (2, 2, True), (0, 8, False), (2, 0, None), (1, 3, 2**70 + 0.0)],
)
def test_constructor_refuses_values_that_are_not_ints(rp2, degree, modulus, value):
    """Exactly int, as a vertex must be: a float would be accepted and
    reduced, a bool would stand for 0 or 1, and a str would fail in %."""
    values = (0,) * (rp2.simplex_count(degree) - 1) + (value,)
    with pytest.raises(ValueError, match="exactly ints"):
        Cochain(rp2, degree, modulus, values)
    slot = "abc"[degree]  # the ko layout holds a, b and c in degrees 0, 1 and 2
    with pytest.raises(ValueError, match="exactly ints"):
        brauer.element(rp2, "ko", **{slot: values})
    assert Cochain(rp2, degree, modulus, values[:-1] + (3,)).values[-1] == (3 % modulus if modulus else 3)


@pytest.mark.parametrize("name", ["rp2", "klein", "rp2xrp2"])
def test_mod2_parity_verdict_matches_the_exact_delta(name):
    x = corpus.complex_by_name(name)
    rng = random.Random(name)
    seen = set()
    for q in range(x.dim + 1):
        for _ in range(4):
            for c in (_random_cochain(x, q, 2, rng), brauer._random_cocycle(x, q, 2, rng)):
                fresh = Cochain(x, q, 2, c.values)
                verdict = fresh.is_cocycle()
                assert fresh._delta is None  # read off the face parity
                lift = Cochain(x, q, 0, c.values).coboundary_values()
                assert verdict == (not any(v % 2 for v in lift)) == coboundary_loop(fresh).is_zero()
                seen.add(verdict)
    assert seen == {True, False}


@pytest.mark.parametrize(
    "variant, expected",
    [("ko", {0: 1, 1: 1, 2: 1}), ("ku", {0: 1, 1: 1, 2: 1, 3: 2})],
)
def test_add_makes_one_delta_pass_per_checked_cochain(rp2xrp2, monkeypatch, variant, expected):
    """ko checks a + a', b + b' and c + c' + b cup b'; ku checks a + a',
    b + b', the cup b cup b', its Bockstein and the c sum."""
    rng = random.Random(variant)
    x, y = (brauer.random_element(rp2xrp2, variant, rng) for _ in range(2))
    degrees = Counter()
    face_table = SimplicialComplex.face_table

    def counted(self, q):
        degrees[q] += 1
        return face_table(self, q)

    monkeypatch.setattr(SimplicialComplex, "face_table", counted)
    brauer.add(x, y)
    assert dict(degrees) == expected


@pytest.mark.parametrize("name", ["rp2", "klein", "rp2xrp2"])
@pytest.mark.parametrize("variant", ["ku", "ko"])
def test_random_elements_are_the_ones_choices_drew(name, variant):
    x = corpus.complex_by_name(name)
    for seed in range(20):
        rng, old = random.Random(seed), random.Random(seed)
        assert brauer.random_element(x, variant, rng) == random_element_choices(x, variant, old)
        assert rng.getstate() == old.getstate()


@pytest.mark.parametrize("m", [2, 3, 5, 7, 8])
def test_draws_equal_choices(m):
    for k in (0, 1, 2, 17, 1500):
        rng, old = random.Random(f"{m} {k}"), random.Random(f"{m} {k}")
        assert list(brauer._draws(rng, m, k)) == old.choices(range(m), k=k)
        assert rng.getstate() == old.getstate()


def _with_maps(x, *maps):
    """x, its identity, its map to a point, and the given maps from x."""
    point = corpus.complex_by_name("point")
    n = x.vertex_count
    return x, (SimplicialMap(x, x, range(n)), SimplicialMap(x, point, [0] * n), *maps)


def _product(k, l):
    x, p1, p2 = corpus.product(k, l)
    return _with_maps(x, p1, p2)


TABLE_COMPLEXES = {
    **{name: lambda name=name: _with_maps(corpus.complex_by_name(name)) for name in corpus.CORPUS_NAMES},
    "rp2xs1": lambda: _product(corpus.complex_by_name("rp2"), corpus.complex_by_name("s1")),
    "kleinxs1": lambda: _product(corpus.complex_by_name("klein"), corpus.complex_by_name("s1")),
    "(s1xs1)xs1": lambda: _product(corpus.complex_by_name("s1xs1"), corpus.complex_by_name("s1")),
    "empty": lambda: _with_maps(SimplicialComplex(0, [])),
    # vertex 3 of the first factor is isolated and spans a copy of rp2
    "isolated": lambda: _product(SimplicialComplex(4, [(0, 1), (1, 2), (0, 2)]), corpus.complex_by_name("rp2")),
}


def _indices(gather, count):
    """The indices a gather reads, from values that are their own index."""
    return gather(tuple(range(count)))


@pytest.mark.parametrize("name", TABLE_COMPLEXES)
def test_index_tables_equal_the_per_simplex_builders(name):
    x, maps = TABLE_COMPLEXES[name]()
    top = x.dim + 1
    for q in range(top + 1):
        assert x.face_table(q)[0] == face_table_loop(x, q), q
    for i in range(3):
        for p in range(top + i + 1):
            for q in range(top + i - p + 1):
                got = tuple(
                    (_indices(even, x.simplex_count(p)), _indices(odd, x.simplex_count(q)))
                    for even, odd in x.cup_i_table(i, p, q)
                )
                assert got == cup_i_table_loop(x, i, p, q), (i, p, q)
    if x._factors:
        model = x.morse_complex()
        kx, lx = model._k.complex, model._l.complex
        for q in range(x.dim + 1):
            for p, old in cross_loop(model, q).items():
                # each gather is fed its values with the 0 of a degenerate face appended
                front, back = model._cross(q, p)
                got = (_indices(front, kx.simplex_count(p) + 1), _indices(back, lx.simplex_count(q - p) + 1))
                assert got == old, (q, p)
    for f in maps:
        for q in range(f.target.dim + 2):
            c = Cochain(f.target, q, 0, tuple(range(1, f.target.simplex_count(q) + 1)))
            assert f.pullback(c) == pullback_loop(f, c), (f.vertex_map, q)
            assert pickle.loads(pickle.dumps(f)).pullback(c) == f.pullback(c)


def _mod2_cochain(x, q, rng):
    return Cochain(x, q, 2, tuple(rng.randrange(2) for _ in range(x.simplex_count(q))))


PACKED_COMPLEXES = {
    **{name: TABLE_COMPLEXES[name] for name in (*corpus.CORPUS_NAMES, "rp2xs1", "empty", "isolated")},
    # one edge: every face gather of delta_0 reads one value, as a 1-tuple
    "edge": lambda: _with_maps(SimplicialComplex(2, [(0, 1)])),
}


@pytest.mark.parametrize("name", PACKED_COMPLEXES)
def test_packed_kernels_match_the_per_element_oracles(name):
    """Mod 2, +, -, negation, scale, coboundary, the parity verdict, cup,
    cup_i and the random cocycles of brauer, which run on packed bytes,
    give what the per-element loops give, in every degree up to one past
    the top, where every gather is empty."""
    x = PACKED_COMPLEXES[name]()[0]
    rng = random.Random(name)
    degrees = range(x.dim + 2)
    cochains, results = {}, []
    for q in degrees:
        a, b = _mod2_cochain(x, q, rng), _mod2_cochain(x, q, rng)
        z = brauer._random_cocycle(x, q, 2, rng)
        cochains[q] = (a, b, z)
        expected = tuple(u ^ v for u, v in zip(a.values, b.values))
        for got, values in [(a + b, expected), (a - b, expected), (-a, a.values), (z + z, (0,) * len(z.values))]:
            assert got.values == values, q
            results.append(got)
        for k in (0, 1, 3, -2):
            assert a.scale(k).values == tuple(k * v % 2 for v in a.values), (q, k)
            results.append(a.scale(k))
        for c in (a, b, z):
            d = c.coboundary()
            assert d == coboundary_loop(c), q
            results.append(d)
            fresh = Cochain(x, q, 2, c.values)
            assert fresh.is_cocycle() == d.is_zero() and fresh._delta is None, q
        assert z.is_cocycle(), q
        results.append(z)
    for p in degrees:
        for q in degrees:
            # one of the random cochains or the cocycle on each side
            a, b = cochains[p][(p + q) % 3], cochains[q][(p + 2 * q + 1) % 3]
            results.append(cup(a, b))
            assert results[-1] == cup_value_on(a, b), (p, q)
            for i in range(min(p + q, 2) + 1):
                results.append(cup_i(i, a, b))
                assert results[-1] == cup_i_loop(i, a, b), (i, p, q)
    if x.vertex_count:
        for variant in ("ku", "ko"):
            rng, old = random.Random(f"{name} {variant}"), random.Random(f"{name} {variant}")
            e = brauer.random_element(x, variant, rng)
            assert e == random_element_choices(x, variant, old) and rng.getstate() == old.getstate()
            results += [e.a, e.b, e.c]
    _assert_public(*results)


FOLD_COMPLEXES = {
    **{name: TABLE_COMPLEXES[name] for name in (*corpus.CORPUS_NAMES, "rp2xs1")},
    # the boundary of the 7-simplex: 7 faces per top simplex at q = 5, so
    # off = (q + 2) // 2 is odd at q = 0, 1, 4, 5 and even at q = 2, 3, 6
    "boundary7": lambda: _with_maps(SimplicialComplex(8, combinations(range(8), 7))),
}


@pytest.mark.parametrize("name", FOLD_COMPLEXES)
def test_mod2_fold_gives_the_exact_delta_and_bockstein_of_the_lift(name):
    """Mod 2, one fold of the face gathers gives the cocycle verdict and the
    coboundary, and bockstein halves the 0/1 lift's delta kept in that
    fold: each against the loop oracle on the integral lift, as is
    coboundary_values, for random 0/1 cochains and random cocycles in
    every degree up to one past the top."""
    x = FOLD_COMPLEXES[name]()[0]
    rng = random.Random(name)
    verdicts, betas = set(), set()
    for q in range(x.dim + 2):
        cochains = [_mod2_cochain(x, q, rng) for _ in range(3)]
        for c in cochains + [brauer._random_cocycle(x, q, 2, rng) for _ in range(3)]:
            lift = coboundary_loop(Cochain(x, q, 0, c.values)).values
            fresh = Cochain(x, q, 2, c.values)
            verdict = not any(v % 2 for v in lift)
            assert fresh.is_cocycle() == verdict and fresh._delta is None, q
            assert fresh.coboundary() == Cochain(x, q + 1, 2, lift), q
            assert fresh.coboundary_values() == lift, q
            verdicts.add(verdict)
            if verdict:
                beta = bockstein(CohomologyClass(Cochain(x, q, 2, c.values))).cochain
                assert beta == Cochain(x, q + 1, 0, tuple(v // 2 for v in lift)), q
                betas.update((q, v) for v in beta.values)
    # on a point every cochain is a cocycle
    assert verdicts == {True, False} or x.dim == 0
    if name == "boundary7":
        # beta is negative and positive under an even off (q = 2) and an odd one (q = 4, 5)
        assert {(q, v) for q in (2, 4, 5) for v in (-1, 1)} <= betas


@pytest.mark.parametrize("name", corpus.CORPUS_NAMES + ("rp2xs1", "kleinxs1"))
def test_beta_of_b_cup_b_is_the_zero_cochain(name):
    """For a mod-2 1-cocycle b, beta(b cup b) is the zero cochain, not only
    a coboundary: the twist of brauer.negate adds nothing, yet negate still
    computes and checks it."""
    x = TABLE_COMPLEXES[name]()[0]
    rng = random.Random(name)
    squares = set()
    for _ in range(10):
        b = brauer._random_cocycle(x, 1, 2, rng)
        square = cup(b, b)
        assert bockstein(CohomologyClass(square)).cochain.is_zero()
        squares.add(square.is_zero())
    # b cup b itself is not the zero cochain, where it has simplices to live on
    assert False in squares or x.dim < 2
