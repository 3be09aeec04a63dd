"""The one-pass cochain kernels: what they build is what the public
constructor builds, mod-2 cocycle verdicts by face parity agree with the
exact delta, Brauer addition checks each new cochain once, and random
Brauer elements are the ones rng.choices drew."""

import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import coboundary_loop
from oracles import random_element as random_element_choices

from supercoh import brauer, corpus
from supercoh.operations import bockstein, cup
from supercoh.simplicial import Cochain, CohomologyClass, SimplicialComplex

MODULI = (0, 2, 3, 4, 8)


def _random_cochain(x, q, n, rng):
    return Cochain(x, q, n, tuple(rng.randrange(-9, 10) for _ in range(x.simplex_count(q))))


def _assert_public(c: Cochain):
    """c is indistinguishable from the cochain Cochain(...) builds from its
    values: equal, with the same hash and repr, also after a pickle."""
    public = Cochain(c.complex, c.degree, c.modulus, c.values)
    assert c == public and hash(c) == hash(public) and repr(c) == repr(public)
    assert isinstance(c.values, tuple)
    back = pickle.loads(pickle.dumps(c))
    assert back == public and hash(back) == hash(public) and repr(back) == repr(public)


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
                exact = Cochain(x, q, 2, c.values)
                exact.coboundary_values()
                assert verdict == exact.is_cocycle() == coboundary_loop(exact).is_zero()
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
