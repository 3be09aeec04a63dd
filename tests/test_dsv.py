import random
from fractions import Fraction
from unittest import mock

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercoh import dsv
from supercoh.dsv import (
    QQ,
    BoundedChainComplex,
    DSV,
    DSVMap,
    Field,
    chain_map_system,
    direct_sum,
    epsilon,
    euler_char,
    homology,
    homotopy_inverse,
    identity,
    invert,
    is_quasi_iso,
    kernel_basis,
    mat_mul,
    rank,
    swap_map,
    tensor,
    zeros,
)
from supercoh.exact_linalg import rref
from supercoh.verify import _random_bounded_complex, _random_dsv, _random_dsv_map

F5 = Field(5)


def acyclic(f):
    return DSV.make(f, 1, 1, [[1]], [[0]])


class TestConstruction:
    def test_differential_condition_enforced(self):
        with pytest.raises(ValueError):
            DSV.make(QQ, 1, 1, [[1]], [[1]])

    def test_field_must_be_prime(self):
        with pytest.raises(ValueError):
            Field(6)

    def test_large_prime_field(self):
        # a primality test by trial division took minutes at this size
        p = 1_000_000_007
        f = Field(p)
        assert invert(f, ((f.of(2),),)) == (((p + 1) // 2,),)
        with pytest.raises(ValueError):
            Field(p * 1_000_000_009)

    def test_unit(self):
        u = DSV.unit(QQ)
        assert (u.dim0, u.dim1) == (1, 0)
        assert homology(u) == (1, 0)

    @pytest.mark.parametrize(
        "dims, d0, d1",
        [
            ((2, 0), [[1, 2, 3], [4]], [[7, 7, 7]]),
            ((2, 0), [], []),
            ((2, 0), [[]], [[], []]),
            ((0, 2), [[], []], [[1]]),
            ((0, 0), [[1]], []),
        ],
    )
    def test_make_checks_shapes_with_a_zero_dimension(self, dims, d0, d1):
        with pytest.raises(ValueError, match="expected a"):
            DSV.make(F5, *dims, d0, d1)

    def test_make_with_a_zero_dimension(self):
        v = DSV.make(F5, 2, 0, [], [[], []])
        assert (v.d0, v.d1, homology(v)) == ((), ((), ()), (2, 0))
        assert homology(DSV.make(QQ, 0, 2, [[], []], [])) == (0, 2)


class TestMapMake:
    # the acyclic (1|1) plus the unit: d0 = [1 0], so a chain map has f0[0] = (f1, 0)
    @pytest.mark.parametrize("f", [F5, QQ], ids=["F5", "Q"])
    def test_builds_the_map_from_nested_lists(self, f):
        v = DSV.make(f, 2, 1, [[1, 0]], [[0], [0]])
        f0, f1 = [[3, 0], [2, -1]], [[3]]
        built = DSVMap.make(v, v, f0, f1)
        assert built == DSVMap(v, v, tuple(tuple(map(f.of, row)) for row in f0), ((f.of(3),),))
        assert all(type(x) is type(f.zero()) for row in built.f0 + built.f1 for x in row)

    def test_refuses_a_wrong_shape(self):
        v = DSV.make(F5, 2, 1, [[1, 0]], [[0], [0]])
        with pytest.raises(ValueError, match="expected a 2x2 matrix"):
            DSVMap.make(v, v, [[3, 0]], [[3]])
        with pytest.raises(ValueError, match="expected a 1x1 matrix"):
            DSVMap.make(v, v, [[3, 0], [2, 4]], [])

    def test_refuses_a_map_that_is_not_a_chain_map(self):
        v = DSV.make(F5, 2, 1, [[1, 0]], [[0], [0]])
        with pytest.raises(ValueError, match="does not commute with d0"):
            DSVMap.make(v, v, [[1, 0], [0, 1]], [[2]])


@st.composite
def field_matrices(draw, square=False):
    """(field, rows, cols, matrix) over Q, F2, F3 or F5, at most 6x6, zero-heavy
    so that rank deficits are common."""
    f = draw(st.sampled_from((QQ, Field(2), Field(3), Field(5))))
    rows = draw(st.integers(0, 6))
    cols = rows if square else draw(st.integers(0, 6))
    values = (0, 0, 0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3)) if f.char == 0 else (0, 0, 1, 2, 3, 4)
    entry = st.sampled_from(values).map(f.of)
    m = tuple(tuple(draw(entry) for _ in range(cols)) for _ in range(rows))
    return f, rows, cols, m


class TestFieldElimination:
    """rank, kernel_basis and invert, all built on exact_linalg.rref, and
    the dense oracles' solve, built on rref_dense."""

    @given(field_matrices())
    @settings(max_examples=150, deadline=None)
    def test_kernel_basis(self, case):
        f, rows, cols, a = case
        basis = kernel_basis(f, a, cols)
        assert len(basis) == cols - rank(f, a)
        for v in basis:
            assert oracles.apply(f, a, v) == [f.zero()] * rows
        assert rank(f, tuple(map(tuple, basis))) == len(basis)

    @given(field_matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_solve(self, case, data):
        f, rows, cols, a = case
        values = st.integers(-3, 3).map(f.of)
        if data.draw(st.booleans()):
            b = oracles.apply(f, a, [data.draw(values) for _ in range(cols)])
        else:
            b = [data.draw(values) for _ in range(rows)]
        x = oracles.solve(f, a, b, cols)
        augmented = tuple(row + (bv,) for row, bv in zip(a, b))
        assert (x is None) == (rank(f, augmented) > rank(f, a))
        if x is not None:
            assert len(x) == cols and oracles.apply(f, a, x) == b

    @given(field_matrices(square=True))
    @settings(max_examples=150, deadline=None)
    def test_invert(self, case):
        f, n, _, a = case
        inv = invert(f, a)
        assert (inv is None) == (rank(f, a) < n)
        if inv is not None:
            assert mat_mul(f, a, inv) == identity(f, n)


FIELDS = (Field(2), F5, Field(2**61 - 1), QQ)


def _entries(f):
    """Zero-heavy field elements, with large ones over F_(2^61-1) and
    fractions over Q."""
    if f.char == 0:
        values = (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-7, 3), Fraction(22, 7))
    else:
        values = (0, 0, 0, 1, -1, 2, 3, 2**40 + 3, 2**60)
    return st.sampled_from(values).map(f.of)


@st.composite
def sparse_matrices(draw, f, rows, cols):
    """rows x cols; each row is zero, a unit vector or zero-heavy random."""
    out = []
    for _ in range(rows):
        kind = draw(st.sampled_from(("zero", "unit", "random", "random")))
        if kind == "zero" or not cols:
            out.append((f.zero(),) * cols)
        elif kind == "unit":
            j = draw(st.integers(0, cols - 1))
            out.append(tuple(f.one() if c == j else f.zero() for c in range(cols)))
        else:
            out.append(tuple(draw(_entries(f)) for _ in range(cols)))
    return tuple(out)


@st.composite
def kronecker_sparse(draw, f, rows, cols, n):
    """A sparse_matrices draw, or for n > 1 its Kronecker product with I_n
    on either side (rows * n x cols * n), as in tensor products and
    chain-map systems."""
    m = draw(sparse_matrices(f, rows, cols))
    if n == 1:
        return m
    ident = identity(f, n)
    return oracles.kron(f, m, ident) if draw(st.booleans()) else oracles.kron(f, ident, m)


@st.composite
def dsv_maps(draw):
    """A random DSV map over one of FIELDS; V and W may have a zero
    dimension, and W = V half the time so that quasi-isomorphisms occur."""
    f = draw(st.sampled_from(FIELDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = [DSV(f, 0, 0, (), ()), DSV.unit(f), DSV.odd_line(f), DSV.make(f, 2, 0, [], [[], []])]
    v = rng.choice(pool) if rng.random() < 0.2 else _random_dsv(f, rng)
    w = v if rng.random() < 0.5 else (rng.choice(pool) if rng.random() < 0.2 else _random_dsv(f, rng))
    return _random_dsv_map(f, v, w, rng)


def _with_dense_kernels(cones=None):
    """The dense product, negation, cone assembly and rref of
    tests/oracles.py in place of dsv's row-sparse ones; each map whose cone
    the dense assembly builds is appended to cones."""
    cones = [] if cones is None else cones

    def dense_cone(fmap):
        cones.append(fmap)
        c = oracles.mapping_cone_dense(fmap)
        return c.dim0, c.dim1, c.d0, c.d1

    return mock.patch.multiple(
        dsv,
        _product=oracles.product_dense,
        _neg=oracles.neg_dense,
        rref=oracles.rref_dense,
        _cone=dense_cone,
    )


class TestSparseKernelsAgainstDenseOracles:
    """The row-sparse kernels give the dense ones' results entry for entry,
    with the entries' types, over F2, F5, F_(2^61-1) and Q."""

    @given(st.sampled_from(FIELDS), st.data())
    @settings(max_examples=300, deadline=None)
    def test_product(self, f, data):
        n = data.draw(st.sampled_from((1, 1, 2, 3)))
        rows, inner, cols = (data.draw(st.integers(0, 4)) for _ in range(3))
        a = data.draw(kronecker_sparse(f, rows, inner, n))
        b = data.draw(kronecker_sparse(f, inner, cols, n))
        got = dsv._product(f, a, b, rows * n, cols * n)
        assert _typed(got) == _typed(oracles.product_dense(f, a, b, rows * n, cols * n))
        assert dsv.is_zero_matrix(got) == all(x == 0 for row in got for x in row)

    @given(st.sampled_from(FIELDS), st.data())
    @settings(max_examples=300, deadline=None)
    def test_rref_and_invert(self, f, data):
        n = data.draw(st.sampled_from((1, 1, 2, 3)))
        rows, ncols, extra = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4)), data.draw(st.integers(0, 2))
        m = data.draw(kronecker_sparse(f, rows, ncols + extra, n))
        got, ref = rref(m, ncols * n, f.char), oracles.rref_dense(m, ncols * n, f.char)
        assert (_typed(got[0]), got[1]) == (_typed(ref[0]), ref[1])
        square = data.draw(kronecker_sparse(f, ncols, ncols, n))
        inverse = invert(f, square)
        with _with_dense_kernels():
            expected = invert(f, square)
        assert (inverse is None) == (expected is None)
        if inverse is not None:
            assert _typed(inverse) == _typed(expected)
            assert mat_mul(f, square, inverse) == identity(f, ncols * n)

    @given(dsv_maps())
    @settings(max_examples=150, deadline=None)
    def test_assembled_matrices(self, fmap):
        f, v, w = fmap.source.field, fmap.source, fmap.target
        for new, old in (
            (tensor(v, w), oracles.tensor_dense(v, w)),
            (DSV(f, *dsv._cone(fmap)), oracles.mapping_cone_dense(fmap)),
        ):
            assert (new.dim0, new.dim1) == (old.dim0, old.dim1)
            assert (_typed(new.d0), _typed(new.d1)) == (_typed(old.d0), _typed(old.d1))
        assert _typed(chain_map_system(v, w)) == _typed(oracles.chain_map_system_dense(v, w))
        s = direct_sum(v, w)
        block = oracles.block
        assert _typed(s.d0) == _typed(block(f, [[v.d0, zeros(f, v.dim1, w.dim0)], [zeros(f, w.dim1, v.dim0), w.d0]]))
        assert _typed(s.d1) == _typed(block(f, [[v.d1, zeros(f, v.dim0, w.dim1)], [zeros(f, w.dim0, v.dim1), w.d1]]))

    @given(dsv_maps())
    @settings(max_examples=150, deadline=None)
    def test_quasi_iso_and_homotopy_witness(self, fmap):
        new = (is_quasi_iso(fmap), homotopy_inverse(fmap))
        cones = []
        with _with_dense_kernels(cones):
            old = (is_quasi_iso(fmap), homotopy_inverse(fmap))
        assert cones == [fmap, fmap]  # both read the dense cone
        assert new[0] == old[0] == (new[1] is not None) == (old[1] is not None)
        if new[1] is not None:
            (g, *hs), (g_old, *hs_old) = new[1], old[1]
            assert [_typed(m) for m in (g.f0, g.f1, *hs)] == [_typed(m) for m in (g_old.f0, g_old.f1, *hs_old)]
            _check_homotopy_witness(fmap, new[1])


class TestTensor:
    def test_unit_is_monoidal_unit(self):
        u = DSV.unit(QQ)
        v = _random_dsv(QQ, random.Random(0))
        t = tensor(u, v)
        assert (t.dim0, t.dim1) == (v.dim0, v.dim1)
        assert homology(t) == homology(v)

    def test_acyclic_tensor_anything_is_acyclic(self):
        v = acyclic(QQ)
        assert homology(tensor(v, v)) == (0, 0)
        w = _random_dsv(QQ, random.Random(1))
        assert homology(tensor(v, w)) == (0, 0)

    def test_dimension_bookkeeping(self):
        a = DSV(QQ, 2, 1, zeros(QQ, 1, 2), zeros(QQ, 2, 1))
        b = DSV(QQ, 1, 1, zeros(QQ, 1, 1), zeros(QQ, 1, 1))
        t = tensor(a, b)
        assert (t.dim0, t.dim1) == (3, 3)

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            tensor(DSV.unit(QQ), DSV.unit(F5))

    def test_invariants_hold_after_constructors(self):
        rng = random.Random(2)
        for _ in range(20):
            v = _random_dsv(F5, rng)
            w = _random_dsv(F5, rng)
            tensor(v, w)       # constructor validates d d = 0
            direct_sum(v, w)


class TestDirectSum:
    def test_unit_sum_zero(self):
        zero = DSV(QQ, 0, 0, (), ())
        u = DSV.unit(QQ)
        s = direct_sum(u, zero)
        assert (s.dim0, s.dim1) == (1, 0)

    def test_dims_add(self):
        rng = random.Random(3)
        v, w = _random_dsv(QQ, rng), _random_dsv(QQ, rng)
        s = direct_sum(v, w)
        assert (s.dim0, s.dim1) == (v.dim0 + w.dim0, v.dim1 + w.dim1)

    def test_tensor_distributes_on_homology(self):
        rng = random.Random(4)
        u, v, w = (_random_dsv(QQ, rng) for _ in range(3))
        lhs = tensor(u, direct_sum(v, w))
        rhs = direct_sum(tensor(u, v), tensor(u, w))
        assert homology(lhs) == homology(rhs)


class TestHomology:
    def test_unit_and_acyclic(self):
        assert homology(DSV.unit(QQ)) == (1, 0)
        assert homology(acyclic(QQ)) == (0, 0)

    def test_random_cross_check_with_rank_oracle(self):
        # independent oracle: dim H = dim - rank(d0) - rank(d1) via row reduction
        rng = random.Random(5)
        from supercoh.dsv import rank

        for _ in range(30):
            v = _random_dsv(F5, rng)
            h0, h1 = homology(v)
            r0, r1 = rank(F5, v.d0), rank(F5, v.d1)
            assert h0 == v.dim0 - r0 - r1
            assert h1 == v.dim1 - r0 - r1
            assert h0 >= 0 and h1 >= 0


class TestQuasiIsoAndHomotopy:
    def test_identity(self):
        v = _random_dsv(F5, random.Random(6))
        m = DSVMap.identity_map(v)
        assert is_quasi_iso(m)
        _check_homotopy_witness(m, homotopy_inverse(m))

    def test_zero_map_between_units(self):
        u = DSV.unit(F5)
        z = DSVMap(u, u, ((0,),), ())
        assert not is_quasi_iso(z)
        assert homotopy_inverse(z) is None

    def test_inclusion_into_sum_with_acyclic(self):
        u = DSV.unit(F5)
        target = direct_sum(u, acyclic(F5))
        inc = DSVMap(u, target, ((1,), (0,)), ((),))
        assert is_quasi_iso(inc)
        assert homotopy_inverse(inc) is not None

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(7)
        both = [0, 0]
        for _ in range(120):
            v = _random_dsv(F5, rng)
            w = v if rng.random() < 0.5 else _random_dsv(F5, rng)
            fm = _random_dsv_map(F5, v, w, rng)
            qi = is_quasi_iso(fm)
            hi = homotopy_inverse(fm)
            assert qi == (hi is not None)
            both[qi] += 1
            if hi is not None:
                _check_homotopy_witness(fm, hi)
        assert both[0] > 0 and both[1] > 0  # the sample exercises both branches


def _typed(m):
    """A matrix with the type of every entry, so Fraction and int differ."""
    return tuple(tuple((type(x), x) for x in row) for row in m)


class TestAgainstOracles:
    """Quasi-isos, the existence of homotopy witnesses, braidings and random
    maps agree exactly with the implementations kept in tests/oracles.py."""

    def test_random_maps_all_fields(self):
        rng = random.Random(13)
        quasi_isos = 0
        for f in (QQ, Field(2), Field(3), F5):
            zero = DSV(f, 0, 0, (), ())
            pool = [zero, DSV.unit(f), DSV.odd_line(f)]
            for trial in range(40):
                v = rng.choice(pool) if trial % 4 == 0 else _random_dsv(f, rng)
                w = v if rng.random() < 0.4 else (rng.choice(pool) if trial % 5 == 0 else _random_dsv(f, rng))
                seed = rng.random()
                fm = _random_dsv_map(f, v, w, r_new := random.Random(seed))
                old = oracles._random_dsv_map(f, v, w, r_old := random.Random(seed))
                assert (_typed(fm.f0), _typed(fm.f1)) == (_typed(old.f0), _typed(old.f1))
                assert r_new.getstate() == r_old.getstate()
                qi = is_quasi_iso(fm)
                assert qi == oracles.is_quasi_iso(fm)
                quasi_isos += qi
                new, ref = homotopy_inverse(fm), oracles.homotopy_inverse(fm)
                assert (new is None) == (ref is None)
                if new is not None:
                    # witnesses are not unique: the oracle's solves a linear
                    # system, this one is read off a contraction of the cone
                    _check_homotopy_witness(fm, new)
                    _check_homotopy_witness(fm, ref)
                    g, *hs = new
                    assert {type(x) for m in (g.f0, g.f1, *hs) for row in m for x in row} <= {type(f.zero())}
                sw, sw_ref = swap_map(v, w), oracles.swap_map(v, w)
                assert (_typed(sw.f0), _typed(sw.f1)) == (_typed(sw_ref.f0), _typed(sw_ref.f1))
        assert 0 < quasi_isos < 160  # both answers are exercised


class TestCone:
    def test_cone_of_a_checked_map_has_square_zero(self):
        # is_quasi_iso and homotopy_inverse read the cone's blocks without
        # re-proving d^2 = 0: it must follow from the checks of V, W and f
        rng = random.Random(48)
        for f in (Field(2), Field(3), F5, QQ):
            for _ in range(25):
                v = _random_dsv(f, rng)
                w = v if rng.random() < 0.4 else _random_dsv(f, rng)
                c = DSV(f, *dsv._cone(_random_dsv_map(f, v, w, rng)))
                assert all(x == 0 for row in _product(f, c.d1, c.d0, c.dim0) for x in row)
                assert all(x == 0 for row in _product(f, c.d0, c.d1, c.dim1) for x in row)


def _product(f, a, b, n):
    """n x n product a @ b, summed directly (independent of dsv.mat_mul)."""
    return [[f.of(sum(a[i][k] * b[k][j] for k in range(len(b)))) for j in range(n)] for i in range(n)]


def _check_homotopy_witness(fmap, witness):
    """All four homotopy equations, entrywise:
    f0 g0 - I = d1 t0 + t1 d0 on W_0,  f1 g1 - I = d0 t1 + t0 d1 on W_1,
    g0 f0 - I = d1 u0 + u1 d0 on V_0,  g1 f1 - I = d0 u1 + u0 d1 on V_1."""
    f = fmap.source.field
    g, t0, t1, u0, u1 = witness
    v, w = fmap.source, fmap.target
    for comp, d_first, h_first, h_second, d_second, n in (
        ((fmap.f0, g.f0), w.d1, t0, t1, w.d0, w.dim0),
        ((fmap.f1, g.f1), w.d0, t1, t0, w.d1, w.dim1),
        ((g.f0, fmap.f0), v.d1, u0, u1, v.d0, v.dim0),
        ((g.f1, fmap.f1), v.d0, u1, u0, v.d1, v.dim1),
    ):
        lhs = _product(f, *comp, n)
        first = _product(f, d_first, h_first, n)
        second = _product(f, h_second, d_second, n)
        for i in range(n):
            for j in range(n):
                assert f.of(lhs[i][j] - (i == j)) == f.of(first[i][j] + second[i][j])


class TestEulerChar:
    def test_values(self):
        assert euler_char(DSV.unit(QQ)) == 1
        assert euler_char(acyclic(QQ)) == 0

    def test_laws(self):
        rng = random.Random(9)
        for _ in range(30):
            v, w = _random_dsv(QQ, rng), _random_dsv(QQ, rng)
            assert euler_char(tensor(v, w)) == euler_char(v) * euler_char(w)
            assert euler_char(direct_sum(v, w)) == euler_char(v) + euler_char(w)
            h0, h1 = homology(v)
            assert euler_char(v) == h0 - h1


class TestEpsilon:
    def test_point_complex(self):
        e = BoundedChainComplex.make(QQ, 0, (1,), [])
        v = epsilon(e)
        assert (v.dim0, v.dim1) == (1, 0)
        assert homology(v) == (1, 0)

    def test_two_term_identity(self):
        e = BoundedChainComplex.make(QQ, 0, (1, 1), [[[1]]])
        assert homology(epsilon(e)) == (0, 0)

    def test_three_term(self):
        e = BoundedChainComplex.make(QQ, 0, (1, 2, 1), [[[1, 1]], [[1], [-1]]])
        v = epsilon(e)
        assert homology(v) == (0, 0)
        assert euler_char(v) == e.euler_characteristic()

    def test_negative_degrees_fold_correctly(self):
        e = BoundedChainComplex.make(QQ, -1, (1, 1), [[[0]]])
        v = epsilon(e)
        # degree -1 is odd, degree 0 is even
        assert (v.dim0, v.dim1) == (1, 1)

    def test_alternating_sum_randomized(self):
        rng = random.Random(10)
        for _ in range(100):
            e = _random_bounded_complex(QQ, rng)
            assert euler_char(epsilon(e)) == e.euler_characteristic()

    def test_boundary_condition_enforced(self):
        with pytest.raises(ValueError):
            BoundedChainComplex.make(QQ, 0, (1, 1, 1), [[[1]], [[1]]])

    def test_homology_folds_the_complex(self):
        # H_0 of the fold is the homology of the even degrees, H_1 of the odd
        rng = random.Random(11)
        for f in (QQ, F5):
            for _ in range(40):
                e = _random_bounded_complex(f, rng)
                ranks = [0] + [rank(f, b) for b in e.boundaries] + [0]  # ranks[i + 1]: i + 1 -> i
                h = [d - ranks[i] - ranks[i + 1] for i, d in enumerate(e.dims)]
                even = sum(x for i, x in enumerate(h) if (e.lowest + i) % 2 == 0)
                assert homology(epsilon(e)) == (even, sum(h) - even)


class TestSwap:
    def test_unit_sign(self):
        s = swap_map(DSV.unit(QQ), DSV.unit(QQ))
        assert s.f0[0][0] == Fraction(1)

    def test_odd_line_sign(self):
        s = swap_map(DSV.odd_line(QQ), DSV.odd_line(QQ))
        assert s.f0[0][0] == Fraction(-1)

    def test_involution_random(self):
        rng = random.Random(11)
        for _ in range(20):
            v, w = _random_dsv(QQ, rng), _random_dsv(QQ, rng)
            sw, ws = swap_map(v, w), swap_map(w, v)
            c0 = mat_mul(QQ, ws.f0, sw.f0)
            c1 = mat_mul(QQ, ws.f1, sw.f1)
            assert c0 == identity(QQ, len(c0)) or not c0
            assert c1 == identity(QQ, len(c1)) or not c1

    def test_swap_is_valid_map(self):
        # DSVMap construction already verifies commutation with differentials
        rng = random.Random(12)
        for _ in range(10):
            swap_map(_random_dsv(F5, rng), _random_dsv(F5, rng))
