from itertools import product as iproduct
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    F2Solver,
    ScanOpLogSolver,
    cokernel_dense,
    f2_rows,
    smith_decomposition,
    smith_normal_form,
)
from oracles import f2_kernel as f2_kernel_scan

from supercoh import corpus, exact_linalg
from supercoh.exact_linalg import (
    AbelianGroupPresentation,
    IntMatrix,
    SparseMatrix,
    _OpLogSolver,
    cokernel,
    direct_sum,
    f2_kernel,
    is_prime,
    normalize_factors,
    solve_mod,
)
from supercoh.simplicial import _coboundary, coboundary_matrix


def mat(rows):
    return IntMatrix.from_rows(rows)


# mostly zeros, so that Markowitz costs differ and pivots cause fill-in
sparse_matrices = st.integers(0, 9).flatmap(
    lambda r: st.integers(0, 9).flatmap(
        lambda c: st.lists(
            st.sampled_from((0, 0, 0, 0, 1, -1, 2, -2, 3, 4, -6)), min_size=r * c, max_size=r * c
        ).map(lambda e: IntMatrix(r, c, tuple(e)))
    )
)

small_matrices = st.integers(0, 4).flatmap(
    lambda r: st.integers(0, 4).flatmap(
        lambda c: st.lists(
            st.integers(-9, 9), min_size=r * c, max_size=r * c
        ).map(lambda e: IntMatrix(r, c, tuple(e)))
    )
)


COKERNEL_MODULI = (0, 2, 3, 4, 6, 12)


class TestSmithNormalForm:
    def test_zero_matrix(self):
        u, d, v = smith_normal_form(mat([[0, 0], [0, 0]]))
        assert d.is_zero()

    def test_identity(self):
        u, d, v = smith_normal_form(IntMatrix.identity(3))
        assert d.entries == IntMatrix.identity(3).entries

    def test_diag_2_3(self):
        m = mat([[2, 0], [0, 3]])
        u, d, v = smith_normal_form(m)
        assert d.to_rows() == [[1, 0], [0, 6]]
        assert u.mul(m).mul(v).entries == d.entries

    def test_empty(self):
        u, d, v = smith_normal_form(IntMatrix(0, 0, ()))
        assert d.rows == 0 and d.cols == 0

    @given(small_matrices)
    @settings(max_examples=80, deadline=None)
    def test_decomposition_properties(self, m):
        dec = smith_decomposition(m)
        assert dec.u.mul(m).mul(dec.v).entries == dec.d.entries
        # unimodularity: exact integer inverses exist
        assert dec.u.mul(dec.u_inv).entries == IntMatrix.identity(m.rows).entries
        assert dec.v.mul(dec.v_inv).entries == IntMatrix.identity(m.cols).entries
        # diagonal with divisibility chain
        for i in range(dec.d.rows):
            for j in range(dec.d.cols):
                if i != j:
                    assert dec.d.row(i)[j] == 0
        diag = [x for x in dec.diagonal() if x]
        assert all(x > 0 for x in diag)
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))

    def test_deterministic(self):
        m = mat([[4, 6], [8, 10]])
        assert smith_normal_form(m) == smith_normal_form(m)


class TestSolveMod:
    def test_identity_system(self):
        x = solve_mod(IntMatrix.identity(3), [5, -2, 7], 0)
        assert x == [5, -2, 7]

    def test_parity_obstruction(self):
        assert solve_mod(mat([[2]]), [1], 0) is None

    def test_mod3(self):
        assert solve_mod(mat([[2]]), [1], 3) == [2]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_mod(mat([[1, 2]]), [1, 2], 0)

    @given(small_matrices, st.integers(0, 8), st.data())
    @settings(max_examples=120, deadline=None)
    def test_solutions_verify(self, m, n, data):
        if n == 1 or n == 5 or n == 7:
            n = 0
        x0 = data.draw(st.lists(st.integers(-4, 4), min_size=m.cols, max_size=m.cols))
        b = m.mul_vector(x0)
        x = solve_mod(m, b, n)
        assert x is not None
        mx = m.mul_vector(x)
        if n == 0:
            assert mx == b
        else:
            assert all((p - q) % n == 0 for p, q in zip(mx, b))

    @given(small_matrices, st.data())
    @settings(max_examples=60, deadline=None)
    def test_no_solution_is_genuine(self, m, data):
        if m.cols > 3 or m.rows == 0:
            return
        n = data.draw(st.sampled_from([2, 3, 4]))
        b = data.draw(st.lists(st.integers(0, n - 1), min_size=m.rows, max_size=m.rows))
        x = solve_mod(m, b, n)
        if x is None:
            for cand in iproduct(range(n), repeat=m.cols):
                mx = m.mul_vector(list(cand))
                assert not all((p - q) % n == 0 for p, q in zip(mx, b))


class TestOpLogFactorization:
    """The sparse elimination with replayable op logs, cross-checked densely."""

    @given(small_matrices)
    @settings(max_examples=80, deadline=None)
    def test_kernel_and_transforms(self, m):
        from supercoh.exact_linalg import _OpLogSolver

        solver = _OpLogSolver(m)
        # kernel vectors really lie in the kernel and have full rank
        free = len(solver.free_cols)
        basis = [solver.kernel_combination([int(i == t) for i in range(free)]) for t in range(free)]
        for vec in basis:
            assert m.mul_vector(vec) == [0] * m.rows
        assert len(basis) == m.cols - len(solver.pivots)
        # free_coordinates reconstructs kernel vectors exactly
        for j, vec in zip(solver.free_cols, basis):
            coords = solver.free_coordinates(vec)
            assert coords is not None
            rebuilt = [0] * m.cols
            for c, kv in zip(coords, basis):
                for i in range(m.cols):
                    rebuilt[i] += c * kv[i]
            assert rebuilt == vec
        # u_inverse_column inverts the logged row ops
        for i in range(m.rows):
            col = solver.u_inverse_column(i)
            replayed = list(col)
            for op in solver.row_ops:
                if op[0] == "axpy":
                    _, src, dst, q = op
                    replayed[dst] -= q * replayed[src]
                else:
                    replayed[op[1]] = -replayed[op[1]]
            assert replayed == [1 if r == i else 0 for r in range(m.rows)]

    @given(small_matrices, st.data())
    @settings(max_examples=60, deadline=None)
    def test_free_coordinates_iff_in_kernel(self, m, data):
        from supercoh.exact_linalg import _OpLogSolver

        solver = _OpLogSolver(m)
        vec = data.draw(st.lists(st.integers(-5, 5), min_size=m.cols, max_size=m.cols))
        coords = solver.free_coordinates(vec)
        in_kernel = m.mul_vector(vec) == [0] * m.rows
        assert (coords is not None) == in_kernel

    @given(st.one_of(small_matrices, sparse_matrices))
    @settings(max_examples=200, deadline=None)
    def test_ends_in_smith_normal_form(self, m):
        dec = exact_linalg.smith_decomposition(m)
        values = [d for _, _, d in dec.pivots]
        # positive, each dividing the next, so ascending too
        assert all(d > 0 for d in values)
        assert all(b % a == 0 for a, b in zip(values, values[1:]))
        # U, V and U^-1 column by column from the logged ops, then U*M*V = D
        columns = lambda vecs, n: IntMatrix(n, n, tuple(v[i] for i in range(n) for v in vecs))
        unit = lambda n: IntMatrix.identity(n).to_rows()
        u = columns([dec.row_transform(e) for e in unit(m.rows)], m.rows)
        v = columns([dec.col_transform(e) for e in unit(m.cols)], m.cols)
        u_inv = columns([dec.u_inverse_column(i) for i in range(m.rows)], m.rows)
        d = [0] * (m.rows * m.cols)
        for i, j, x in dec.pivots:
            d[i * m.cols + j] = x
        assert u.mul(m).mul(v).entries == tuple(d)
        assert u.mul(u_inv) == IntMatrix.identity(m.rows)

    def test_big_entry_stress(self):
        import random

        from supercoh.exact_linalg import _OpLogSolver

        rng = random.Random(99)
        for _ in range(20):
            r, c = rng.randint(3, 8), rng.randint(3, 8)
            m = IntMatrix(r, c, tuple(rng.randint(-999, 999) for _ in range(r * c)))
            x0 = [rng.randint(-50, 50) for _ in range(c)]
            b = m.mul_vector(x0)
            for n in (0, 12, 360):
                x = solve_mod(m, b, n)
                assert x is not None
                mx = m.mul_vector(x)
                if n == 0:
                    assert mx == b
                else:
                    assert all((p - q) % n == 0 for p, q in zip(mx, b))


class TestHeapPivoting:
    """The heap picks the pivot the full scan picks, so the op logs agree."""

    @staticmethod
    def assert_same_factorization(m):
        heap, scan = _OpLogSolver(m), ScanOpLogSolver(m)
        assert heap.pivots == scan.pivots
        assert heap.row_ops == scan.row_ops
        assert heap.col_ops == scan.col_ops
        assert (heap.zero_rows, heap.free_cols) == (scan.zero_rows, scan.free_cols)

    @given(sparse_matrices)
    @settings(max_examples=200, deadline=None)
    def test_random_sparse(self, m):
        self.assert_same_factorization(m)

    @given(small_matrices)
    @settings(max_examples=60, deadline=None)
    def test_random_dense(self, m):
        self.assert_same_factorization(m)

    @pytest.mark.parametrize("name", ["s1", "t2", "klein", "rp2", "s1xs1"])
    def test_coboundaries_and_mod_n_stacks(self, name):
        x = corpus.complex_by_name(name)
        for q in range(x.dim):
            d = coboundary_matrix(x, q)
            self.assert_same_factorization(d)
            self.assert_same_factorization(d.hstack(IntMatrix.diagonal([4] * d.rows)))


def test_a_chain_of_pivots_logs_no_smith_op(monkeypatch):
    """The unreduced [delta^1 | 2I] of rp2xrp2 has 902 pivots of value 2, a
    chain already, so the Smith pass adds no op to the elimination's logs."""
    stack = exact_linalg.modulus_stack(_coboundary(corpus.complex_by_name("rp2xrp2"), 1), 2)
    monkeypatch.setattr(_OpLogSolver, "_chain", lambda self: None)
    solver = _OpLogSolver(stack)
    monkeypatch.undo()
    assert [d for _, _, d in solver.pivots].count(2) == 902
    logs = (list(solver.row_ops), list(solver.col_ops))
    solver._chain()
    assert (solver.row_ops, solver.col_ops) == logs


class TestSparseMatrix:
    @given(small_matrices)
    @settings(max_examples=40, deadline=None)
    def test_dense_roundtrip_and_transpose(self, m):
        s = SparseMatrix.from_dense(m)
        assert s.to_dense() == m
        columns = tuple(x for j in range(m.cols) for x in m.entries[j :: m.cols])
        assert s.transpose().to_dense() == IntMatrix(m.cols, m.rows, columns)

    @given(small_matrices, st.data())
    @settings(max_examples=60, deadline=None)
    def test_solves_like_the_dense_matrix(self, m, data):
        b = data.draw(st.lists(st.integers(-5, 5), min_size=m.rows, max_size=m.rows))
        s = SparseMatrix.from_dense(m)
        for n in (0, 2, 4, 6):
            assert solve_mod(s, b, n) == solve_mod(m, b, n)

    def test_factorization_is_cached_on_the_matrix(self):
        s = SparseMatrix.from_dense(mat([[2, 1], [0, 3]]))
        assert s.solver() is s.solver()


# (ncols, rows) with every row below 2**ncols: 0 x k, k x 0 and single rows included
bit_matrices = st.integers(0, 12).flatmap(
    lambda c: st.tuples(st.just(c), st.lists(st.integers(0, 2**c - 1), max_size=12))
)


class TestF2Echelon:
    """f2_kernel, which runs rref over F2, against the scanning echelon of
    the oracles."""

    @given(bit_matrices)
    @settings(max_examples=300, deadline=None)
    def test_kernel(self, m):
        c, rows = m
        assert f2_kernel(rows, c) == f2_kernel_scan(rows, c)

    @given(bit_matrices, st.integers(0, 2**12 - 1))
    @settings(max_examples=300, deadline=None)
    def test_solve(self, m, b_bits):
        c, rows = m
        a = SparseMatrix(len(rows), c, [{j: 1 for j in range(c) if row >> j & 1} for row in rows])
        b = [(b_bits >> i) & 1 for i in range(len(rows))]
        x = solve_mod(a, b, 2)
        assert (x is None) == (F2Solver(a).solve(b) is None)
        if x is not None:
            assert all((p - q) % 2 == 0 for p, q in zip(a.to_dense().mul_vector(x), b))

    def test_coboundaries(self, rp2xrp2):
        from supercoh.simplicial import _coboundary

        for q in range(rp2xrp2.dim + 1):
            rows, m0 = f2_rows(_coboundary(rp2xrp2, q)), rp2xrp2.simplex_count(q)
            assert f2_kernel(rows, m0) == f2_kernel_scan(rows, m0)


class TestPrimes:
    def test_agrees_with_trial_division(self):
        def slow(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert [n for n in range(3000) if is_prime(n)] == [n for n in range(3000) if slow(n)]

    def test_large_and_adversarial(self):
        assert is_prime(2**61 - 1)
        assert is_prime(1_000_000_007)
        assert not is_prime((2**31 - 1) * (2**61 - 1))
        # Carmichael numbers and strong pseudoprimes to many small bases
        for n in (561, 41041, 3215031751, 3825123056546413051, 318665857834031151167461):
            assert not is_prime(n)


class TestCokernel:
    def test_z2(self):
        assert cokernel(mat([[2]]), 0) == AbelianGroupPresentation(0, (2,))

    def test_free(self):
        assert cokernel(IntMatrix(1, 0, ()), 0) == AbelianGroupPresentation(1, ())

    def test_diag_2_3(self):
        assert cokernel(mat([[2, 0], [0, 3]]), 0) == AbelianGroupPresentation(0, (6,))

    def test_mod_n(self):
        # (Z/4)^1 / span(2) = Z/2
        assert cokernel(mat([[2]]), 4) == AbelianGroupPresentation(0, (2,))

    @pytest.mark.parametrize("n", COKERNEL_MODULI)
    @given(m=st.one_of(small_matrices, sparse_matrices))
    @settings(max_examples=60, deadline=None)
    def test_against_the_dense_snf(self, n, m):
        assert cokernel(m, n) == cokernel_dense(m, n)
        assert cokernel(SparseMatrix.from_dense(m), n) == cokernel_dense(m, n)

    def test_display(self):
        assert str(AbelianGroupPresentation(0, (4, 8))) == "Z/8 ⊕ Z/4"
        assert str(AbelianGroupPresentation(1, ())) == "Z"
        assert str(AbelianGroupPresentation.trivial()) == "0"

    @given(small_matrices, st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, m, rng):
        pres = cokernel(m, 0)
        rows = m.to_rows()
        rng.shuffle(rows)
        perm = list(range(m.cols))
        rng.shuffle(perm)
        shuffled = [[row[j] for j in perm] for row in rows]
        m2 = IntMatrix.from_rows(shuffled) if rows else m
        assert cokernel(m2, 0) == pres


class TestSympySmithOracle:
    """The dense SNF oracle and cokernel against sympy's SNF, which shares no
    code with either."""

    @given(
        st.integers(1, 5).flatmap(
            lambda r: st.integers(1, 5).flatmap(
                lambda c: st.lists(st.integers(-9, 9), min_size=r * c, max_size=r * c).map(
                    lambda e: IntMatrix(r, c, tuple(e))
                )
            )
        ),
        st.sampled_from(COKERNEL_MODULI),
    )
    @settings(max_examples=80, deadline=None)
    def test_diagonal_and_cokernel(self, m, n):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        def invariant_factors(a):
            d = sympy_snf(sympy.Matrix(a.to_rows()), domain=sympy.ZZ)
            return sorted(abs(int(d[i, i])) for i in range(min(a.rows, a.cols)) if d[i, i])

        expected = invariant_factors(m)
        assert [x for x in smith_decomposition(m).diagonal() if x] == expected
        assert [d for _, _, d in exact_linalg.smith_decomposition(m).pivots] == expected
        if n:
            expected = invariant_factors(m.hstack(IntMatrix.diagonal([n] * m.rows)))
        assert cokernel(m, n) == AbelianGroupPresentation(
            m.rows - len(expected), tuple(x for x in expected if x > 1)
        )


class TestPresentations:
    def test_normalize_factors(self):
        assert normalize_factors([2, 3]) == (6,)
        assert normalize_factors([2, 4]) == (2, 4)
        assert normalize_factors([6, 4]) == (2, 12)
        assert normalize_factors([]) == ()
        p, q = 2**61 - 1, 2**61 - 31
        assert normalize_factors([p * q, q, 1]) == (q, p * q)

    @given(st.lists(st.integers(1, 360), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_normalize_factors_by_prime_powers(self, orders):
        # the chain from trial-division prime powers, largest first per prime
        powers: dict[int, list[int]] = {}
        for d in orders:
            for r in range(2, d + 1):
                if d % r == 0 and all(r % s for s in range(2, r)):
                    part = 1
                    while d % (part * r) == 0:
                        part *= r
                    powers.setdefault(r, []).append(part)
        depth = max(map(len, powers.values()), default=0)
        chain = [
            prod(sorted(v, reverse=True)[t] for v in powers.values() if t < len(v)) for t in range(depth)
        ]
        assert normalize_factors(orders) == tuple(sorted(chain))

    def test_direct_sum(self):
        a = AbelianGroupPresentation(1, (2,))
        b = AbelianGroupPresentation(0, (3,))
        assert direct_sum(a, b) == AbelianGroupPresentation(1, (6,))

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            AbelianGroupPresentation(0, (3, 2))
        with pytest.raises(ValueError):
            AbelianGroupPresentation(0, (1,))
