"""Exact linear algebra over Z, Z/n and fields.

Everything here is arbitrary-precision.  Every integer elimination is one
engine: a sparse Markowitz-pivoted diagonalization that logs its row and
column operations and ends in Smith normal form.  It gives linear system
solving modulo n for every n (n = 0 means "over Z") and, from its pivots,
cokernel presentations of finitely generated abelian groups.  Every
elimination over a field is the other engine: one Gauss-Jordan `rref` over
F_p or, for p = 0, over Q, on dense rows, where each elimination updates
only the nonzero columns of the pivot row; F2 bitmask rows are unpacked
for it (f2_kernel).  All functions are pure and deterministic.  A
SparseMatrix keeps its own factorization, so repeated solves against it
reuse that.  Record is the base of every value class of the package.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd
from operator import attrgetter

_setattr = object.__setattr__


class Record:
    """Base of the frozen value classes: a record of the fields annotated on
    the subclass, in order, built with no dataclasses import.

    Cls(*values) or Cls(name=value, ...) sets the fields and then runs the
    subclass's __post_init__, which checks them and may replace one with
    object.__setattr__.  == holds only between instances of one class with
    equal fields, equal records hash equal, repr is Cls(name=value, ...),
    assignment raises AttributeError and pickle restores the instance dict.
    A class attribute that is not annotated is no field.
    """

    def __init_subclass__(cls):
        cls._fields = names = tuple(cls.__annotations__)
        cls._key = attrgetter(*names)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args += tuple(kwargs.pop(n) for n in names[len(args):] if n in kwargs)
            if kwargs or len(args) != len(names):
                raise TypeError(f"{type(self).__qualname__} takes the fields {', '.join(names)}")
        # not __dict__.update: object.__setattr__ keeps the values inline in
        # the instance, where CPython 3.11 and 3.12 read them about twice as fast
        for name, value in zip(names, args):
            _setattr(self, name, value)
        self.__post_init__()

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__qualname__}")

    __delattr__ = __setattr__


class IntMatrix(Record):
    """Dense integer matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")

    @classmethod
    def from_rows(cls, data) -> "IntMatrix":
        data = [list(row) for row in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        return cls(rows, cols, tuple(x for row in data for x in row))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def diagonal(cls, diag) -> "IntMatrix":
        diag = list(diag)
        n = len(diag)
        return cls(n, n, tuple(d if i == j else 0 for i in range(n) for j, d in enumerate(diag)))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        orows = other.to_rows()
        for i in range(self.rows):
            ri = self.row(i)
            acc = [0] * other.cols
            for k, a in enumerate(ri):
                if a:
                    rk = orows[k]
                    for j in range(other.cols):
                        acc[j] += a * rk[j]
            out.append(acc)
        if not out:
            return IntMatrix(0, other.cols, ())
        return IntMatrix.from_rows(out)

    def mul_vector(self, vec) -> list[int]:
        vec = list(vec)
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return [sum(a * x for a, x in zip(self.row(i), vec) if a) for i in range(self.rows)]

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        data = []
        for i in range(self.rows):
            data.append(list(self.row(i)) + list(other.row(i)))
        if not data:
            return IntMatrix(0, self.cols + other.cols, ())
        return IntMatrix.from_rows(data)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)


class AbelianGroupPresentation(Record):
    """Invariant-factor presentation Z^free_rank + Z/d1 + ... with d1 | d2 | ...

    Factors of 1 are excluded.  The trivial group is (0, ()).
    """

    free_rank: int
    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for d in self.invariant_factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")

    @classmethod
    def trivial(cls) -> "AbelianGroupPresentation":
        return cls(0, ())

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in reversed(self.invariant_factors))
        return " ⊕ ".join(parts) if parts else "0"


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the 13 prime bases up to 41: exact for every n below
    3.3e24 (Sorenson and Webster 2015), a strong probable-prime test above."""
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def normalize_factors(factors) -> tuple[int, ...]:
    """Rewrite an arbitrary list of cyclic orders as an invariant-factor
    chain: the cokernel of their diagonal matrix."""
    orders = [d for d in factors if d > 1]
    diagonal = SparseMatrix(len(orders), len(orders), [{i: d} for i, d in enumerate(orders)])
    return cokernel(diagonal, 0).invariant_factors


def direct_sum(*groups: AbelianGroupPresentation) -> AbelianGroupPresentation:
    free = sum(g.free_rank for g in groups)
    factors = [d for g in groups for d in g.invariant_factors]
    return AbelianGroupPresentation(free, normalize_factors(factors))


# ---------------------------------------------------------------------------
# Sparse matrices and the op-log factorization


class SparseMatrix:
    """Integer matrix kept as one {column: value} dict per row, zeros left out.

    Compared and hashed by identity.  A matrix caches its own factorization,
    so whoever keeps the matrix keeps it: a complex keeps its coboundaries.
    The row dicts must not be changed after construction.
    """

    __slots__ = ("rows", "cols", "data", "_solver")

    def __init__(self, rows: int, cols: int, data: list[dict[int, int]]):
        if len(data) != rows:
            raise ValueError("row count does not match the row data")
        self.rows = rows
        self.cols = cols
        self.data = data
        self._solver = None

    @classmethod
    def from_dense(cls, m: IntMatrix) -> "SparseMatrix":
        c = m.cols
        return cls(
            m.rows,
            c,
            [{j: x for j, x in enumerate(m.entries[i * c : (i + 1) * c]) if x} for i in range(m.rows)],
        )

    def to_dense(self) -> IntMatrix:
        entries = [0] * (self.rows * self.cols)
        for i, row in enumerate(self.data):
            base = i * self.cols
            for j, x in row.items():
                entries[base + j] = x
        return IntMatrix(self.rows, self.cols, tuple(entries))

    def transpose(self) -> "SparseMatrix":
        cols: list[dict[int, int]] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, x in row.items():
                cols[j][i] = x
        return SparseMatrix(self.cols, self.rows, cols)

    def mul_vector(self, vec) -> list[int]:
        return [sum(x * vec[j] for j, x in row.items()) for row in self.data]

    def solver(self) -> "_OpLogSolver":
        """The op-log factorization, which answers every modulus; built once."""
        if self._solver is None:
            self._solver = _OpLogSolver(self)
        return self._solver


def _as_sparse(m) -> SparseMatrix:
    return m if isinstance(m, SparseMatrix) else SparseMatrix.from_dense(m)


def _add_scaled(dst: dict, src: dict, q: int):
    """dst += q * src for sparse vectors, dropping zeros (q != 0)."""
    for t, x in src.items():
        new = dst.get(t, 0) + q * x
        if new:
            dst[t] = new
        else:
            del dst[t]


class _OpLogSolver:
    """Sparse integer Smith normal form U*A*V = D with replayable op logs.

    Solves A*x = b (mod n) for any n >= 0 after a single factorization.  Row
    ops replay on the right-hand side in O(1) per op; column ops replay on
    the solution vector.
    """

    def __init__(self, m):
        m = _as_sparse(m)
        self.nrows = m.rows
        self.ncols = m.cols
        rows = [dict(row) for row in m.data]
        col_index: list[set[int]] = [set() for _ in range(m.cols)]
        for i, row in enumerate(rows):
            for j in row:
                col_index[j].add(i)
        self.row_ops: list[tuple] = []
        self.col_ops: list[tuple] = []
        self._factor(rows, col_index)
        self._chain()

    def _factor(self, rows, col_index):
        """Eliminate with the pivot of least (|x|, Markowitz cost, i, j), the
        cost of entry (i, j) being (column count - 1) * (row count - 1)
        (Markowitz, Management Science 1957).

        Candidates wait in a lazy heap.  An axpy re-pushes the entries of every
        row and column whose keys it may have changed; a popped key that no
        longer matches its entry is stale and skipped.  Rows and columns that
        are done hold only their pivot, so live keys only count live entries.
        The column phase runs once row pi is alone in column pj, so each column
        op changes rows[pi][j] alone, to its remainder mod p.  Every pivot ends
        positive.
        """
        nrows, ncols = self.nrows, self.ncols
        row_ops, col_ops = self.row_ops, self.col_ops
        active_rows = set(range(nrows))
        active_cols = set(range(ncols))
        pivots: list[tuple[int, int, int]] = []
        touched_rows: set[int] = set()
        touched_cols: set[int] = set()
        cost_base = nrows * ncols  # exceeds every Markowitz cost

        def key(i, j):
            # the tuple (|x|, cost, i, j) packed into one int, which compares faster
            cost = (len(col_index[j]) - 1) * (len(rows[i]) - 1)
            return ((abs(rows[i][j]) * cost_base + cost) * nrows + i) * ncols + j

        def row_axpy(src, dst, q):
            if not q:
                return
            rd = rows[dst]
            for j, x in rows[src].items():
                old = rd.get(j, 0)
                new = old - q * x
                if new:
                    rd[j] = new
                    if not old:
                        col_index[j].add(dst)
                        touched_cols.add(j)
                else:
                    del rd[j]
                    col_index[j].discard(dst)
                    touched_cols.add(j)
            touched_rows.add(dst)
            row_ops.append(("axpy", src, dst, q))

        def row_neg(i):
            rows[i] = {j: -x for j, x in rows[i].items()}
            row_ops.append(("neg", i, 0, 0))

        heap = [key(i, j) for i, row in enumerate(rows) for j in row]
        heapify(heap)
        while heap:
            k = heappop(heap)
            pi, pj = k // ncols % nrows, k % ncols
            if pi not in active_rows or pj not in rows[pi] or key(pi, pj) != k:
                continue
            while True:
                if rows[pi][pj] < 0:
                    row_neg(pi)
                p = rows[pi][pj]
                for i in sorted(i for i in col_index[pj] if i != pi):
                    row_axpy(pi, i, rows[i][pj] // p)
                rem = [i for i in col_index[pj] if i != pi]
                if rem:
                    # remainders are in [1, p); retarget the pivot row
                    pi = min(rem, key=lambda i: (rows[i][pj], i))
                    continue
                # the column phase: col_j -= q * col_pj is a remainder step on row pi
                row = rows[pi]
                for j in sorted(j for j in row if j != pj):
                    q, row[j] = divmod(row[j], p)
                    if q:
                        col_ops.append((pj, j, q))
                        touched_cols.add(j)
                    if not row[j]:
                        # row pi shrank: if it stays active, its keys moved
                        del row[j]
                        col_index[j].discard(pi)
                        touched_rows.add(pi)
                rem_cols = [j for j in row if j != pj]
                if rem_cols:
                    # likewise nonzero remainders strictly below p
                    pj = min(rem_cols, key=lambda j: (row[j], j))
                    continue
                break
            pivots.append((pi, pj, rows[pi][pj]))
            active_rows.discard(pi)
            active_cols.discard(pj)
            for i in touched_rows & active_rows:
                for j in rows[i]:
                    heappush(heap, key(i, j))
            for j in touched_cols & active_cols:
                for i in col_index[j]:
                    if i not in touched_rows:
                        heappush(heap, key(i, j))
            touched_rows.clear()
            touched_cols.clear()

        self.pivots = pivots
        self.zero_rows = sorted(active_rows)
        self.free_cols = sorted(active_cols)

    def _chain(self):
        """Bring D to Smith normal form (Cohen, A Course in Computational
        Algebraic Number Theory, 2.4.4): sort the pivots by (value, -row),
        then turn the 2x2 block of each pair a before b with a not dividing b
        into (gcd, lcm) by logged ops.  Sorted powers of one prime already
        form a chain and log nothing."""
        row_ops, col_ops = self.row_ops, self.col_ops
        order = lambda pivot: (pivot[2], -pivot[0])
        pivots = sorted(self.pivots, key=order)
        # divisibility is transitive, so adjacent pivots show a chain
        if all(b % a == 0 for (_, _, a), (_, _, b) in zip(pivots, pivots[1:])):
            self.pivots = pivots
            return
        units = sum(d == 1 for _, _, d in pivots)
        for t in range(units, len(pivots)):
            for s in range(t + 1, len(pivots)):
                (i, j, a), (k, l, b) = pivots[t], pivots[s]
                if b % a == 0:
                    continue
                # row i += row k; (x, y) is then row i and (u, w) row k on the columns (j, l)
                row_ops.append(("axpy", k, i, -1))
                x, y, u, w = a, b, 0, b
                while y:  # a column Euclid on row i leaves gcd(a, b) at x
                    q = x // y
                    if q:
                        col_ops.append((l, j, q))
                    x, y, u, w, j, l = y, x - q * y, w, u - q * w, l, j
                # clear row k, which leaves lcm(a, b) up to sign
                row_ops.append(("axpy", i, k, u // x))
                if w < 0:
                    row_ops.append(("neg", k, 0, 0))
                pivots[t], pivots[s] = (i, j, x), (k, l, abs(w))
        self.pivots = sorted(pivots, key=order)

    def row_transform(self, b) -> list[int]:
        """U b: the row ops replayed on a copy of b."""
        v = list(b)
        for op in self.row_ops:
            if op[0] == "axpy":
                _, src, dst, q = op
                v[dst] -= q * v[src]
            else:
                v[op[1]] = -v[op[1]]
        return v

    def solve(self, b, n: int):
        if len(b) != self.nrows:
            raise ValueError("dimension mismatch between matrix and vector")
        v = self.row_transform(b)
        y = [0] * self.ncols
        for i, j, d in self.pivots:
            yj = _solve_scalar(d, v[i], n)
            if yj is None:
                return None
            y[j] = yj
        for i in self.zero_rows:
            if (v[i] if n == 0 else v[i] % n) != 0:
                return None
        y = self.col_transform(y)
        return [x % n for x in y] if n else y

    def col_transform(self, y) -> list[int]:
        """V y: the column ops replayed backwards on a copy of y."""
        v = list(y)
        for src, dst, q in reversed(self.col_ops):
            # col op was col_dst -= q*col_src; acting on coordinates:
            if v[dst]:
                v[src] -= q * v[dst]
        return v

    def kernel_combination(self, coeffs) -> list[int]:
        """V applied to coeffs placed on the free columns: the combination,
        with these coefficients, of the kernel basis V e_j over the free
        columns j."""
        v = [0] * self.ncols
        for j, c in zip(self.free_cols, coeffs):
            v[j] = c
        return self.col_transform(v)

    def free_coordinate_rows(self, vecs) -> list[dict[int, int]] | None:
        """Coordinates of many sparse vectors {index: value} in the kernel basis.

        Computes V^{-1} vec for all of them in one replay of the inverse
        column ops.  Row r of the result holds coordinate r of vecs[t] at key
        t.  None when some vector is not in ker(A), i.e. has a nonzero pivot
        coordinate.
        """
        coords: list[dict[int, int]] = [{} for _ in range(self.ncols)]
        for t, vec in enumerate(vecs):
            for r, x in vec.items():
                if x:
                    coords[r][t] = x
        for src, dst, q in self.col_ops:
            if coords[dst]:
                _add_scaled(coords[src], coords[dst], q)
        if any(coords[j] for _, j, _ in self.pivots):
            return None
        return [coords[j] for j in self.free_cols]

    def free_coordinates(self, vec) -> list[int] | None:
        """Coordinates of one vector in the kernel basis, V^{-1} vec read on
        the free columns; None when vec is not in ker(A)."""
        v = list(vec)
        for src, dst, q in self.col_ops:
            if v[dst]:
                v[src] += q * v[dst]
        if any(v[j] for _, j, _ in self.pivots):
            return None
        return [v[j] for j in self.free_cols]

    def u_inverse_column(self, i: int) -> list[int]:
        """Column U^{-1} e_i of the diagonalization."""
        v = [0] * self.nrows
        v[i] = 1
        for op in reversed(self.row_ops):
            if op[0] == "axpy":
                _, src, dst, q = op
                v[dst] += q * v[src]
            else:
                v[op[1]] = -v[op[1]]
        return v


def _solve_scalar(d: int, c: int, n: int):
    """Smallest nonnegative y with d*y = c (mod n), for a pivot d > 0; None
    when unsolvable."""
    if n == 0:
        if c % d:
            return None
        return c // d
    d %= n
    c %= n
    if d == 0:
        return 0 if c == 0 else None
    g = gcd(d, n)
    if c % g:
        return None
    nn = n // g
    return (c // g) * pow(d // g, -1, nn) % nn


def smith_decomposition(m) -> _OpLogSolver:
    """The op-log factorization U*M*V = D of an IntMatrix or SparseMatrix,
    kept on a SparseMatrix.

    D is the Smith normal form up to the order of rows and columns: it is
    zero but for one positive entry d per pivot (i, j, d) in .pivots, and
    the pivots are sorted by (d, -i), each d dividing the next.  U and V
    are the logged row and column ops (row_transform, col_transform,
    u_inverse_column).
    """
    return _as_sparse(m).solver()


def solve_mod(a, b, n: int):
    """One solution x of A*x = b (mod n), or None; n = 0 solves over Z.

    A is an IntMatrix or a SparseMatrix; a SparseMatrix keeps its
    factorization, so repeated solves against it reuse that.  The returned
    solution verifies exactly; which solution is returned is deterministic
    for fixed inputs.
    """
    b = list(b)
    if len(b) != a.rows:
        raise ValueError("dimension mismatch between matrix and vector")
    if n < 0:
        raise ValueError("modulus must be >= 0")
    if n == 1:
        return [0] * a.cols
    return smith_decomposition(a).solve(b, n)


def modulus_stack(m: SparseMatrix, n: int) -> SparseMatrix:
    """The stack [M | n I] for n > 0, whose column span is that of M plus
    n Z^rows; M itself, with the factorization it keeps, for n = 0."""
    if not n:
        return m
    return SparseMatrix(m.rows, m.cols + m.rows, [{**row, m.cols + i: n} for i, row in enumerate(m.data)])


def cokernel(a, n: int) -> AbelianGroupPresentation:
    """Presentation of (Z/n)^rows / column-span(A); n = 0 gives Z^rows / span.

    The factored matrix is modulus_stack(A, n): free generators are the rows
    without a pivot, and the invariant factors are the pivot values above 1."""
    if n < 0:
        raise ValueError("modulus must be >= 0")
    m = modulus_stack(_as_sparse(a), n)
    pivots = smith_decomposition(m).pivots
    return AbelianGroupPresentation(m.rows - len(pivots), tuple(d for _, _, d in pivots if d > 1))


# ---------------------------------------------------------------------------
# Dense Gauss-Jordan over a field: F_p, or Q (Fraction entries) when p = 0


def rref(rows, ncols: int, p: int) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over F_p, or over Q when p = 0.

    Pivots are sought only in the first ncols columns; later columns are
    carried along (an augmented right-hand side or identity).  Returns all
    rows, pivot rows first, and the pivot columns ascending.  The pivot of
    column c is the first row at or below the last pivot row with a nonzero
    there; each elimination touches only the nonzero columns of the pivot
    row, so a step costs O(nnz(pivot row)) per row it clears.
    """
    rows = [[x % p for x in row] if p else [Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        for pr in range(r, len(rows)):
            if rows[pr][c]:
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r]
        inv = pow(pivot[c], -1, p) if p else 1 / pivot[c]
        support = list(compress(range(len(pivot)), pivot))
        for j in support:
            pivot[j] = pivot[j] * inv % p if p else pivot[j] * inv
        entries = [(j, pivot[j]) for j in support]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                if p:
                    for j, y in entries:
                        row[j] = (row[j] - f * y) % p
                else:
                    for j, y in entries:
                        row[j] -= f * y
        pivots.append(c)
    return rows, pivots


def kernel_mod_p(rows, ncols: int, p: int) -> list[list]:
    """Basis of the null space over F_p (over Q when p = 0), one vector per
    free column, ascending."""
    reduced, pivots = rref(rows, ncols, p)
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for row, c in zip(reduced, pivots):
            vec[c] = -row[free] % p if p else -row[free]
        basis.append(vec)
    return basis


def f2_kernel(rows: list[int], ncols: int) -> list[int]:
    """Null-space basis over F2 as bitmasks (bit j = column j), one per free
    column, ascending: kernel_mod_p of the unpacked rows, packed again."""
    unpacked = [[row >> j & 1 for j in range(ncols)] for row in rows]
    return [sum(x << j for j, x in enumerate(vec)) for vec in kernel_mod_p(unpacked, ncols, 2)]
