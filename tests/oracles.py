"""Reference implementations that the library no longer uses, kept as test
oracles: the dense Smith normal form with unimodular transforms and the
cokernel and dense cohomology paths built on it, the scan-based pivot search of the
op-log factorization, the per-simplex loops of the cochain coboundary and
cup product, the scanning F2 echelons, class coordinates by a solve
against [delta | basis], and is_cohomologous by a solve against delta."""

from __future__ import annotations

from dataclasses import dataclass

from supercoh.exact_linalg import (
    AbelianGroupPresentation,
    IntMatrix,
    SparseMatrix,
    _as_sparse,
    _OpLogSolver,
    solve_mod,
)
from supercoh.simplicial import Cochain, CohomologyClass, SimplicialComplex, _coboundary, coboundary_matrix

# ---------------------------------------------------------------------------
# Dense Smith normal form


@dataclass(frozen=True)
class SmithDecomposition:
    """U*M*V = D with U, V unimodular and D diagonal with d1 | d2 | ...

    u_inv and v_inv are exact integer inverses of U and V.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    def diagonal(self) -> list[int]:
        return [self.d.at(i, i) for i in range(min(self.d.rows, self.d.cols))]

    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x)


def _smith_inner(m: IntMatrix):
    rows, cols = m.rows, m.cols
    a = m.to_rows()
    u = IntMatrix.identity(rows).to_rows()
    uinv = IntMatrix.identity(rows).to_rows()
    v = IntMatrix.identity(cols).to_rows()
    vinv = IntMatrix.identity(cols).to_rows()

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    def row_axpy(src, dst, q):
        # row_dst -= q * row_src
        if not q:
            return
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]
        for r in uinv:
            r[src] += q * r[dst]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_axpy(src, dst, q):
        # col_dst -= q * col_src
        if not q:
            return
        for r in a:
            r[dst] -= q * r[src]
        for r in v:
            r[dst] -= q * r[src]
        vinv[src] = [x + q * y for x, y in zip(vinv[src], vinv[dst])]

    def find_pivot(t):
        best = None
        pos = None
        for i in range(t, rows):
            ai = a[i]
            for j in range(t, cols):
                x = abs(ai[j])
                if x and (best is None or x < best):
                    best, pos = x, (i, j)
        return pos

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pos = find_pivot(t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        while True:
            # clear column t with Euclidean steps
            dirty = False
            for i in range(rows):
                if i != t and a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_axpy(t, i, q)
                    if a[i][t]:
                        row_swap(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(cols):
                if j != t and a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_axpy(t, j, q)
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the block
            offender = None
            for i in range(t + 1, rows):
                ai = a[i]
                for j in range(t + 1, cols):
                    if ai[j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_axpy(offender, t, -1)
        if a[t][t] < 0:
            row_neg(t)
        t += 1

    # enforce the divisibility chain on the diagonal
    r = t
    for i in range(r):
        for j in range(i + 1, r):
            if a[j][j] % a[i][i] == 0:
                continue
            col_axpy(j, i, -1)  # col_i += col_j, puts a[j][j] into column i
            while a[j][i]:
                q = a[i][i] // a[j][i]
                row_axpy(j, i, q)
                if a[i][i]:
                    row_swap(i, j)
                else:
                    break
            if a[i][i] == 0:
                row_swap(i, j)
            q = a[i][j] // a[i][i]
            col_axpy(i, j, q)
            if a[i][i] < 0:
                row_neg(i)
            if a[j][j] < 0:
                row_neg(j)
    return a, u, v, uinv, vinv


def smith_decomposition(m: IntMatrix) -> SmithDecomposition:
    a, u, v, uinv, vinv = _smith_inner(m)

    def pack(data, rows, cols):
        if rows == 0 or cols == 0:
            return IntMatrix(rows, cols, ())
        return IntMatrix.from_rows(data)

    return SmithDecomposition(
        u=pack(u, m.rows, m.rows),
        d=pack(a, m.rows, m.cols),
        v=pack(v, m.cols, m.cols),
        u_inv=pack(uinv, m.rows, m.rows),
        v_inv=pack(vinv, m.cols, m.cols),
    )


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U*M*V = D in Smith normal form.

    Pivoting is deterministic: smallest nonzero absolute value, lowest
    row-major index on ties.
    """
    dec = smith_decomposition(m)
    return dec.u, dec.d, dec.v



def cokernel_dense(a: IntMatrix, n: int) -> AbelianGroupPresentation:
    """Presentation of (Z/n)^rows / column-span(A); n = 0 gives Z^rows / span."""
    if n < 0:
        raise ValueError("modulus must be >= 0")
    m = a if n == 0 else a.hstack(IntMatrix.diagonal([n] * a.rows))
    if a.rows == 0:
        return AbelianGroupPresentation.trivial()
    dec = smith_decomposition(m)
    diag = dec.diagonal()
    factors = tuple(d for d in diag if d > 1)
    free = a.rows - sum(1 for d in diag if d)
    return AbelianGroupPresentation(free, factors)


# ---------------------------------------------------------------------------
# Cochains and cohomology


def coboundary_loop(self: Cochain) -> Cochain:
    """Cochain.coboundary as a loop over the faces of every (q+1)-simplex."""
    x = self.complex
    q = self.degree
    out = []
    for s in x.simplices(q + 1):
        acc = 0
        for i in range(q + 2):
            face = s[:i] + s[i + 1 :]
            v = self.values[x._index[q][face]]
            acc += v if i % 2 == 0 else -v
        out.append(acc)
    return Cochain(x, q + 1, self.modulus, tuple(out))


def cup_value_on(a: Cochain, b: Cochain) -> Cochain:
    """operations.cup with a value_on lookup of the front and back face of
    every simplex."""
    if a.complex != b.complex or a.modulus != b.modulus:
        raise ValueError("cup product needs a common complex and modulus")
    x = a.complex
    p, q = a.degree, b.degree
    out = []
    for s in x.simplices(p + q):
        front = s[: p + 1]
        back = s[p:]
        out.append(a.value_on(front) * b.value_on(back))
    return Cochain(x, p + q, a.modulus, tuple(out))


def _coboundary_or_empty(x: SimplicialComplex, q: int) -> IntMatrix:
    """delta_q: C^q -> C^{q+1}; degenerate degrees give empty matrices."""
    if q < 0:
        return IntMatrix(x.simplex_count(0), 0, ())
    if q > x.dim:
        return IntMatrix(0, 0, ())
    if q == x.dim:
        return IntMatrix(0, x.simplex_count(q), ())
    return coboundary_matrix(x, q)


def _kernel_lattice(x: SimplicialComplex, q: int, n: int) -> IntMatrix:
    """Columns form a basis of {v : delta_q v = 0 (mod n)} as a lattice in Z^{m_q}."""
    dq = _coboundary_or_empty(x, q)
    m0 = x.simplex_count(q)
    if n == 0:
        stacked = dq
        width = m0
    else:
        stacked = dq.hstack(IntMatrix.diagonal([n] * dq.rows))
        width = m0 + dq.rows
    if stacked.rows == 0:
        return IntMatrix.identity(m0)
    dec = smith_decomposition(stacked)
    rank = dec.rank()
    cols = []
    for j in range(rank, width):
        col = [dec.v.at(i, j) for i in range(width)]
        cols.append(col[:m0])
    if not cols:
        return IntMatrix(m0, 0, ())
    return IntMatrix.from_rows([[c[i] for c in cols] for i in range(m0)])


def cohomology_integral_dense(x: SimplicialComplex, q: int, n: int):
    """Integral (n = 0) or composite-modulus cohomology via dense Smith normal
    forms: (presentation, basis, orders) like simplicial._cohomology_integral_sparse."""
    m0 = x.simplex_count(q)
    kernel = _kernel_lattice(x, q, n)
    k = kernel.cols
    if k == 0:
        return AbelianGroupPresentation.trivial(), [], []
    kdec = smith_decomposition(kernel)
    dprev = _coboundary_or_empty(x, q - 1)

    def in_kernel_coords(vec):
        # solve kernel * w = vec exactly using the cached decomposition
        c = kdec.u.mul_vector(vec)
        w = []
        diag = kdec.diagonal()
        for i in range(kernel.cols):
            d = diag[i] if i < len(diag) else 0
            if d == 0 or c[i] % d:
                raise ArithmeticError("vector not in kernel lattice")
            w.append(c[i] // d)
        for i in range(kernel.cols, kernel.rows):
            if c[i]:
                raise ArithmeticError("vector not in kernel lattice")
        return kdec.v.mul_vector(w)

    relation_cols = []
    for j in range(dprev.cols):
        col = [dprev.at(i, j) for i in range(dprev.rows)]
        relation_cols.append(in_kernel_coords(col))
    if n:
        for i in range(m0):
            vec = [0] * m0
            vec[i] = n
            relation_cols.append(in_kernel_coords(vec))
    if relation_cols:
        w = IntMatrix.from_rows([[col[i] for col in relation_cols] for i in range(k)])
    else:
        w = IntMatrix(k, 0, ())
    wdec = smith_decomposition(w)
    diag = wdec.diagonal()
    rank = sum(1 for d in diag if d)
    factors = []
    gens = []
    orders = []
    for i, d in enumerate(diag):
        if d > 1:
            factors.append(d)
            gens.append(i)
            orders.append(d)
    free_positions = list(range(rank, k))
    pres = AbelianGroupPresentation(len(free_positions), tuple(factors))
    basis = []
    for i in gens + free_positions:
        coords = [wdec.u_inv.at(r, i) for r in range(k)]
        vec = kernel.mul_vector(coords)
        basis.append(CohomologyClass(Cochain(x, q, n, tuple(vec))))
    orders = orders + [0] * len(free_positions)
    return pres, basis, orders


class ScanOpLogSolver(_OpLogSolver):
    """_OpLogSolver with the pivot search it had before the heap: a scan of
    every active entry for the least (|x|, Markowitz cost, i, j) per pivot."""

    def _factor(self, rows, col_index):
        row_ops, col_ops = self.row_ops, self.col_ops
        active_rows = set(range(self.nrows))
        active_cols = set(range(self.ncols))
        pivots: list[tuple[int, int, int]] = []

        def row_axpy(src, dst, q):
            if not q:
                return
            rs, rd = rows[src], rows[dst]
            for j, x in rs.items():
                new = rd.get(j, 0) - q * x
                if new:
                    rd[j] = new
                    col_index[j].add(dst)
                else:
                    rd.pop(j, None)
                    col_index[j].discard(dst)
            row_ops.append(("axpy", src, dst, q))

        def row_neg(i):
            rows[i] = {j: -x for j, x in rows[i].items()}
            row_ops.append(("neg", i, 0, 0))

        def col_axpy(src, dst, q):
            if not q:
                return
            for i in list(col_index[src]):
                x = rows[i][src]
                new = rows[i].get(dst, 0) - q * x
                if new:
                    rows[i][dst] = new
                    col_index[dst].add(i)
                else:
                    rows[i].pop(dst, None)
                    col_index[dst].discard(i)
            col_ops.append((src, dst, q))

        while True:
            best = None
            pivot = None
            for i in sorted(active_rows):
                for j, x in sorted(rows[i].items()):
                    if j not in active_cols:
                        continue
                    key = (abs(x), (len(col_index[j]) - 1) * (len(rows[i]) - 1), i, j)
                    if best is None or key < best:
                        best, pivot = key, (i, j)
                if best is not None and best[0] == 1 and best[1] == 0:
                    break
            if pivot is None:
                break
            pi, pj = pivot
            while True:
                if rows[pi][pj] < 0:
                    row_neg(pi)
                p = rows[pi][pj]
                for i in sorted(i for i in col_index[pj] if i != pi):
                    row_axpy(pi, i, rows[i][pj] // p)
                rem = [i for i in col_index[pj] if i != pi]
                if rem:
                    pi = min(rem, key=lambda i: (rows[i][pj], i))
                    continue
                for j in sorted(j for j in rows[pi] if j != pj):
                    col_axpy(pj, j, rows[pi][j] // p)
                rem_cols = [j for j in rows[pi] if j != pj]
                if rem_cols:
                    pj = min(rem_cols, key=lambda j: (rows[pi][j], j))
                    continue
                break
            pivots.append((pi, pj, rows[pi][pj]))
            active_rows.discard(pi)
            active_cols.discard(pj)

        self.pivots = pivots
        self.zero_rows = sorted(active_rows)
        self.free_cols = sorted(active_cols)


def f2_rref(rows: list[int]) -> tuple[list[int], list[int]]:
    """Reduced echelon rows (nonzero only) and their pivot columns, ascending."""
    echelon: list[tuple[int, int]] = []
    for row in rows:
        for pcol, prow in echelon:
            if (row >> pcol) & 1:
                row ^= prow
        if row:
            pcol = (row & -row).bit_length() - 1
            for i, (c, r) in enumerate(echelon):
                if (r >> pcol) & 1:
                    echelon[i] = (c, r ^ row)
            echelon.append((pcol, row))
    echelon.sort()
    return [r for _, r in echelon], [c for c, _ in echelon]


def f2_kernel(rows: list[int], ncols: int) -> list[int]:
    """Null-space basis over F2 as bitmasks, one per free column, ascending."""
    rref, pivots = f2_rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = 1 << free
        for prow, pcol in zip(rref, pivots):
            if (prow >> free) & 1:
                vec |= 1 << pcol
        basis.append(vec)
    return basis


class F2Span:
    """Incremental F2 row span; insert() reports whether the rank grew."""

    def __init__(self):
        self.echelon: list[tuple[int, int]] = []

    def insert(self, row: int) -> bool:
        for pcol, prow in self.echelon:
            if (row >> pcol) & 1:
                row ^= prow
        if not row:
            return False
        self.echelon.append(((row & -row).bit_length() - 1, row))
        return True


class F2Solver:
    """Row echelon of [A | I] over F2 with bitmask rows, for repeated solves."""

    def __init__(self, m):
        m = _as_sparse(m)
        self.nrows = m.rows
        self.ncols = m.cols
        echelon: list[tuple[int, int, int]] = []  # (pivot_col, a_bits, u_bits)
        residue: list[tuple[int, int]] = []
        for i, a_bits in enumerate(m.f2_rows()):
            u_bits = 1 << i
            for pcol, pa, pu in echelon:
                if (a_bits >> pcol) & 1:
                    a_bits ^= pa
                    u_bits ^= pu
            if a_bits:
                pcol = (a_bits & -a_bits).bit_length() - 1
                echelon.append((pcol, a_bits, u_bits))
            else:
                residue.append((a_bits, u_bits))
        self.echelon = echelon
        self.residue = residue

    def solve(self, b):
        b_bits = 0
        for i, x in enumerate(b):
            if x & 1:
                b_bits |= 1 << i
        for _, u_bits in self.residue:
            if (u_bits & b_bits).bit_count() & 1:
                return None
        x_bits = 0
        for pcol, a_bits, u_bits in reversed(self.echelon):
            rhs = (u_bits & b_bits).bit_count() & 1
            rhs ^= ((a_bits & x_bits).bit_count() & 1)
            if rhs:
                x_bits |= 1 << pcol
        out = [0] * self.ncols
        while x_bits:
            j = (x_bits & -x_bits).bit_length() - 1
            out[j] = 1
            x_bits &= x_bits - 1
        return out


_coordinate_systems: dict = {}


def class_coordinates_solve(xc: Cochain, basis, orders) -> list[int] | None:
    """class_coordinates as a solve of [delta_{q-1} | basis] y = xc (mod n).

    Its systems are cached here rather than on the complex, it solves mod 2
    with F2Solver above, and an empty basis takes the same solve, so a
    non-cocycle gives None there too."""
    x = xc.complex
    q = xc.degree
    n = xc.modulus
    dprev = _coboundary(x, q - 1)
    # the system [delta_{q-1} | basis] is built and factored once per basis
    key = (x, q, n, tuple(cls.cochain.values for cls in basis))
    system = _coordinate_systems.get(key)
    if system is None:
        data = [dict(row) for row in dprev.data]
        for t, cls in enumerate(basis):
            for i, v in enumerate(cls.cochain.values):
                if v:
                    data[i][dprev.cols + t] = v
        system = SparseMatrix(dprev.rows, dprev.cols + len(basis), data)
        if n == 2:
            system = F2Solver(system)
        _coordinate_systems[key] = system
    sol = system.solve(list(xc.values)) if n == 2 else solve_mod(system, list(xc.values), n)
    if sol is None:
        return None
    coords = sol[dprev.cols :]
    out = []
    for c, d in zip(coords, orders):
        out.append(c % d if d else c)
    return out


def is_cohomologous_solve(a: Cochain, b: Cochain) -> bool:
    """True iff a - b is a coboundary over the common modulus."""
    if not a.same_context(b):
        raise ValueError("cochain context mismatch (complex, degree or modulus)")
    if not (a.is_cocycle() and b.is_cocycle()):
        raise ValueError("is_cohomologous needs cocycle inputs")
    diff = a - b
    if diff.is_zero():
        return True
    q = a.degree
    if q == 0:
        if a.modulus:
            return all(v % a.modulus == 0 for v in diff.values)
        return diff.is_zero()
    return solve_mod(_coboundary(a.complex, q - 1), list(diff.values), a.modulus) is not None
