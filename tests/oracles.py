"""Reference implementations that the library no longer uses, kept as test
oracles: the dense Smith-normal-form cohomology path, the scan-based pivot
search of the op-log factorization, and the per-simplex loops of the cochain
coboundary and cup product."""

from __future__ import annotations

from supercoh.exact_linalg import AbelianGroupPresentation, IntMatrix, _OpLogSolver, smith_decomposition
from supercoh.simplicial import Cochain, CohomologyClass, SimplicialComplex, coboundary_matrix


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
