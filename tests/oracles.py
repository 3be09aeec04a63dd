"""Reference implementations that the library no longer uses, kept as test
oracles: the dense Smith normal form with unimodular transforms and the
cokernel and dense cohomology paths built on it, the cohomology records
built on X's own coboundaries instead of its Morse complex, the scan-based
pivot search of the op-log factorization, the per-simplex loops of the
cochain coboundary, cup and cup-i products, the per-simplex builders of
the face, cup-i, cross-product and pullback index tables, the scanning F2
echelons, class
coordinates by a solve against [delta | basis], is_cohomologous by a solve
against delta, the Brauer group presentation and element orders by repeated
twisted addition, random Brauer elements drawn by rng.choices, the DSV
quasi-isomorphism test on homology quotients, the entry-by-entry homotopy
system and braiding, and the nested stable 2-type equivalence search over
both automorphism groups with its two bijectivity checks, on the socles and
over the whole group."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import floordiv, itemgetter, mod, mul
from random import Random

from supercoh.exact_linalg import (
    AbelianGroupPresentation,
    IntMatrix,
    SparseMatrix,
    _as_sparse,
    _OpLogSolver,
    solve_mod,
)
from supercoh import brauer, dsv, simplicial
from supercoh.brauer import KU, BrauerElement, _twist, variant_layout
from supercoh.dsv import DSV, DSVMap, Field, _shape, _transpose, homology, identity, kernel_basis, rank, tensor, zeros
from supercoh.simplicial import (
    Cochain,
    CohomologyClass,
    SimplicialComplex,
    SimplicialMap,
    TensorModel,
    _coboundary,
    _cohomology_record,
    coboundary_matrix,
)
from supercoh.stable2type import Stable2TypeData, _canonical_element, _mod2_generator_indices

# ---------------------------------------------------------------------------
# Brauer groups and element orders by repeated twisted addition


def element_order_loop(x: brauer.BrauerElement, cap: int = 64):
    """Least k <= cap with k*x trivial; "infinite" when the free part of the
    c-class is nonzero; None when the cap is exceeded."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    c = x.c
    if c.modulus == 0:
        orders = simplicial.generator_orders(c.complex, c.degree, 0)
        if any(co for co, o in zip(simplicial.class_coordinates(c), orders) if o == 0):
            return "infinite"
    acc = x
    for k in range(1, cap + 1):
        if brauer.equals(acc, brauer.identity_element(acc.base, acc.variant)):
            return k
        acc = brauer.add(acc, x)
    return None


def group_from_sectors_loop(x: SimplicialComplex, variant: str, include_a: bool) -> AbelianGroupPresentation:
    """Presentation of the extension group on the a, b and c sectors (b and
    c only without include_a).

    Generators are the cohomology basis classes.  Each torsion generator g
    of order n contributes the relation n*g = (sum of c-basis classes),
    where n*g is computed by n - 1 twisted additions and re-expressed in
    the c-basis by its class coordinates.
    """
    slots = ("a", "b", "c") if include_a else ("b", "c")
    gens = []  # (position of the slot, order, element)
    c_rank = 0
    for slot, (deg, mod_) in zip(("a", "b", "c"), brauer.variant_layout(variant)):
        if slot not in slots:
            continue
        _, basis = simplicial.cohomology(x, deg, mod_)
        orders = simplicial.generator_orders(x, deg, mod_)
        for cls, order in zip(basis, orders):
            values = {slot: cls.cochain.values}
            gens.append((order, brauer.element(x, variant, **values)))
        if slot == "c":
            c_rank = len(basis)
    c_offset = len(gens) - c_rank
    relations = []
    for pos, (order, el) in enumerate(gens):
        if order == 0:
            continue
        acc = el
        for _ in range(order - 1):
            acc = brauer.add(acc, el)
        if not (acc.a.is_zero() and acc.b.is_zero()):
            raise ArithmeticError("torsion power did not collapse to the c sector")
        coords = simplicial.class_coordinates(acc.c)
        if coords is None:
            raise ArithmeticError("relation target not in the c-basis span")
        col = [0] * len(gens)
        col[pos] = order
        for j, m in enumerate(coords):
            col[c_offset + j] -= m
        relations.append(col)
    if not gens:
        return AbelianGroupPresentation.trivial()
    if relations:
        rel = IntMatrix.from_rows([[col[i] for col in relations] for i in range(len(gens))])
    else:
        rel = IntMatrix(len(gens), 0, ())
    return cokernel_dense(rel, 0)


# Random Brauer elements drawn by rng.choices, with one cochain + per basis
# class: brauer.random_element must give the same elements and leave the rng
# in the same state.


def random_element(x: SimplicialComplex, variant: str, rng: Random) -> BrauerElement:
    """Random element: random classes plus random coboundaries in each slot;
    for ku, c also gets beta(u cup v) for random u, v half of the time."""
    (da, ma), (db, mb), (dc, mc) = variant_layout(variant)
    a = _random_cocycle(x, da, ma, rng)
    b = _random_cocycle(x, db, mb, rng)
    c = _random_cocycle(x, dc, mc, rng)
    if variant == KU:
        u = _random_cocycle(x, db, mb, rng)
        v = _random_cocycle(x, db, mb, rng)
        c = c + _twist(KU, u, v).scale(rng.randrange(2))
    return BrauerElement(variant, a, b, c)


def _random_cocycle(x: SimplicialComplex, deg: int, mod: int, rng: Random) -> Cochain:
    _, basis = simplicial.cohomology(x, deg, mod)
    out = _random_coboundary(x, deg, mod, rng)
    for cls, k in zip(basis, rng.choices(range(mod or 5), k=len(basis))):
        out = out + cls.cochain.scale(k)
    return out


def _random_coboundary(x: SimplicialComplex, deg: int, mod: int, rng: Random) -> Cochain:
    if deg == 0:
        return Cochain.zero(x, 0, mod)
    values = rng.choices(range(mod or 7), k=x.simplex_count(deg - 1))
    return Cochain(x, deg - 1, mod, tuple(values)).coboundary()


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
        return [self.d.row(i)[i] for i in range(min(self.d.rows, self.d.cols))]

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


def cup_i_loop(i: int, a: Cochain, b: Cochain) -> Cochain:
    """operations.cup_i as a loop over the cut sequences of every simplex,
    with a value_on lookup of its even and odd faces."""
    x = a.complex
    p, q = a.degree, b.degree
    m = p + q - i
    if m > x.dim:
        return Cochain.zero(x, m, 2)
    out = []
    for s in x.simplices(m):
        acc = 0
        for cuts in combinations(range(m + 1), i + 1):
            blocks = []
            prev = 0
            for c in cuts:
                blocks.append(s[prev : c + 1])
                prev = c
            blocks.append(s[prev : m + 1])
            even = tuple(v for k in range(0, len(blocks), 2) for v in blocks[k])
            odd = tuple(v for k in range(1, len(blocks), 2) for v in blocks[k])
            if len(even) != p + 1 or len(odd) != q + 1:
                continue
            acc += a.value_on(even) * b.value_on(odd)
        out.append(acc & 1)
    return Cochain(x, m, 2, tuple(out))


def face_table_loop(x: SimplicialComplex, q: int) -> tuple:
    """The index vectors of SimplicialComplex.face_table, one itemgetter call
    per (q+1)-simplex and face."""
    upper = x.simplices(q + 1)
    index = x._index[q] if upper else {}
    others = [tuple(p for p in range(q + 2) if p != k) for k in range(q + 2)]
    return tuple(tuple(map(index.__getitem__, map(simplicial._gather(o), upper))) for o in others)


def cup_i_table_loop(x: SimplicialComplex, i: int, p: int, q: int) -> tuple:
    """SimplicialComplex.cup_i_table with one face lookup per simplex, as
    (even, odd) index vectors."""
    m = p + q - i
    top = x.simplices(m)

    def indices(d, positions):
        pick = simplicial._gather(tuple(positions))
        return tuple(x._index[d][pick(s)] for s in top)

    table = []
    for cuts in combinations(range(m + 1), i + 1):
        ends = (0, *cuts, m)
        blocks = [range(ends[k], ends[k + 1] + 1) for k in range(i + 2)]
        even = [v for block in blocks[0::2] for v in block]
        odd = [v for block in blocks[1::2] for v in block]
        if len(even) == p + 1 and len(odd) == q + 1:
            table.append((indices(p, even), indices(q, odd)))
    return tuple(table)


def cross_loop(model: TensorModel, q: int) -> dict:
    """The index vectors (fronts, backs) of TensorModel._cross in degree q,
    keyed by p: the index of the front p-face of the projection to K of each
    q-simplex of X and of the back face of its projection to L, kcount or
    lcount where that face is degenerate, one None test per simplex."""
    kx, lx = model._k.complex, model._l.complex
    width = itertools.repeat(lx.vertex_count)
    simplices = model.complex.simplices(q)
    ks = [tuple(map(floordiv, s, width)) for s in simplices]
    ls = [tuple(map(mod, s, width)) for s in simplices]
    out = {}
    for d in range(max(0, q - lx.dim), min(q, kx.dim) + 1):
        kcount, lcount = kx.simplex_count(d), lx.simplex_count(q - d)
        fronts = map(kx._index[d].get, map(itemgetter(slice(d + 1)), ks))
        backs = map(lx._index[q - d].get, map(itemgetter(slice(d, None)), ls))
        out[d] = (
            tuple(kcount if a is None else a for a in fronts),
            tuple(lcount if b is None else b for b in backs),
        )
    return out


def pullback_loop(f: SimplicialMap, cochain: Cochain) -> Cochain:
    """SimplicialMap.pullback as a loop over the source simplices, with a
    value_on lookup of every image that repeats no vertex."""
    q = cochain.degree
    out = []
    for s in f.source.simplices(q):
        image = tuple(f.vertex_map[v] for v in s)
        if any(a >= b for a, b in zip(image, image[1:])):
            out.append(0)
        else:
            out.append(cochain.value_on(image))
    return Cochain(f.source, q, cochain.modulus, tuple(out))


class Unreduced:
    """X's own cochain complex, in the interface of simplicial.MorseComplex
    that the record builder reads."""

    def __init__(self, x: SimplicialComplex):
        self.complex = x

    def size(self, q: int) -> int:
        return self.complex.simplex_count(q)

    def delta(self, q: int):
        return _coboundary(self.complex, q)


def cohomology_unreduced(x: SimplicialComplex, q: int, n: int):
    """The record (presentation, basis, orders, coordinate reader) of
    H^q(X; Z/n), q >= 0, built by the builder that cohomology() runs on the
    Morse complex, fed the coboundaries of X instead."""
    pres, gens, orders, read = _cohomology_record(Unreduced(x), q, n)
    basis = [CohomologyClass(Cochain(x, q, n, tuple(g))) for g in gens]

    def coordinates(xc):
        return read(list(xc.values)) if xc.is_cocycle() else None

    return pres, basis, orders, coordinates


def kunneth(k_groups, l_groups, n: int) -> AbelianGroupPresentation:
    """H^n(K x L; Z) from the integral cohomology groups of K and L alone,
    k_groups[p] = H^p(K; Z) and l_groups[q] = H^q(L; Z): the sum of
    H^p(K) (x) H^q(L) over p + q = n and of Tor(H^p(K), H^q(L)) over
    p + q = n + 1 (the Kunneth theorem for the cochains of finite
    complexes).  With Z (x) G = G, Z/a (x) Z/b = Tor(Z/a, Z/b) = Z/gcd(a, b)
    and Tor(Z, G) = 0, the cyclic pieces are joined by the dense Smith
    normal form; no cochain or coboundary is read."""

    def cyclic(g):
        return [0] * g.free_rank + list(g.invariant_factors)

    orders = []
    for p, gk in enumerate(k_groups):
        for q, gl in enumerate(l_groups):
            if p + q == n:
                orders += [gcd(a, b) if a and b else a or b for a in cyclic(gk) for b in cyclic(gl)]
            elif p + q == n + 1:
                orders += [gcd(a, b) for a in gk.invariant_factors for b in gl.invariant_factors]
    return cokernel_dense(IntMatrix.diagonal(orders), 0)


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
        col = [dec.v.row(i)[j] for i in range(width)]
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
        col = [dprev.row(i)[j] for i in range(dprev.rows)]
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
        coords = [wdec.u_inv.row(r)[i] for r in range(k)]
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


def f2_rows(m) -> list[int]:
    """The rows of a SparseMatrix reduced mod 2 and packed as bitmasks, bit j
    = column j."""
    return [sum(1 << j for j, x in row.items() if x & 1) for row in m.data]


class F2Solver:
    """Row echelon of [A | I] over F2 with bitmask rows, for repeated solves."""

    def __init__(self, m):
        m = _as_sparse(m)
        self.nrows = m.rows
        self.ncols = m.cols
        echelon: list[tuple[int, int, int]] = []  # (pivot_col, a_bits, u_bits)
        residue: list[tuple[int, int]] = []
        for i, a_bits in enumerate(f2_rows(m)):
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


# ---------------------------------------------------------------------------
# DSV quasi-isomorphisms, homotopy inverses and braidings, as written before
# the mapping-cone test and the Kronecker-built homotopy system, with their
# own field arithmetic: an entry is a Fraction over Q and an int in [0, p)
# over F_p


def in_field(f: Field, x):
    """x as an entry of the field f: reduced mod p over F_p."""
    return x % f.char if f.char else x


def apply(f: Field, m, vec):
    """m @ vec for a matrix m given as rows."""
    return [in_field(f, sum(map(mul, row, vec), f.zero())) for row in m]


def solve(f: Field, a, b, ncols: int | None = None):
    """One solution x of a x = b, its free variables 0, or None; read off
    rref_dense of [a | b]."""
    nc = _shape(a)[1] if ncols is None else ncols
    rows, pivots = rref_dense([[*ra, bv] for ra, bv in zip(a, b)], nc, f.char)
    if any(row[nc] for row in rows[len(pivots) :]):
        return None
    x = [f.zero()] * nc
    for row, c in zip(rows, pivots):
        x[c] = row[nc]
    return x


def _quotient_map_iso(f, fmat, ker_src, im_tgt, h_src, h_tgt) -> bool:
    """Is the induced map on homology an isomorphism?

    The image of the induced map is (f(ker_src) + im_tgt)/im_tgt; the map is
    an isomorphism iff the homology dimensions agree and that image has the
    full dimension.
    """
    if h_src != h_tgt:
        return False
    if h_src == 0:
        return True
    cols = [list(col) for col in im_tgt]
    base_rank = _col_rank(f, cols)
    for vec in ker_src:
        cols.append(apply(f, fmat, vec))
    return _col_rank(f, cols) - base_rank == h_src


def _col_rank(f: Field, cols) -> int:
    if not cols:
        return 0
    return rank(f, tuple(tuple(col[i] for col in cols) for i in range(len(cols[0]))))


def _image_basis(f: Field, m):
    nr, nc = _shape(m)
    return [[m[i][j] for i in range(nr)] for j in range(nc)]


def is_quasi_iso(fmap: DSVMap) -> bool:
    """True iff the induced maps on H_0 and H_1 are isomorphisms."""
    f = fmap.source.field
    v, w = fmap.source, fmap.target
    hv = homology(v)
    hw = homology(w)
    ok0 = _quotient_map_iso(
        f,
        fmap.f0,
        kernel_basis(f, v.d0, v.dim0),
        _image_basis(f, w.d1),
        hv[0],
        hw[0],
    )
    if not ok0:
        return False
    return _quotient_map_iso(
        f,
        fmap.f1,
        kernel_basis(f, v.d1, v.dim1),
        _image_basis(f, w.d0),
        hv[1],
        hw[1],
    )


def homotopy_inverse(fmap: DSVMap):
    """Witness (g, t0, t1, u0, u1) with f g ~ id_W via (t0, t1) and
    g f ~ id_V via (u0, u1); None iff no witness exists.

    Unknowns: g0: W0->V0, g1: W1->V1, t0: W0->W1, t1: W1->W0,
    u0: V0->V1, u1: V1->V0.  All constraints are affine in these, so one
    linear solve decides existence.
    """
    f = fmap.source.field
    v, w = fmap.source, fmap.target
    shapes = [
        ("g0", v.dim0, w.dim0),
        ("g1", v.dim1, w.dim1),
        ("t0", w.dim1, w.dim0),
        ("t1", w.dim0, w.dim1),
        ("u0", v.dim1, v.dim0),
        ("u1", v.dim0, v.dim1),
    ]
    offsets = {}
    total = 0
    for name, r, c in shapes:
        offsets[name] = total
        total += r * c
    shape_by_name = {name: (r, c) for name, r, c in shapes}

    def var(name, i, j):
        r, c = shape_by_name[name]
        return offsets[name] + i * c + j

    rows = []
    rhs = []

    def add_rows(terms, const, nrows, ncols):
        # terms: list of (coef_fn) adding into coefficient row per entry
        for i in range(nrows):
            for j in range(ncols):
                row = [f.zero()] * total
                for fn in terms:
                    fn(row, i, j)
                rows.append(row)
                rhs.append(const(i, j))

    zero_const = lambda i, j: f.zero()

    def term_left(mat_, name, sign=1):
        # contributes sign * (mat_ @ X_name)[i][j] => coef on X[name][s][j]
        s_coef = f.of(sign)

        def fn(row, i, j):
            r, c = shape_by_name[name]
            for s in range(r):
                coef = mat_[i][s]
                if coef:
                    idx = var(name, s, j)
                    row[idx] = in_field(f, row[idx] + s_coef * coef)

        return fn

    def term_right(name, mat_, sign=1):
        # contributes sign * (X_name @ mat_)[i][j] => coef on X[name][i][t]
        s_coef = f.of(sign)

        def fn(row, i, j):
            r, c = shape_by_name[name]
            for t in range(c):
                coef = mat_[t][j]
                if coef:
                    idx = var(name, i, t)
                    row[idx] = in_field(f, row[idx] + s_coef * coef)

        return fn

    # g is a DSV map: v.d0 @ g0 - g1 @ w.d0 = 0 ; v.d1 @ g1 - g0 @ w.d1 = 0
    add_rows([term_left(v.d0, "g0"), term_right("g1", w.d0, -1)], zero_const, v.dim1, w.dim0)
    add_rows([term_left(v.d1, "g1"), term_right("g0", w.d1, -1)], zero_const, v.dim0, w.dim1)
    # f g ~ id_W: f0 g0 - I = w.d1 t0 + t1 w.d0 ; f1 g1 - I = w.d0 t1 + t0 w.d1
    add_rows(
        [term_left(fmap.f0, "g0"), term_left(w.d1, "t0", -1), term_right("t1", w.d0, -1)],
        lambda i, j: f.one() if i == j else f.zero(),
        w.dim0,
        w.dim0,
    )
    add_rows(
        [term_left(fmap.f1, "g1"), term_left(w.d0, "t1", -1), term_right("t0", w.d1, -1)],
        lambda i, j: f.one() if i == j else f.zero(),
        w.dim1,
        w.dim1,
    )
    # g f ~ id_V: g0 f0 - I = v.d1 u0 + u1 v.d0 ; g1 f1 - I = v.d0 u1 + u0 v.d1
    add_rows(
        [term_right("g0", fmap.f0), term_left(v.d1, "u0", -1), term_right("u1", v.d0, -1)],
        lambda i, j: f.one() if i == j else f.zero(),
        v.dim0,
        v.dim0,
    )

    # careful: (g0 @ f0) has coef on g0 via right-multiplication by f0
    add_rows(
        [term_right("g1", fmap.f1), term_left(v.d0, "u1", -1), term_right("u0", v.d1, -1)],
        lambda i, j: f.one() if i == j else f.zero(),
        v.dim1,
        v.dim1,
    )

    sol = solve(f, tuple(tuple(r) for r in rows), rhs) if rows else []
    if sol is None:
        return None

    def unpack(name):
        r, c = shape_by_name[name]
        base = offsets[name]
        return tuple(tuple(sol[base + i * c + j] for j in range(c)) for i in range(r))

    g = DSVMap(w, v, unpack("g0"), unpack("g1"))
    return g, unpack("t0"), unpack("t1"), unpack("u0"), unpack("u1")


def swap_map(v: DSV, w: DSV) -> DSVMap:
    """Koszul braiding tensor(V, W) -> tensor(W, V): v (x) w -> (-1)^{|v||w|} w (x) v."""
    f = v.field
    if f != w.field:
        raise ValueError("field mismatch")
    vw = tensor(v, w)
    wv = tensor(w, v)

    def transposition(rows_a, cols_b, sign):
        # matrix of a (x) b -> b (x) a on basis e_i (x) e_j -> e_j (x) e_i
        m = [[f.zero()] * (rows_a * cols_b) for _ in range(rows_a * cols_b)]
        s = f.of(sign)
        for i in range(rows_a):
            for j in range(cols_b):
                m[j * rows_a + i][i * cols_b + j] = s
        return m

    # degree 0: [V0W0 | V1W1] -> [W0V0 | W1V1]; V1W1 picks up the sign
    a = transposition(v.dim0, w.dim0, +1)
    b = transposition(v.dim1, w.dim1, -1)
    f0 = [[f.zero()] * vw.dim0 for _ in range(wv.dim0)]
    for r in range(w.dim0 * v.dim0):
        for c in range(v.dim0 * w.dim0):
            f0[r][c] = a[r][c]
    off_r = w.dim0 * v.dim0
    off_c = v.dim0 * w.dim0
    for r in range(w.dim1 * v.dim1):
        for c in range(v.dim1 * w.dim1):
            f0[off_r + r][off_c + c] = b[r][c]
    # degree 1: [V1W0 | V0W1] -> [W1V0 | W0V1]: V1W0 -> W0V1 block, V0W1 -> W1V0
    f1 = [[f.zero()] * vw.dim1 for _ in range(wv.dim1)]
    c_swap = transposition(v.dim1, w.dim0, +1)  # V1W0 -> W0V1
    d_swap = transposition(v.dim0, w.dim1, +1)  # V0W1 -> W1V0
    # target layout: rows [W1V0 | W0V1]
    for r in range(w.dim1 * v.dim0):
        for c in range(v.dim0 * w.dim1):
            f1[r][v.dim1 * w.dim0 + c] = d_swap[r][c]
    for r in range(w.dim0 * v.dim1):
        for c in range(v.dim1 * w.dim0):
            f1[w.dim1 * v.dim0 + r][c] = c_swap[r][c]
    return DSVMap(vw, wv, tuple(map(tuple, f0)), tuple(map(tuple, f1)))


def _random_dsv_map(f, v, w, rng):
    """Random DSV map: a random point of the commuting-constraint solution space."""
    n_f0 = w.dim0 * v.dim0
    n_f1 = w.dim1 * v.dim1
    total = n_f0 + n_f1

    def var_f0(i, j):
        return i * v.dim0 + j

    def var_f1(i, j):
        return n_f0 + i * v.dim1 + j

    rows = []
    for i in range(w.dim1):
        for j in range(v.dim0):
            row = [f.zero()] * total
            for s in range(w.dim0):
                row[var_f0(s, j)] = in_field(f, row[var_f0(s, j)] + w.d0[i][s])
            for t in range(v.dim1):
                row[var_f1(i, t)] = in_field(f, row[var_f1(i, t)] - v.d0[t][j])
            rows.append(row)
    for i in range(w.dim0):
        for j in range(v.dim1):
            row = [f.zero()] * total
            for s in range(w.dim1):
                row[var_f1(s, j)] = in_field(f, row[var_f1(s, j)] + w.d1[i][s])
            for t in range(v.dim0):
                row[var_f0(i, t)] = in_field(f, row[var_f0(i, t)] - v.d1[t][j])
            rows.append(row)
    if rows:
        basis = dsv.kernel_basis(f, tuple(tuple(r) for r in rows), total)
    else:
        basis = [
            [f.one() if i == k else f.zero() for i in range(total)]
            for k in range(total)
        ]
    vec = [f.zero()] * total
    for bvec in basis:
        c = f.of(rng.randint(0, 4))
        vec = [in_field(f, x + c * y) for x, y in zip(vec, bvec)]
    f0 = tuple(
        tuple(vec[var_f0(i, j)] for j in range(v.dim0)) for i in range(w.dim0)
    )
    f1 = tuple(
        tuple(vec[var_f1(i, j)] for j in range(v.dim1)) for i in range(w.dim1)
    )
    return dsv.DSVMap(v, w, f0, f1)


# ---------------------------------------------------------------------------
# The dense DSV matrix layer, as written before the row-sparse kernels: every
# product entry one sum over the whole inner dimension, tensor, cone and
# chain-map matrices built from Kronecker products with identities and glued
# block by block, and a Gauss-Jordan elimination that rewrites every column
# of each row it clears.


def product_dense(f: Field, a, b, rows: int, cols: int):
    """a @ b as a rows x cols matrix, the inner dimension being len(b); each
    entry one plain sum, reduced once."""
    bcols = _transpose(b, cols)
    if f.char:
        p = f.char
        return tuple(tuple(sum(map(mul, a[i], col)) % p for col in bcols) for i in range(rows))
    zero = f.zero()
    return tuple(tuple(sum(map(mul, a[i], col), zero) for col in bcols) for i in range(rows))


def neg_dense(f: Field, a):
    """-a, every entry multiplied by -1 and reduced."""
    c = f.of(-1)
    if f.char:
        p = f.char
        return tuple(tuple(c * x % p for x in row) for row in a)
    return tuple(tuple(c * x for x in row) for row in a)


def kron(f: Field, a, b):
    """Kronecker product; basis e_i (x) e_j ordered with index i*cols(b)+j."""
    if f.char:
        p = f.char
        return tuple(tuple(x * y % p for x in ra for y in rb) for ra in a for rb in b)
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def block(f: Field, grid):
    """Assemble a block matrix from a 2D grid of blocks (shapes must agree)."""
    out = []
    for brow in grid:
        height = len(brow[0])
        for i in range(height):
            row = []
            for blk in brow:
                row.extend(blk[i])
            out.append(tuple(row))
    return tuple(out)


def tensor_dense(v: DSV, w: DSV) -> DSV:
    """Tensor product with Koszul-signed differential, from eight Kronecker
    products."""
    f = v.field
    i_v0, i_v1 = identity(f, v.dim0), identity(f, v.dim1)
    i_w0, i_w1 = identity(f, w.dim0), identity(f, w.dim1)
    # degree 0 basis: [V0W0 | V1W1]; degree 1 basis: [V1W0 | V0W1]
    d0 = block(f, [
        [kron(f, v.d0, i_w0), neg_dense(f, kron(f, i_v1, w.d1))],
        [kron(f, i_v0, w.d0), kron(f, v.d1, i_w1)],
    ])
    d1 = block(f, [
        [kron(f, v.d1, i_w0), kron(f, i_v0, w.d1)],
        [neg_dense(f, kron(f, i_v1, w.d0)), kron(f, v.d0, i_w1)],
    ])
    dim0 = v.dim0 * w.dim0 + v.dim1 * w.dim1
    dim1 = v.dim1 * w.dim0 + v.dim0 * w.dim1
    return DSV(f, dim0, dim1, d0, d1)


def mapping_cone_dense(fmap: DSVMap) -> DSV:
    """Cone W + V[1] of f: V -> W, d_k = [[w.d_k, f_(1-k)], [0, -v.d_(1-k)]]."""
    f = fmap.source.field
    v, w = fmap.source, fmap.target
    d0 = block(f, [[w.d0, fmap.f1], [zeros(f, v.dim0, w.dim0), neg_dense(f, v.d1)]])
    d1 = block(f, [[w.d1, fmap.f0], [zeros(f, v.dim1, w.dim1), neg_dense(f, v.d0)]])
    return DSV(f, w.dim0 + v.dim1, w.dim1 + v.dim0, d0, d1)


def chain_map_system_dense(src: DSV, tgt: DSV):
    """The chain-map conditions tgt.d0 m0 - m1 src.d0 = 0 and
    tgt.d1 m1 - m0 src.d1 = 0 over (m0, m1) vectorized row-major:
    vec(a X) = (a (x) I) vec X, vec(X b) = (I (x) b^T) vec X."""
    f = src.field

    def vec_left(a, cols):
        return kron(f, a, identity(f, cols))

    def vec_right(b, rows, cols):
        return kron(f, identity(f, rows), _transpose(b, cols))

    return block(f, [
        [vec_left(tgt.d0, src.dim0), vec_right(neg_dense(f, src.d0), tgt.dim1, src.dim0)],
        [vec_right(neg_dense(f, src.d1), tgt.dim0, src.dim1), vec_left(tgt.d1, src.dim1)],
    ])


def rref_dense(rows, ncols: int, p: int) -> tuple[list[list], list[int]]:
    """Reduced row echelon form over F_p (Q when p = 0), the same pivot rule
    as exact_linalg.rref, each cleared row rebuilt in full."""
    rows = [[x % p for x in row] if p else [Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, p) if p else 1 / rows[r][c]
        pivot = rows[r] = [x * inv % p for x in rows[r]] if p else [x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = (
                    [(x - f * y) % p for x, y in zip(row, pivot)] if p
                    else [x - f * y for x, y in zip(row, pivot)]
                )
        pivots.append(c)
    return rows, pivots


# ---------------------------------------------------------------------------
# Stable 2-type equivalence by search over both automorphism groups

DEFAULT_SEARCH_CAP = 1_000_000


def _iter_torsion_automorphisms(g: AbelianGroupPresentation, cap):
    """All automorphisms of the torsion part, as generator-image tuples."""
    factors = g.invariant_factors
    nt = len(factors)
    if nt == 0:
        yield ()
        return
    ranges = []
    for j in range(nt):
        col_choices = []
        for i in range(nt):
            # hom condition: factor d_j generator maps to elements killed by d_j
            step = factors[i] // gcd(factors[i], factors[j])
            col_choices.append(range(0, factors[i], step))
        ranges.append(list(itertools.product(*col_choices)))
    total = 1
    for r in ranges:
        total *= len(r)
        if total > cap[0]:
            raise ValueError("automorphism search exceeds cap")
    for cols in itertools.product(*ranges):
        cap[0] -= 1
        if cap[0] < 0:
            raise ValueError("automorphism search exceeds cap")
        if _is_torsion_automorphism(factors, cols):
            yield cols


def _prime_divisors(n: int) -> list[int]:
    """Primes dividing n >= 1, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def _is_torsion_automorphism(factors, cols) -> bool:
    """Bijectivity of the endomorphism given by generator images.

    An endomorphism of a finite abelian group is bijective iff no element of
    prime order lies in its kernel, so only the nonzero elements of each
    socle G[p] are mapped: coordinates (d // p) * a, a in [0, p), on the
    factors d that p divides.  Every prime divides the last factor."""
    for p in _prime_divisors(max(factors, default=1)):
        steps = [(j, d // p) for j, d in enumerate(factors) if d % p == 0]
        for coeffs in itertools.product(range(p), repeat=len(steps)):
            if not any(coeffs):
                continue
            img = [0] * len(factors)
            for (j, step), a in zip(steps, coeffs):
                for i, x in enumerate(cols[j]):
                    img[i] += a * step * x
            if not any(v % d for v, d in zip(img, factors)):
                return False
    return True


def _iter_free_blocks(rank: int, bound: int = 1):
    """Integer matrices with entries in [-bound, bound] and determinant +-1."""
    if rank == 0:
        yield ()
        return
    entries = range(-bound, bound + 1)
    for flat in itertools.product(entries, repeat=rank * rank):
        m = [list(flat[i * rank : (i + 1) * rank]) for i in range(rank)]
        if abs(_det(m)) == 1:
            yield tuple(tuple(r) for r in m)


def _det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    acc = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        acc += (-1) ** j * m[0][j] * _det(minor)
    return acc


def _iter_automorphisms(g: AbelianGroupPresentation, cap):
    """Automorphisms as (torsion_cols, free_block, mixed_block).

    The full automorphism acts by: free gen e_j -> sum_i A[i][j] e_i + sum C[i][j] t_i,
    torsion gen t_j -> sum_i D[i][j] t_i.  (Hom(torsion, free) = 0.)
    """
    if g.free_rank > 2:
        raise ValueError("equivalence search supports free rank <= 2")
    factors = g.invariant_factors
    nt = len(factors)
    mixed_choices = (
        list(itertools.product(*(range(d) for d in factors)))
        if nt
        else [()]
    )
    for d_cols in _iter_torsion_automorphisms(g, cap):
        for a_block in _iter_free_blocks(g.free_rank):
            for c_cols in itertools.product(mixed_choices, repeat=g.free_rank):
                cap[0] -= 1
                if cap[0] < 0:
                    raise ValueError("automorphism search exceeds cap")
                yield d_cols, a_block, c_cols


def _mod2_action(g: AbelianGroupPresentation, d_cols, a_block, c_cols):
    """Induced matrix on the mod-2 generators (rows/cols in mod-2 gen order)."""
    surv = _mod2_generator_indices(g)
    nt = len(g.invariant_factors)
    mat = []
    for r_pos in surv:
        row = []
        for c_pos in surv:
            if c_pos < nt:  # torsion source generator
                val = d_cols[c_pos][r_pos] if r_pos < nt else 0
            else:
                j = c_pos - nt
                if r_pos < nt:
                    val = c_cols[j][r_pos]
                else:
                    val = a_block[r_pos - nt][j]
            row.append(val % 2)
        mat.append(row)
    return mat


def _apply_pi1_automorphism(g: AbelianGroupPresentation, d_cols, a_block, c_cols, coords):
    nt = len(g.invariant_factors)
    n = nt + g.free_rank
    acc = [0] * n
    for j, c in enumerate(coords):
        if not c:
            continue
        if j < nt:
            for i in range(nt):
                acc[i] += c * d_cols[j][i]
        else:
            jj = j - nt
            for i in range(nt):
                acc[i] += c * c_cols[jj][i]
            for i in range(g.free_rank):
                acc[nt + i] += c * a_block[i][jj]
    return _canonical_element(g, tuple(acc))


def equivalent(d1: Stable2TypeData, d2: Stable2TypeData, cap: int = DEFAULT_SEARCH_CAP) -> bool:
    """Existence of isomorphisms (phi0, phi1) with phi1 . q = q' . (phi0 (x) Z/2)."""
    if d1.pi0 != d2.pi0 or d1.pi1 != d2.pi1:
        return False
    budget = [cap]
    s = len(d1.q)
    if s == 0:
        return True
    for phi0 in _iter_automorphisms(d1.pi0, budget):
        m2 = _mod2_action(d1.pi0, *phi0)
        for phi1 in _iter_automorphisms(d1.pi1, budget):
            ok = True
            for j in range(s):
                # phi1(q(g_j)) vs q'(phi0 (x) 2 applied to g_j)
                lhs = _apply_pi1_automorphism(d1.pi1, *phi1, d1.q[j])
                rhs = [0] * len(lhs)
                for i in range(s):
                    if m2[i][j]:
                        rhs = [x + y for x, y in zip(rhs, d2.q[i])]
                rhs = _canonical_element(d1.pi1, tuple(rhs))
                if tuple(lhs) != tuple(rhs):
                    ok = False
                    break
            if ok:
                return True
    return False


def is_torsion_automorphism_brute(factors, cols) -> bool:
    """Brute bijectivity check of the endomorphism given by generator images."""
    nt = len(factors)
    seen = set()
    for coords in itertools.product(*(range(d) for d in factors)):
        img = [0] * nt
        for j, c in enumerate(coords):
            if c:
                for i in range(nt):
                    img[i] = (img[i] + c * cols[j][i]) % factors[i]
        img = tuple(img)
        if img in seen:
            return False
        seen.add(img)
    return True
