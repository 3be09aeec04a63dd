"""Differential super vector spaces over exact fields (Q or F_p).

A DSV is a Z/2-graded space V_0 + V_1 with differentials d0: V_0 -> V_1 and
d1: V_1 -> V_0 composing to zero in both orders.  Tensor products use the
Koszul sign convention, which forces the odd line's tensor-square symmetry
to be -1.  Homotopy inverses are found by solving one affine linear system
over the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_linalg import is_prime, kernel_mod_p, rref


@dataclass(frozen=True)
class Field:
    """Exact field tag: characteristic 0 (Q) or a prime p."""

    char: int

    def __post_init__(self):
        if self.char == 0:
            return
        if not is_prime(self.char):
            raise ValueError("field characteristic must be 0 or a prime")

    def of(self, x):
        return Fraction(x) if self.char == 0 else x % self.char

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def sub(self, a, b):
        return a - b if self.char == 0 else (a - b) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def inv(self, a):
        if self.char == 0:
            return Fraction(1) / a
        return pow(a, -1, self.char)

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def zero(self):
        return Fraction(0) if self.char == 0 else 0

    def one(self):
        return Fraction(1) if self.char == 0 else 1

    def is_zero(self, a):
        return a == 0

    def __str__(self):
        return "Q" if self.char == 0 else f"F{self.char}"


QQ = Field(0)


def _shape(m):
    return len(m), len(m[0]) if m else 0


def _shape_ok(m, rows: int, cols: int) -> bool:
    """Shape check that treats 0-row matrices as having any column count."""
    return len(m) == rows and all(len(r) == cols for r in m)


def zeros(f: Field, rows: int, cols: int):
    return tuple(tuple(f.zero() for _ in range(cols)) for _ in range(rows))


def identity(f: Field, n: int):
    return tuple(
        tuple(f.one() if i == j else f.zero() for j in range(n)) for i in range(n)
    )


def mat(f: Field, data, rows: int, cols: int):
    data = [[f.of(x) for x in row] for row in data]
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ValueError(f"expected a {rows}x{cols} matrix")
    return tuple(tuple(row) for row in data)


def mat_mul(f: Field, a, b):
    ra, ca = _shape(a)
    rb, cb = _shape(b)
    if not a:
        return ()
    if ca != rb:
        raise ValueError("dimension mismatch in matrix product")
    out = []
    for i in range(ra):
        row = []
        for j in range(cb):
            acc = f.zero()
            for k in range(ca):
                acc = f.add(acc, f.mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_scale(f: Field, c, a):
    return tuple(tuple(f.mul(c, x) for x in row) for row in a)


def is_zero_matrix(a) -> bool:
    return all(x == 0 for row in a for x in row)


def kron(f: Field, a, b):
    """Kronecker product; basis e_i (x) e_j ordered with index i*cols(b)+j."""
    ra, ca = _shape(a)
    rb, cb = _shape(b)
    out = []
    for i in range(ra):
        for k in range(rb):
            row = []
            for j in range(ca):
                for l in range(cb):
                    row.append(f.mul(a[i][j], b[k][l]))
            out.append(tuple(row))
    return tuple(out) if out else zeros(f, ra * rb, ca * cb)


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


def rank(f: Field, a) -> int:
    return len(rref(a, _shape(a)[1], f.char)[1])


def kernel_basis(f: Field, a, ncols: int | None = None):
    """Columns spanning ker(a), as a list of column vectors.

    ncols must be given when a has no rows (the shape is not recoverable).
    """
    return kernel_mod_p(a, _shape(a)[1] if ncols is None else ncols, f.char)


def invert(f: Field, a):
    """Inverse of a square matrix, or None if singular."""
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    rows, pivots = rref(aug, n, f.char)
    if len(pivots) < n:
        return None
    return tuple(tuple(row[n:]) for row in rows)


def solve(f: Field, a, b, ncols: int | None = None):
    """One solution x of a*x = b over the field, or None (free vars 0)."""
    nc = _shape(a)[1] if ncols is None else ncols
    rows, pivots = rref([list(ra) + [bv] for ra, bv in zip(a, b)], nc, f.char)
    if any(row[nc] for row in rows[len(pivots) :]):
        return None
    x = [f.zero()] * nc
    for row, c in zip(rows, pivots):
        x[c] = row[nc]
    return x


# ---------------------------------------------------------------------------


def _composites_equal(f: Field, a, b, c, d, rows: int, cols: int) -> bool:
    """Entrywise test a@b == c@d on an explicit rows x cols shape."""
    for i in range(rows):
        for j in range(cols):
            left = f.zero()
            for s in range(len(b)):
                left = f.add(left, f.mul(a[i][s], b[s][j]))
            right = f.zero()
            for t in range(len(d)):
                right = f.add(right, f.mul(c[i][t], d[t][j]))
            if left != right:
                return False
    return True


@dataclass(frozen=True)
class DSV:
    """Differential super vector space (V_0 + V_1, d0, d1) with d0d1 = d1d0 = 0."""

    field: Field
    dim0: int
    dim1: int
    d0: tuple  # dim1 x dim0, map V_0 -> V_1
    d1: tuple  # dim0 x dim1, map V_1 -> V_0

    def __post_init__(self):
        f = self.field
        if not _shape_ok(self.d0, self.dim1, self.dim0):
            raise ValueError("d0 must be dim1 x dim0")
        if not _shape_ok(self.d1, self.dim0, self.dim1):
            raise ValueError("d1 must be dim0 x dim1")
        zero0 = zeros(f, self.dim0, 0)
        if not _composites_equal(f, self.d1, self.d0, zero0, (), self.dim0, self.dim0):
            raise ValueError("d1 d0 != 0")
        zero1 = zeros(f, self.dim1, 0)
        if not _composites_equal(f, self.d0, self.d1, zero1, (), self.dim1, self.dim1):
            raise ValueError("d0 d1 != 0")

    @classmethod
    def make(cls, field: Field, dim0: int, dim1: int, d0, d1) -> "DSV":
        d0 = mat(field, d0, dim1, dim0) if dim1 and dim0 else zeros(field, dim1, dim0)
        d1 = mat(field, d1, dim0, dim1) if dim0 and dim1 else zeros(field, dim0, dim1)
        return cls(field, dim0, dim1, d0, d1)

    @classmethod
    def unit(cls, field: Field) -> "DSV":
        """The monoidal unit: the field in even degree, zero differentials."""
        return cls(field, 1, 0, zeros(field, 0, 1), zeros(field, 1, 0))

    @classmethod
    def odd_line(cls, field: Field) -> "DSV":
        return cls(field, 0, 1, zeros(field, 1, 0), zeros(field, 0, 1))

    def to_json_dict(self) -> dict:
        return {
            "field": str(self.field),
            "dim0": self.dim0,
            "dim1": self.dim1,
            "d0": [[str(x) for x in row] for row in self.d0],
            "d1": [[str(x) for x in row] for row in self.d1],
        }


@dataclass(frozen=True)
class DSVMap:
    """Graded map commuting with both differentials exactly."""

    source: DSV
    target: DSV
    f0: tuple  # target.dim0 x source.dim0
    f1: tuple  # target.dim1 x source.dim1

    def __post_init__(self):
        fld = self.source.field
        if fld != self.target.field:
            raise ValueError("field mismatch")
        if not _shape_ok(self.f0, self.target.dim0, self.source.dim0):
            raise ValueError("f0 has wrong shape")
        if not _shape_ok(self.f1, self.target.dim1, self.source.dim1):
            raise ValueError("f1 has wrong shape")
        if not _composites_equal(
            fld, self.target.d0, self.f0, self.f1, self.source.d0,
            self.target.dim1, self.source.dim0,
        ):
            raise ValueError("map does not commute with d0")
        if not _composites_equal(
            fld, self.target.d1, self.f1, self.f0, self.source.d1,
            self.target.dim0, self.source.dim1,
        ):
            raise ValueError("map does not commute with d1")

    @classmethod
    def make(cls, source: DSV, target: DSV, f0, f1) -> "DSVMap":
        fld = source.field
        return cls(
            source,
            target,
            mat(fld, f0, target.dim0, source.dim0),
            mat(fld, f1, target.dim1, source.dim1),
        )

    @classmethod
    def identity_map(cls, v: DSV) -> "DSVMap":
        return cls(v, v, identity(v.field, v.dim0), identity(v.field, v.dim1))


@dataclass(frozen=True)
class BoundedChainComplex:
    """Finite chain complex: dims[i] is the dimension in degree lowest+i."""

    field: Field
    lowest: int
    dims: tuple[int, ...]
    boundaries: tuple  # boundaries[i]: degree lowest+i+1 -> lowest+i

    def __post_init__(self):
        f = self.field
        if len(self.boundaries) != max(len(self.dims) - 1, 0):
            raise ValueError("need one boundary map per adjacent degree pair")
        for i, d in enumerate(self.boundaries):
            if not _shape_ok(d, self.dims[i], self.dims[i + 1]):
                raise ValueError(f"boundary {i} has wrong shape")
        for i in range(len(self.boundaries) - 1):
            zero = zeros(f, self.dims[i], 0)
            if not _composites_equal(
                f, self.boundaries[i], self.boundaries[i + 1], zero, (),
                self.dims[i], self.dims[i + 2],
            ):
                raise ValueError("boundary composite is nonzero")

    @classmethod
    def make(cls, field: Field, lowest: int, dims, boundaries) -> "BoundedChainComplex":
        dims = tuple(dims)
        mats = tuple(
            mat(field, b, dims[i], dims[i + 1]) for i, b in enumerate(boundaries)
        )
        return cls(field, lowest, dims, mats)

    def euler_characteristic(self) -> int:
        return sum((-1) ** (self.lowest + i) * d for i, d in enumerate(self.dims))


# ---------------------------------------------------------------------------


def tensor(v: DSV, w: DSV) -> DSV:
    """Tensor product with Koszul-signed differential."""
    f = v.field
    if f != w.field:
        raise ValueError("field mismatch")
    i_v0, i_v1 = identity(f, v.dim0), identity(f, v.dim1)
    i_w0, i_w1 = identity(f, w.dim0), identity(f, w.dim1)
    # degree 0 basis: [V0W0 | V1W1]; degree 1 basis: [V1W0 | V0W1]
    d0 = block(
        f,
        [
            [kron(f, v.d0, i_w0), mat_scale(f, f.neg(f.one()), kron(f, i_v1, w.d1))],
            [kron(f, i_v0, w.d0), kron(f, v.d1, i_w1)],
        ],
    )
    d1 = block(
        f,
        [
            [kron(f, v.d1, i_w0), kron(f, i_v0, w.d1)],
            [mat_scale(f, f.neg(f.one()), kron(f, i_v1, w.d0)), kron(f, v.d0, i_w1)],
        ],
    )
    dim0 = v.dim0 * w.dim0 + v.dim1 * w.dim1
    dim1 = v.dim1 * w.dim0 + v.dim0 * w.dim1
    return DSV(f, dim0, dim1, d0, d1)


def direct_sum(v: DSV, w: DSV) -> DSV:
    f = v.field
    if f != w.field:
        raise ValueError("field mismatch")
    d0 = block(
        f,
        [
            [v.d0, zeros(f, v.dim1, w.dim0)],
            [zeros(f, w.dim1, v.dim0), w.d0],
        ],
    )
    d1 = block(
        f,
        [
            [v.d1, zeros(f, v.dim0, w.dim1)],
            [zeros(f, w.dim0, v.dim1), w.d1],
        ],
    )
    return DSV(f, v.dim0 + w.dim0, v.dim1 + w.dim1, d0, d1)


def homology(v: DSV) -> tuple[int, int]:
    """(dim H_0, dim H_1)."""
    f = v.field
    r0 = rank(f, v.d0)
    r1 = rank(f, v.d1)
    return v.dim0 - r0 - r1, v.dim1 - r1 - r0


def euler_char(v: DSV) -> int:
    return v.dim0 - v.dim1


def is_invertible(v: DSV) -> bool:
    """Tensor-invertibility up to equivalence: total homology dimension 1."""
    h0, h1 = homology(v)
    return h0 + h1 == 1


def unit_virtual_dim(v: DSV) -> int:
    return v.dim0 - v.dim1


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
        img = [sum_mul(f, row, vec) for row in fmat]
        cols.append(img)
    return _col_rank(f, cols) - base_rank == h_src


def sum_mul(f: Field, row, vec):
    acc = f.zero()
    for a, b in zip(row, vec):
        acc = f.add(acc, f.mul(a, b))
    return acc


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
        s_coef = f.one() if sign > 0 else f.neg(f.one())

        def fn(row, i, j):
            r, c = shape_by_name[name]
            for s in range(r):
                coef = mat_[i][s]
                if not f.is_zero(coef):
                    idx = var(name, s, j)
                    row[idx] = f.add(row[idx], f.mul(s_coef, coef))

        return fn

    def term_right(name, mat_, sign=1):
        # contributes sign * (X_name @ mat_)[i][j] => coef on X[name][i][t]
        s_coef = f.one() if sign > 0 else f.neg(f.one())

        def fn(row, i, j):
            r, c = shape_by_name[name]
            for t in range(c):
                coef = mat_[t][j]
                if not f.is_zero(coef):
                    idx = var(name, i, t)
                    row[idx] = f.add(row[idx], f.mul(s_coef, coef))

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


def epsilon(e: BoundedChainComplex) -> DSV:
    """Fold a bounded chain complex into a DSV by even/odd total degree."""
    f = e.field
    degrees = [e.lowest + i for i in range(len(e.dims))]
    even = [i for i, d in enumerate(degrees) if d % 2 == 0]
    odd = [i for i, d in enumerate(degrees) if d % 2 != 0]
    dim0 = sum(e.dims[i] for i in even)
    dim1 = sum(e.dims[i] for i in odd)
    even_off = {}
    off = 0
    for i in even:
        even_off[i] = off
        off += e.dims[i]
    odd_off = {}
    off = 0
    for i in odd:
        odd_off[i] = off
        off += e.dims[i]
    d0 = [[f.zero()] * dim0 for _ in range(dim1)]
    d1 = [[f.zero()] * dim1 for _ in range(dim0)]
    for i, bnd in enumerate(e.boundaries):
        # bnd: degree index i+1 -> i
        src, dst = i + 1, i
        if degrees[src] % 2 == 0:
            # even source, odd target
            for r in range(e.dims[dst]):
                for c in range(e.dims[src]):
                    d0[odd_off[dst] + r][even_off[src] + c] = bnd[r][c]
        else:
            for r in range(e.dims[dst]):
                for c in range(e.dims[src]):
                    d1[even_off[dst] + r][odd_off[src] + c] = bnd[r][c]
    return DSV(f, dim0, dim1, tuple(map(tuple, d0)), tuple(map(tuple, d1)))


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
        s = f.one() if sign > 0 else f.neg(f.one())
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
