"""Differential super vector spaces over exact fields (Q or F_p).

A DSV is a Z/2-graded space V_0 + V_1 with differentials d0: V_0 -> V_1 and
d1: V_1 -> V_0 composing to zero in both orders.  Tensor products use the
Koszul sign convention, which forces the odd line's tensor-square symmetry
to be -1.  A map is a quasi-isomorphism iff its mapping cone is acyclic.
A homotopy inverse is read off a contraction of that cone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from operator import add, mul

from .exact_linalg import Record, is_prime, kernel_mod_p, rref

# the dimension dim0 + dim1 of a DSV read from JSON, and of the tensor product
# of two such, checked before a matrix is built.  The products that validate
# a DSV cost O(nnz * dim) field operations, so dim^3 when every entry is
# nonzero: over Q, `supercoh dsv` on a (32|32) file of dense 44-character
# fractions takes 0.6-0.9 s, while the (32|32) tensor product of two dense
# (4|4) files, whose differentials are mostly zero, takes about 0.12 s
# (2-core x86 host, CPython 3.11.7)
JSON_MAX_DIM = 64

# the characters of one Q entry read from JSON, checked before any Fraction
# is built.  rref over Q grows the entries: with d0 = 0 and random integer
# entries in d1, a (16|16) file takes 0.25 s at 50 digits, 3.8 s at 400 and
# had not finished after 120 s at 4000; a (32|32) file takes 3.4 s at 50
# digits.  The dense fractions of the test fixtures have at most 28
# characters (same host as above)
JSON_MAX_Q_ENTRY = 64

# the field characteristic of a DSV read from JSON is below this bound, which
# is checked on the length of its digit string before int() reads it.  The
# 13 Miller-Rabin rounds of is_prime are exact below 3.3e24, so each accepted
# characteristic is proven prime; with no bound a 1332-digit prime took 3.8 s
# (same host as above)
JSON_MAX_CHAR = 2**64


class Field(Record):
    """Exact field tag: characteristic 0 (Q) or a prime p.  The arithmetic
    is in the matrix kernels below and in exact_linalg, which read p."""

    char: int

    def __post_init__(self):
        if self.char and not is_prime(self.char):
            raise ValueError("field characteristic must be 0 or a prime")

    def of(self, x):
        return Fraction(x) if self.char == 0 else x % self.char

    def zero(self):
        return Fraction(0) if self.char == 0 else 0

    def one(self):
        return Fraction(1) if self.char == 0 else 1

    def __str__(self):
        return "Q" if self.char == 0 else f"F{self.char}"


QQ = Field(0)


def _shape(m):
    return len(m), len(m[0]) if m else 0


def _shape_ok(m, rows: int, cols: int) -> bool:
    """Shape check that treats 0-row matrices as having any column count."""
    return len(m) == rows and all(len(r) == cols for r in m)


def zeros(f: Field, rows: int, cols: int):
    return ((f.zero(),) * cols,) * rows


def identity(f: Field, n: int):
    z = (f.zero(),)
    return tuple(z * i + (f.one(),) + z * (n - 1 - i) for i in range(n))


def mat(f: Field, data, rows: int, cols: int):
    data = [[f.of(x) for x in row] for row in data]
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ValueError(f"expected a {rows}x{cols} matrix")
    return tuple(tuple(row) for row in data)


def _transpose(m, cols: int):
    """Transpose of a matrix with cols columns (a matrix with no rows
    carries no column count)."""
    return tuple(zip(*m)) if m else ((),) * cols


def _product(f: Field, a, b, rows: int, cols: int):
    """a @ b as a rows x cols matrix, the inner dimension being len(b).

    The outer dimensions are explicit because a matrix with no rows carries
    no column count.  Row i sums x times row k of b over the nonzeros
    x = a[i][k] only, one C-level map per nonzero, and is reduced once:
    O(nnz(a) * cols) field operations.
    """
    p = f.char
    inner = range(len(b))
    zero_row = (f.zero(),) * cols
    out = []
    for i in range(rows):
        ai = a[i]
        acc = None
        for k in compress(inner, ai):
            terms = map(mul, repeat(ai[k]), b[k])
            acc = list(terms) if acc is None else list(map(add, acc, terms))
        if acc is None:
            out.append(zero_row)
        else:
            out.append(tuple(map(p.__rmod__, acc)) if p else tuple(acc))
    return tuple(out)


def mat_mul(f: Field, a, b):
    if not a:
        return ()
    if _shape(a)[1] != len(b):
        raise ValueError("dimension mismatch in matrix product")
    return _product(f, a, b, len(a), _shape(b)[1])


def is_zero_matrix(a) -> bool:
    return not any(map(any, a))


def _neg(f: Field, a):
    """-a; zero entries are kept as they are."""
    p = f.char
    if p:
        return tuple(tuple(-x % p if x else x for x in row) for row in a)
    return tuple(tuple(-x if x else x for x in row) for row in a)


def _assemble(f: Field, rows: int, cols: int, blocks):
    """The rows x cols matrix that is zero outside the given blocks.

    A block (r0, c0, a, left, right, sign) is sign * (I_left (x) a (x) I_right)
    with its top left entry at (r0, c0); blocks must not overlap.  Kronecker
    products order the basis e_i (x) e_j with index i*dim + j, dim the
    dimension of the second factor.  Each row of a lands, by index
    arithmetic, in left * right output rows at a stride of right columns, one
    slice assignment each: no product with an identity entry is formed.
    """
    zero = f.zero()
    out = [[zero] * cols for _ in range(rows)]
    for r0, c0, a, left, right, sign in blocks:
        if not a:
            continue
        if sign < 0:
            a = _neg(f, a)
        height, width = len(a) * right, len(a[0]) * right
        for k in range(left):
            c = c0 + k * width
            for i, row in enumerate(a):
                r = r0 + k * height + i * right
                for m in range(right):
                    out[r + m][c + m : c + width : right] = row
    return tuple(map(tuple, out))


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


# ---------------------------------------------------------------------------


class DSV(Record):
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
        if not is_zero_matrix(_product(f, self.d1, self.d0, self.dim0, self.dim0)):
            raise ValueError("d1 d0 != 0")
        if not is_zero_matrix(_product(f, self.d0, self.d1, self.dim1, self.dim1)):
            raise ValueError("d0 d1 != 0")

    @classmethod
    def make(cls, field: Field, dim0: int, dim1: int, d0, d1) -> "DSV":
        """A DSV from nested lists; a matrix with no columns is given as
        one empty row per row, so d0 of a (2|0) DSV is [] and d1 is [[], []]."""
        return cls(field, dim0, dim1, mat(field, d0, dim1, dim0), mat(field, d1, dim0, dim1))

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


class DSVMap(Record):
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
        v, w = self.source, self.target
        if _product(fld, w.d0, self.f0, w.dim1, v.dim0) != _product(fld, self.f1, v.d0, w.dim1, v.dim0):
            raise ValueError("map does not commute with d0")
        if _product(fld, w.d1, self.f1, w.dim0, v.dim1) != _product(fld, self.f0, v.d1, w.dim0, v.dim1):
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


class BoundedChainComplex(Record):
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
            composite = _product(f, self.boundaries[i], self.boundaries[i + 1], self.dims[i], self.dims[i + 2])
            if not is_zero_matrix(composite):
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
    # degree 0 basis: [V0W0 | V1W1]; degree 1 basis: [V1W0 | V0W1]
    n00, n10 = v.dim0 * w.dim0, v.dim1 * w.dim0
    dim0 = n00 + v.dim1 * w.dim1
    dim1 = n10 + v.dim0 * w.dim1
    d0 = _assemble(f, dim1, dim0, [
        (0, 0, v.d0, 1, w.dim0, 1),
        (0, n00, w.d1, v.dim1, 1, -1),
        (n10, 0, w.d0, v.dim0, 1, 1),
        (n10, n00, v.d1, 1, w.dim1, 1),
    ])
    d1 = _assemble(f, dim0, dim1, [
        (0, 0, v.d1, 1, w.dim0, 1),
        (0, n10, w.d1, v.dim0, 1, 1),
        (n00, 0, w.d0, v.dim1, 1, -1),
        (n00, n10, v.d0, 1, w.dim1, 1),
    ])
    return DSV(f, dim0, dim1, d0, d1)


def direct_sum(v: DSV, w: DSV) -> DSV:
    f = v.field
    if f != w.field:
        raise ValueError("field mismatch")
    dim0, dim1 = v.dim0 + w.dim0, v.dim1 + w.dim1
    d0 = _assemble(f, dim1, dim0, [(0, 0, v.d0, 1, 1, 1), (v.dim1, v.dim0, w.d0, 1, 1, 1)])
    d1 = _assemble(f, dim0, dim1, [(0, 0, v.d1, 1, 1, 1), (v.dim0, v.dim1, w.d1, 1, 1, 1)])
    return DSV(f, dim0, dim1, d0, d1)


def homology(v: DSV) -> tuple[int, int]:
    """(dim H_0, dim H_1)."""
    f = v.field
    r0 = rank(f, v.d0)
    r1 = rank(f, v.d1)
    return v.dim0 - r0 - r1, v.dim1 - r1 - r0


def euler_char(v: DSV) -> int:
    return v.dim0 - v.dim1


def _cone(fmap: DSVMap):
    """(dim0, dim1, d0, d1) of the cone W + V[1] of f: V -> W: degree 0 is
    W_0 + V_1, degree 1 is W_1 + V_0, and d_k = [[w.d_k, f_(1-k)], [0, -v.d_(1-k)]].
    d^2 = 0 follows from the checks of V, W and f, so it is not re-proved."""
    f, v, w = fmap.source.field, fmap.source, fmap.target
    dim0, dim1 = w.dim0 + v.dim1, w.dim1 + v.dim0
    d0 = _assemble(f, dim1, dim0, [(0, 0, w.d0, 1, 1, 1), (0, w.dim0, fmap.f1, 1, 1, 1), (w.dim1, w.dim0, v.d1, 1, 1, -1)])
    d1 = _assemble(f, dim0, dim1, [(0, 0, w.d1, 1, 1, 1), (0, w.dim1, fmap.f0, 1, 1, 1), (w.dim0, w.dim1, v.d0, 1, 1, -1)])
    return dim0, dim1, d0, d1


def is_quasi_iso(fmap: DSVMap) -> bool:
    """True iff the induced maps on H_0 and H_1 are isomorphisms, that is,
    by the long exact sequence of the cone, iff the mapping cone is acyclic."""
    f, (dim0, dim1, d0, d1) = fmap.source.field, _cone(fmap)
    return dim0 == dim1 == rank(f, d0) + rank(f, d1)


def chain_map_system(src: DSV, tgt: DSV):
    """Coefficient matrix, over the unknowns (m0, m1) vectorized row-major,
    of the conditions for m to be a DSV map src -> tgt:
    tgt.d0 m0 - m1 src.d0 = 0 and tgt.d1 m1 - m0 src.d1 = 0.

    vec(a X) = (a (x) I) vec X and vec(X b) = (I (x) b^T) vec X."""
    f = src.field
    n0, r1 = tgt.dim0 * src.dim0, tgt.dim1 * src.dim0
    return _assemble(f, r1 + tgt.dim0 * src.dim1, n0 + tgt.dim1 * src.dim1, [
        (0, 0, tgt.d0, 1, src.dim0, 1),
        (0, n0, _transpose(src.d0, src.dim0), tgt.dim1, 1, -1),
        (r1, 0, _transpose(src.d1, src.dim1), tgt.dim0, 1, -1),
        (r1, n0, tgt.d1, 1, src.dim1, 1),
    ])


def _contraction(f: Field, dim0: int, dim1: int, d0, d1):
    """(s0, s1), s0: C_0 -> C_1 and s1: C_1 -> C_0, with d1 s0 + s1 d0 = 1
    and d0 s1 + s0 d1 = 1 on the DSV C with these blocks; None unless acyclic.

    The pivot columns P_k of d_k span a complement of ker d_k, so when C is
    acyclic (then dim C_0 = dim C_1) the columns d_(1-k) e_j (j in P_(1-k))
    and e_j (j in P_k) are a basis of C_k.  s_k sends d_(1-k) e_j back to e_j
    and e_j to 0.
    """
    p0, p1 = rref(d0, dim0, f.char)[1], rref(d1, dim1, f.char)[1]
    if not dim0 == dim1 == len(p0) + len(p1):
        return None

    def half(d_in, p_in, p_own):
        basis = tuple(tuple(row[j] for j in p_in) + tuple(int(j == r) for j in p_own) for r, row in enumerate(d_in))
        inv, at = invert(f, basis), {j: i for i, j in enumerate(p_in)}
        return tuple(inv[at[r]] if r in at else (f.zero(),) * dim0 for r in range(dim0))

    return half(d1, p1, p0), half(d0, p0, p1)


def homotopy_inverse(fmap: DSVMap):
    """Witness (g, t0, t1, u0, u1) with f g ~ id_W via (t0, t1) and
    g f ~ id_V via (u0, u1); None iff no witness exists.

    f is a homotopy equivalence iff its cone W + V[1] is contractible, and
    the blocks of a contraction s are the witness: on W_0 + V_1 -> W_1 + V_0,
    s0 = [[-t0, *], [g0, u1]]; on W_1 + V_0 -> W_0 + V_1, s1 = [[-t1, *], [g1, u0]].
    """
    s = _contraction(fmap.source.field, *_cone(fmap))
    if s is None:
        return None
    (s0, s1), f = s, fmap.source.field
    w0, w1 = fmap.target.dim0, fmap.target.dim1
    g = DSVMap(fmap.target, fmap.source, tuple(r[:w0] for r in s0[w1:]), tuple(r[:w1] for r in s1[w0:]))
    t0 = _neg(f, tuple(r[:w0] for r in s0[:w1]))
    t1 = _neg(f, tuple(r[:w1] for r in s1[:w0]))
    return g, t0, t1, tuple(r[w1:] for r in s1[w0:]), tuple(r[w0:] for r in s0[w1:])


def epsilon(e: BoundedChainComplex) -> DSV:
    """Fold a bounded chain complex into a DSV by even/odd total degree."""
    f = e.field
    # dims[k]: the dimension of parity k so far; offsets[i]: where degree
    # index i starts in its parity's block
    dims, offsets = [0, 0], []
    for i, n in enumerate(e.dims):
        offsets.append(dims[(e.lowest + i) % 2])
        dims[(e.lowest + i) % 2] += n
    blocks = ([], [])
    for i, bnd in enumerate(e.boundaries):
        # bnd: degree index i+1 -> i, a block of d0 when i+1 is even
        blocks[(e.lowest + i + 1) % 2].append((offsets[i], offsets[i + 1], bnd, 1, 1, 1))
    dim0, dim1 = dims
    return DSV(f, dim0, dim1, _assemble(f, dim1, dim0, blocks[0]), _assemble(f, dim0, dim1, blocks[1]))


def _transposition(f: Field, a: int, b: int):
    """Matrix of x (x) y -> y (x) x from dimensions a (x) b to b (x) a:
    basis e_i (x) e_j, index i*b + j, goes to index j*a + i."""
    n = a * b
    return tuple(tuple(f.one() if c == (r % a) * b + r // a else f.zero() for c in range(n)) for r in range(n))


def swap_map(v: DSV, w: DSV) -> DSVMap:
    """Koszul braiding tensor(V, W) -> tensor(W, V): v (x) w -> (-1)^{|v||w|} w (x) v."""
    f = v.field
    if f != w.field:
        raise ValueError("field mismatch")
    vw, wv = tensor(v, w), tensor(w, v)
    # degree 0: [V0W0 | V1W1] -> [W0V0 | W1V1]; V1W1 picks up the sign
    f0 = _assemble(f, wv.dim0, vw.dim0, [
        (0, 0, _transposition(f, v.dim0, w.dim0), 1, 1, 1),
        (w.dim0 * v.dim0, v.dim0 * w.dim0, _transposition(f, v.dim1, w.dim1), 1, 1, -1),
    ])
    # degree 1: [V1W0 | V0W1] -> [W1V0 | W0V1]
    f1 = _assemble(f, wv.dim1, vw.dim1, [
        (0, v.dim1 * w.dim0, _transposition(f, v.dim0, w.dim1), 1, 1, 1),
        (w.dim1 * v.dim0, 0, _transposition(f, v.dim1, w.dim0), 1, 1, 1),
    ])
    return DSVMap(vw, wv, f0, f1)
