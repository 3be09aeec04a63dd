"""Finite ordered simplicial complexes and their cochain complexes.

Vertices are integers 0..n-1 and carry their natural total order; every
simplex is stored as a strictly increasing vertex tuple.  Cochains take
values in Z (modulus 0) or Z/n, canonically reduced to [0, n).  Cohomology
is computed exactly, with explicit cocycle representatives for every
generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, cycle, repeat
from math import gcd
from operator import add, itemgetter, mod, mul, neg, sub

from .exact_linalg import (
    AbelianGroupPresentation,
    F2Echelon,
    IntMatrix,
    SparseMatrix,
    _OpLogSolver,
    chain_coordinates,
    f2_kernel,
    f2_pack,
    f2_unpack,
    invariant_factor_chain,
)

DEFAULT_DIMENSION_CAP = 6
# bounds on a complex read from JSON, checked before anything is built: the
# vertex count, and the simplex count of the closure as bounded by the
# maximal simplices, sum(2^|s| - 1)
JSON_MAX_VERTICES = 100_000
JSON_MAX_SIMPLICES = 500_000


def _gather(indices: tuple):
    """values -> tuple(values[i] for i in indices), in one C-level call where
    itemgetter allows it: it returns a bare value for one index and needs at
    least one."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (i,) = indices
        return lambda values: (values[i],)
    return lambda values: ()


class SimplicialComplex:
    """Finite simplicial complex given by maximal simplices, closed eagerly."""

    def __init__(self, vertex_count: int, maximal_simplices, dimension_cap: int = DEFAULT_DIMENSION_CAP):
        if vertex_count < 0:
            raise ValueError("vertex_count must be >= 0")
        self.vertex_count = vertex_count
        normalized = []
        for s in maximal_simplices:
            s = tuple(s)
            if any(a >= b for a, b in zip(s, s[1:])):
                raise ValueError(f"simplex {s} is not strictly increasing")
            if s and (s[0] < 0 or s[-1] >= vertex_count):
                raise ValueError(f"simplex {s} has out-of-range vertices")
            if len(s) - 1 > dimension_cap:
                raise ValueError(f"simplex {s} exceeds dimension cap {dimension_cap}")
            normalized.append(s)
        self.maximal_simplices = tuple(sorted(set(normalized)))
        by_dim: dict[int, set] = {}
        for v in range(vertex_count):
            by_dim.setdefault(0, set()).add((v,))
        for s in self.maximal_simplices:
            for k in range(1, len(s) + 1):
                for face in combinations(s, k):
                    by_dim.setdefault(k - 1, set()).add(face)
        self.dim = max(by_dim) if by_dim else -1
        self._simplices = tuple(
            tuple(sorted(by_dim.get(q, ()))) for q in range(self.dim + 1)
        )
        self._index = [
            {s: i for i, s in enumerate(level)} for level in self._simplices
        ]
        # caches live here, declared up front: attributes added later would
        # turn every attribute load on the complex into a slower lookup.
        # _face_tables holds the face-index vectors of the cochain kernels,
        # keyed ("faces", q) and ("cup", p, q); see face_table and cup_table
        self._face_tables: dict = {}
        self._coboundaries: dict[int, SparseMatrix] = {}
        self._cohom_cache: dict = {}
        self._components = None

    def simplices(self, q: int) -> tuple:
        if 0 <= q <= self.dim:
            return self._simplices[q]
        return ()

    def simplex_count(self, q: int) -> int:
        return len(self.simplices(q))

    def index_of(self, simplex) -> int:
        simplex = tuple(simplex)
        q = len(simplex) - 1
        if q < 0 or q > self.dim:
            raise KeyError(simplex)
        return self._index[q][simplex]

    def face_table(self, q: int) -> tuple:
        """(indices, gathers) for delta_q, q >= 0.  indices holds q + 2 vectors:
        entry i of vector k is the index of the k-th face of the i-th
        (q+1)-simplex.  gathers[k] maps a q-cochain's values to their tuple
        on those faces."""
        key = ("faces", q)
        table = self._face_tables.get(key)
        if table is None:
            upper = self.simplices(q + 1)
            indices = tuple(
                tuple(self._index[q][s[:k] + s[k + 1 :]] for s in upper) for k in range(q + 2)
            )
            table = self._face_tables[key] = (indices, tuple(map(_gather, indices)))
        return table

    def cup_table(self, p: int, q: int) -> tuple:
        """(front, back) gathers for the cup product of a p- and a q-cochain:
        the values on the front p-face and the back q-face of every
        (p+q)-simplex."""
        key = ("cup", p, q)
        table = self._face_tables.get(key)
        if table is None:
            top = self.simplices(p + q)
            front = tuple(self._index[p][s[: p + 1]] for s in top)
            back = tuple(self._index[q][s[p:]] for s in top)
            table = self._face_tables[key] = (_gather(front), _gather(back))
        return table

    def contains(self, simplex) -> bool:
        simplex = tuple(simplex)
        q = len(simplex) - 1
        return 0 <= q <= self.dim and simplex in self._index[q]

    def euler_characteristic(self) -> int:
        return sum((-1) ** q * self.simplex_count(q) for q in range(self.dim + 1))

    def components(self) -> tuple:
        """Connected components as sorted vertex tuples, ordered by least vertex."""
        if self._components is None:
            parent = list(range(self.vertex_count))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in self.simplices(1):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
            groups: dict[int, list[int]] = {}
            for v in range(self.vertex_count):
                groups.setdefault(find(v), []).append(v)
            self._components = tuple(tuple(groups[r]) for r in sorted(groups))
        return self._components

    def component_of(self, vertex: int) -> int:
        for i, comp in enumerate(self.components()):
            if vertex in comp:
                return i
        raise KeyError(vertex)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, SimplicialComplex)
            and self.vertex_count == other.vertex_count
            and self.maximal_simplices == other.maximal_simplices
        )

    def __hash__(self):
        return hash((self.vertex_count, self.maximal_simplices))

    def __repr__(self):
        return (
            f"SimplicialComplex({self.vertex_count} vertices, dim {self.dim}, "
            f"{len(self.maximal_simplices)} maximal simplices)"
        )

    def to_json_dict(self) -> dict:
        return {
            "vertex_count": self.vertex_count,
            "maximal_simplices": [list(s) for s in self.maximal_simplices],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimplicialComplex":
        vertex_count = int(data["vertex_count"])
        if vertex_count > JSON_MAX_VERTICES:
            raise ValueError(f"vertex_count {vertex_count} exceeds {JSON_MAX_VERTICES}")
        maximal = [tuple(s) for s in data["maximal_simplices"]]
        bound = sum((1 << len(s)) - 1 for s in maximal)
        if bound > JSON_MAX_SIMPLICES:
            raise ValueError(f"closure bound {bound} of the maximal simplices exceeds {JSON_MAX_SIMPLICES}")
        return cls(vertex_count, maximal)


@dataclass(frozen=True)
class Cochain:
    """q-cochain with integer values indexed by the fixed q-simplex order.

    modulus 0 means integer coefficients; otherwise values are reduced to
    [0, modulus).
    """

    complex: SimplicialComplex
    degree: int
    modulus: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError(f"cochain degree must be >= 0, got {self.degree}")
        expected = self.complex.simplex_count(self.degree)
        if len(self.values) != expected:
            raise ValueError(
                f"cochain in degree {self.degree} needs {expected} values, got {len(self.values)}"
            )
        if self.modulus < 0:
            raise ValueError("modulus must be >= 0")
        if self.modulus:
            object.__setattr__(
                self, "values", tuple(map(mod, self.values, repeat(self.modulus)))
            )

    @classmethod
    def zero(cls, complex: SimplicialComplex, degree: int, modulus: int) -> "Cochain":
        return cls(complex, degree, modulus, (0,) * complex.simplex_count(degree))

    def same_context(self, other: "Cochain") -> bool:
        return (
            self.complex == other.complex
            and self.degree == other.degree
            and self.modulus == other.modulus
        )

    def _require_context(self, other: "Cochain"):
        if not self.same_context(other):
            raise ValueError("cochain context mismatch (complex, degree or modulus)")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._require_context(other)
        return Cochain(
            self.complex,
            self.degree,
            self.modulus,
            tuple(map(add, self.values, other.values)),
        )

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._require_context(other)
        return Cochain(
            self.complex,
            self.degree,
            self.modulus,
            tuple(map(sub, self.values, other.values)),
        )

    def __neg__(self) -> "Cochain":
        return Cochain(self.complex, self.degree, self.modulus, tuple(map(neg, self.values)))

    def scale(self, k: int) -> "Cochain":
        return Cochain(self.complex, self.degree, self.modulus, tuple(map(mul, repeat(k), self.values)))

    def is_zero(self) -> bool:
        return not any(self.values)

    def value_on(self, simplex) -> int:
        return self.values[self.complex.index_of(simplex)]

    def coboundary_values(self) -> tuple[int, ...]:
        """Values of delta on the (q+1)-simplices as integers, not reduced:
        the alternating sum of the values gathered on each face."""
        first, *rest = self.complex.face_table(self.degree)[1]
        values = self.values
        acc = first(values)
        for gather, op in zip(rest, cycle((sub, add))):
            acc = map(op, acc, gather(values))
        return tuple(acc)

    def coboundary(self) -> "Cochain":
        return Cochain(self.complex, self.degree + 1, self.modulus, self.coboundary_values())

    def is_cocycle(self) -> bool:
        d = self.coboundary_values()
        if self.modulus:
            return not any(map(mod, d, repeat(self.modulus)))
        return not any(d)


@dataclass(frozen=True)
class CohomologyClass:
    """A cochain together with its checked cocycle certificate."""

    cochain: Cochain

    def __post_init__(self):
        if not self.cochain.is_cocycle():
            raise ValueError("representative is not a cocycle")

    @property
    def complex(self) -> SimplicialComplex:
        return self.cochain.complex

    @property
    def degree(self) -> int:
        return self.cochain.degree

    @property
    def modulus(self) -> int:
        return self.cochain.modulus


def _coboundary(x: SimplicialComplex, q: int) -> SparseMatrix:
    """delta_q: C^q -> C^{q+1}, cached on the complex; degenerate degrees
    give empty matrices."""
    q = max(q, -1)
    m = x._coboundaries.get(q)
    if m is None:
        if q < 0:
            data = [{} for _ in x.simplices(0)]
        else:
            signs = [(-1) ** k for k in range(q + 2)]
            data = [dict(zip(faces, signs)) for faces in zip(*x.face_table(q)[0])]
        m = x._coboundaries[q] = SparseMatrix(len(data), x.simplex_count(q), data)
    return m


def coboundary_matrix(x: SimplicialComplex, q: int, n: int = 0) -> IntMatrix:
    """Matrix of delta_q: C^q -> C^{q+1}; entries reduced to [0, n) when n > 0."""
    if q < 0 or q > x.dim:
        raise ValueError(f"degree {q} out of range for complex of dimension {x.dim}")
    m = _coboundary(x, q).to_dense()
    if n:
        return IntMatrix(m.rows, m.cols, tuple(v % n for v in m.entries))
    return m


def _no_coordinates(xc: Cochain) -> list[int] | None:
    """Class coordinates in a trivial group: [] for a cocycle."""
    return [] if xc.is_cocycle() else None


def _cohomology_degree_zero(x: SimplicialComplex, n: int):
    comps = x.components()
    basis = []
    for comp in comps:
        vals = [0] * x.vertex_count
        for v in comp:
            vals[v] = 1
        basis.append(CohomologyClass(Cochain(x, 0, n, tuple(vals))))
    if n == 0:
        pres = AbelianGroupPresentation(len(comps), ())
        orders = [0] * len(comps)
    else:
        pres = AbelianGroupPresentation(0, (n,) * len(comps)) if comps else AbelianGroupPresentation.trivial()
        orders = [n] * len(comps)

    def coordinates(xc):
        # a 0-cocycle is constant on each component
        return [xc.values[comp[0]] for comp in comps] if xc.is_cocycle() else None

    return pres, basis, orders, coordinates


def _cohomology_mod_2(x: SimplicialComplex, q: int):
    m0 = x.simplex_count(q)
    kernel = f2_kernel(_coboundary(x, q).f2_rows(), m0)
    # im delta_{q-1}, then each kernel vector outside the span so far, tagged
    # with its own bit above the columns
    span = F2Echelon(m0)
    for col_bits in _coboundary(x, q - 1).transpose().f2_rows():
        span.insert(col_bits)
    reps = []
    for bits in kernel:
        if span.reduce(bits) & span.mask:
            span.insert(bits | 1 << (m0 + len(reps)))
            reps.append(bits)
    basis = [
        CohomologyClass(Cochain(x, q, 2, tuple(f2_unpack(bits, m0)))) for bits in reps
    ]
    h = len(basis)
    pres = AbelianGroupPresentation(0, (2,) * h) if h else AbelianGroupPresentation.trivial()

    def coordinates(xc):
        # a cocycle reduces to zero in its columns, leaving the tags of the
        # representatives it combines
        rest = span.reduce(f2_pack(xc.values))
        return None if rest & span.mask else [(rest >> (m0 + t)) & 1 for t in range(h)]

    return pres, basis, [2] * h, coordinates


def _chain_generators(chain, vector, length: int) -> list[list[int]]:
    """One generator per factor of chain = invariant_factor_chain(orders):
    the sum over its parts (d, part, key) of d // part times vector(key), the
    generator of Z/d scaled to order part."""
    gens = []
    for _, parts in chain:
        acc = [0] * length
        for d, part, key in parts:
            scale = d // part
            for i, v in enumerate(vector(key)):
                if v:
                    acc[i] += scale * v
        gens.append(acc)
    return gens


def _cohomology_integral_sparse(x: SimplicialComplex, q: int):
    """H^q(X; Z) from sparse op-log factorizations.

    Cocycles are the kernel of delta_q, whose factorization U delta_q V = D
    (kept on the coboundary) gives a kernel basis.  The coordinates of the
    columns of delta_{q-1} in that basis form a relation matrix whose
    diagonalization gives the group and, through logged transforms, the
    generators and the coordinates of a class.  The mod-n records of the
    same degree are built from this record and the same factorization
    (see _cohomology_mod_n).
    """
    ksolver = _coboundary(x, q).solver()
    k = len(ksolver.free_cols)
    if k == 0:
        return AbelianGroupPresentation.trivial(), [], [], _no_coordinates

    relations = _coboundary(x, q - 1).transpose().data
    coord_rows = ksolver.free_coordinate_rows(relations)
    if coord_rows is None:
        raise ArithmeticError("vector not in kernel lattice")
    wsolver = _OpLogSolver(SparseMatrix(k, len(relations), coord_rows))
    # a part of order power of the pivot row of order d_row is d_row // power
    # times its U^-1 column
    chain = invariant_factor_chain([(abs(d), row) for row, _, d in wsolver.pivots])
    free_rows = wsolver.zero_rows
    uinv = cache(wsolver.u_inverse_column)
    gen_coord_vectors = _chain_generators(chain, uinv, k) + [uinv(r) for r in free_rows]
    orders = [f for f, _ in chain] + [0] * len(free_rows)
    pres = AbelianGroupPresentation(len(free_rows), tuple(f for f, _ in chain))
    basis = [
        CohomologyClass(Cochain(x, q, 0, tuple(ksolver.kernel_combination(coords))))
        for coords in gen_coord_vectors
    ]

    def coordinates(xc):
        # y = U (kernel coordinates) gives the class as y_row modulo d_row on
        # pivot rows, y_row on free rows
        if any(xc.coboundary_values()):
            return None
        y = wsolver.row_transform(ksolver.free_coordinates(xc.values))
        return chain_coordinates(chain, y) + [y[r] for r in free_rows]

    return pres, basis, orders, coordinates


def _cohomology_mod_n(x: SimplicialComplex, q: int, n: int):
    """H^q(X; Z/n), q >= 1, by universal coefficients:
    H^q(X; Z) (x) Z/n + Tor(H^{q+1}(X; Z), Z/n), read off the integral record
    of degree q and the factorization U delta_q V = D it keeps.

    The (x) part: each integral generator of order o, reduced mod n, has
    order gcd(o, n) (n when o = 0 means free).  The Tor part: the torsion of
    H^{q+1}(X; Z) is that of coker delta_q, since ker delta_{q+1} is
    saturated, so it is Z/d for each pivot (i, j, d) of D.  With
    x_j = V e_j and z_i = U^-1 e_i, delta_q x_j = d z_i, and (n/g) x_j with
    g = gcd(d, n) is a cocycle mod n of order g, its Bockstein (d/g) z_i.
    Both lists of cyclic pieces join in one invariant-factor chain.
    """
    _, int_basis, int_orders, int_coordinates = _record(x, q, 0)
    dsolver = _coboundary(x, q).solver()
    pivots = dsolver.pivots
    k = len(int_orders)
    chain = invariant_factor_chain(
        [(gcd(o, n), key) for key, o in enumerate(int_orders)]
        + [(gcd(d, n), k + t) for t, (_, _, d) in enumerate(pivots)]
    )
    if not chain:
        return AbelianGroupPresentation.trivial(), [], [], _no_coordinates
    m0 = x.simplex_count(q)

    def piece(key):
        if key < k:
            return int_basis[key].cochain.values
        _, j, d = pivots[key - k]
        e = [0] * m0
        e[j] = n // gcd(d, n)
        return dsolver.col_transform(e)

    orders = [f for f, _ in chain]
    basis = [
        CohomologyClass(Cochain(x, q, n, tuple(vec))) for vec in _chain_generators(chain, piece, m0)
    ]

    def coordinates(xc):
        # delta c = n w over Z for c lifted to [0, n).  On pivot row i of
        # u = U w, u_i is (d/g) t modulo d for the Tor coordinate t, and
        # s_j = n u_i / d is exact: c - V s takes off t (n/g) x_j and n times
        # an exact solution r of delta_q r = w - t (d/g) z_i, so it is an
        # integral cocycle, whose coordinates modulo gcd(o, n) are the (x) part
        d = xc.coboundary_values()
        if any(map(mod, d, repeat(n))):
            return None
        u = dsolver.row_transform([v // n for v in d])
        if any(u[i] for i in dsolver.zero_rows):
            raise ArithmeticError("Bockstein of a mod-n cocycle is not a torsion class")
        s = [0] * m0
        tor = []
        for i, j, piv in pivots:
            step = piv // gcd(piv, n)
            t = u[i] % piv
            if t % step:
                raise ArithmeticError("Bockstein of a mod-n cocycle is not n-torsion")
            tor.append(t // step)
            s[j] = n * u[i] // piv
        lift = map(sub, xc.values, dsolver.col_transform(s))
        integral = int_coordinates(Cochain(x, q, 0, tuple(lift)))
        if integral is None:
            raise ArithmeticError("integral lift of a mod-n cocycle is not a cocycle")
        return chain_coordinates(chain, integral + tor)

    return AbelianGroupPresentation(0, tuple(orders)), basis, orders, coordinates


def cohomology(x: SimplicialComplex, q: int, n: int = 0):
    """H^q(X; Z/n) as (presentation, basis of CohomologyClass).

    Basis classes are listed torsion generators first (matching the
    invariant factors in order) and then free generators; the list order is
    deterministic.  Degrees beyond the dimension give the trivial group.
    The cache entry also keeps the generator orders and a reader of class
    coordinates (see class_coordinates).

    Degree 0 is read off the components, Z/2 off an F2 echelon and Z off
    the factorization of delta_q.  Any other Z/n is the universal-coefficient
    split of the integral record of the same degree, H^q(X; Z) (x) Z/n +
    Tor(H^{q+1}(X; Z), Z/n), so it caches that record too.
    """
    if q < 0:
        raise ValueError("degree must be >= 0")
    if n < 0:
        raise ValueError("modulus must be >= 0")
    return _record(x, q, n)[:2]


def _record(x: SimplicialComplex, q: int, n: int):
    """The cached record (presentation, basis, orders, coordinate reader) of
    H^q(X; Z/n), q, n >= 0, built on first use."""
    key = (q, n)
    result = x._cohom_cache.get(key)
    if result is None:
        if q > x.dim or n == 1:
            result = (AbelianGroupPresentation.trivial(), [], [], _no_coordinates)
        elif q == 0:
            result = _cohomology_degree_zero(x, n)
        elif n == 0:
            result = _cohomology_integral_sparse(x, q)
        elif n == 2:
            result = _cohomology_mod_2(x, q)
        else:
            result = _cohomology_mod_n(x, q, n)
        x._cohom_cache[key] = result
    return result


def generator_orders(x: SimplicialComplex, q: int, n: int = 0) -> list[int]:
    """Orders of the basis classes returned by cohomology(); 0 means infinite."""
    cohomology(x, q, n)
    return list(x._cohom_cache[(q, n)][2])


def is_cohomologous(a: Cochain, b: Cochain) -> bool:
    """True iff a - b is a coboundary over the common modulus: iff every
    class coordinate of a - b is zero."""
    if not a.same_context(b):
        raise ValueError("cochain context mismatch (complex, degree or modulus)")
    if not (a.is_cocycle() and b.is_cocycle()):
        raise ValueError("is_cohomologous needs cocycle inputs")
    diff = a - b
    return diff.is_zero() or not any(class_coordinates(diff))


def class_coordinates(xc: Cochain) -> list[int] | None:
    """Coordinates of [xc] in the basis cohomology() gives for its degree and
    modulus, or None when xc is not a cocycle.

    Coordinates for torsion generators are canonicalized modulo the order.
    They are read off the factorizations that cohomology() keeps.
    """
    x = xc.complex
    key = (xc.degree, xc.modulus)
    if key not in x._cohom_cache:
        cohomology(x, *key)
    return x._cohom_cache[key][3](xc)


class SimplicialMap:
    """Vertex map inducing a map of ordered simplicial complexes.

    Requires: on every simplex of the source the induced vertex sequence is
    weakly increasing in the target order, and its image (duplicates
    removed) is a simplex of the target.
    """

    def __init__(self, source: SimplicialComplex, target: SimplicialComplex, vertex_map):
        self.source = source
        self.target = target
        self.vertex_map = tuple(vertex_map)
        if len(self.vertex_map) != source.vertex_count:
            raise ValueError("vertex map length must equal source vertex count")
        for s in source.maximal_simplices:
            image = [self.vertex_map[v] for v in s]
            if any(a > b for a, b in zip(image, image[1:])):
                raise ValueError(f"vertex map is not monotone on simplex {s}")
            reduced = tuple(sorted(set(image)))
            if not target.contains(reduced):
                raise ValueError(f"image of simplex {s} is not a simplex of the target")

    def pullback(self, cochain: Cochain) -> Cochain:
        if cochain.complex != self.target:
            raise ValueError("cochain does not live on the target complex")
        q = cochain.degree
        out = []
        for s in self.source.simplices(q):
            image = tuple(self.vertex_map[v] for v in s)
            if any(a >= b for a, b in zip(image, image[1:])):
                out.append(0)
            else:
                out.append(cochain.value_on(image))
        return Cochain(self.source, q, cochain.modulus, tuple(out))
