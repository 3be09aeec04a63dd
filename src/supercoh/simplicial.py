"""Finite ordered simplicial complexes and their cochain complexes.

Vertices are integers 0..n-1 and carry their natural total order; every
simplex is stored as a strictly increasing vertex tuple.  Cochains take
values in Z (modulus 0) or Z/n, canonically reduced to [0, n).  Cohomology
is computed exactly on the Morse complex of a coreduction matching; the
cocycle representatives of its generators are extended to X when
cohomology() is asked for them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import combinations, cycle, repeat
from math import gcd
from operator import add, itemgetter, mod, mul, neg, sub

from .exact_linalg import (
    AbelianGroupPresentation,
    IntMatrix,
    SparseMatrix,
    _OpLogSolver,
    chain_coordinates,
    chain_generators,
    invariant_factor_chain,
)

DEFAULT_DIMENSION_CAP = 6
# the vertex count of any complex, checked before a vertex is built
MAX_VERTICES = 100_000
# the simplex count of the closure of a complex read from JSON, as bounded by
# its maximal simplices, sum(2^|s| - 1), checked before anything is built
JSON_MAX_SIMPLICES = 500_000
# the same bound for any complex, checked before a face is built; it admits
# rp2 x rp2 x rp2 (90 000 six-simplices, bound 11.43M)
MAX_SIMPLICES = 16_000_000


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
        if vertex_count > MAX_VERTICES:
            raise ValueError(f"vertex_count {vertex_count} exceeds {MAX_VERTICES}")
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
        bound = sum((1 << len(s)) - 1 for s in self.maximal_simplices)
        if bound > MAX_SIMPLICES:
            raise ValueError(f"closure bound {bound} of the maximal simplices exceeds {MAX_SIMPLICES}")
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
        # keyed ("faces", q) and ("cup_i", i, p, q); see face_table and
        # cup_i_table.  _morse is the Morse complex of the coreduction
        # matching, built on the first cohomology query; it keeps the
        # cohomology records.  _bases holds the basis classes on X that
        # cohomology() extends from them, keyed (q, n)
        self._face_tables: dict = {}
        self._morse = None
        self._coboundaries: dict[int, SparseMatrix] = {}
        self._bases: dict = {}
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
            index = self._index[q] if upper else {}  # q may be past the top degree
            others = [tuple(p for p in range(q + 2) if p != k) for k in range(q + 2)]
            indices = tuple(tuple(map(index.__getitem__, map(_gather(o), upper))) for o in others)
            table = self._face_tables[key] = (indices, tuple(map(_gather, indices)))
        return table

    def cup_i_table(self, i: int, p: int, q: int) -> tuple:
        """(even, odd) gathers for the cup-i product of a p- and a q-cochain,
        one pair per cut sequence 0 <= j_0 < ... < j_i <= p + q - i whose
        even blocks hold p + 1 vertices and odd blocks q + 1: the values on
        those faces of every (p+q-i)-simplex.  For i = 0 the one pair is the
        front p-face and the back q-face of the cup product."""
        key = ("cup_i", i, p, q)
        table = self._face_tables.get(key)
        if table is None:
            m = p + q - i
            top = self.simplices(m)

            def gather(d, positions):
                pick = _gather(tuple(positions))
                return _gather(tuple(self._index[d][pick(s)] for s in top))

            table = []
            for cuts in combinations(range(m + 1), i + 1):
                # block k runs from cut k - 1 to cut k; neighbours share the cut
                ends = (0, *cuts, m)
                blocks = [range(ends[k], ends[k + 1] + 1) for k in range(i + 2)]
                even = [v for block in blocks[0::2] for v in block]
                odd = [v for block in blocks[1::2] for v in block]
                if len(even) == p + 1 and len(odd) == q + 1:
                    table.append((gather(p, even), gather(q, odd)))
            table = self._face_tables[key] = tuple(table)
        return table

    def morse_complex(self) -> "MorseComplex":
        """The Morse complex of the coreduction matching, built once."""
        if self._morse is None:
            self._morse = MorseComplex(self)
        return self._morse

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

    def __reduce__(self):
        # pickle the defining data only: the caches hold closures and are rebuilt on use
        return type(self), (self.vertex_count, self.maximal_simplices, self.dim)

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
        maximal = [tuple(s) for s in data["maximal_simplices"]]
        bound = sum((1 << len(s)) - 1 for s in maximal)
        if bound > JSON_MAX_SIMPLICES:
            raise ValueError(f"closure bound {bound} of the maximal simplices exceeds {JSON_MAX_SIMPLICES}")
        return cls(vertex_count, maximal)


@dataclass(frozen=True)
class Cochain:
    """q-cochain with integer values indexed by the fixed q-simplex order.

    modulus 0 means integer coefficients; otherwise values are reduced to
    [0, modulus).  values is always a tuple, so a cochain never changes:
    its coboundary and its cocycle verdict are computed on first use and
    kept on it (outside equality, hashing and repr).  Every cocycle check
    still runs, once per cochain.
    """

    complex: SimplicialComplex
    degree: int
    modulus: int
    values: tuple[int, ...]
    # delta of the values as integers, and the verdict of is_cocycle
    _delta: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)
    _cocycle: bool | None = field(default=None, init=False, repr=False, compare=False)

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
        values = tuple(map(mod, self.values, repeat(self.modulus))) if self.modulus else tuple(self.values)
        object.__setattr__(self, "values", values)

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
        the alternating sum of the values gathered on each face.  Computed
        once per cochain."""
        d = self._delta
        if d is None:
            first, *rest = self.complex.face_table(self.degree)[1]
            values = self.values
            acc = first(values)
            for gather, op in zip(rest, cycle((sub, add))):
                acc = map(op, acc, gather(values))
            d = tuple(acc)
            object.__setattr__(self, "_delta", d)
        return d

    def coboundary(self) -> "Cochain":
        return Cochain(self.complex, self.degree + 1, self.modulus, self.coboundary_values())

    def is_cocycle(self) -> bool:
        verdict = self._cocycle
        if verdict is None:
            d = self.coboundary_values()
            verdict = not any(map(mod, d, repeat(self.modulus)) if self.modulus else d)
            object.__setattr__(self, "_cocycle", verdict)
        return verdict


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


class MorseComplex:
    """The Morse complex M of a coreduction matching on X, with the cochain
    maps that carry classes between M and X.

    The matching comes from coreductions (Mrozek and Batko, "Coreduction
    homology algorithm", DCG 2009).  A cell with exactly one face left, its
    upper cell, is paired with that face, its lower cell, and both are
    removed; when no such cell is left, the lowest-index cell of lowest
    dimension is made critical and removed.  Cells wait in a FIFO queue in
    the order they come down to one face.  The other faces of an upper cell
    were removed before its pair, so the matching is acyclic, and the
    critical cells span M (Harker, Mischaikow, Mrozek and Nanda, "Discrete
    Morse theoretic algorithms for computing homology of complexes and
    maps", FoCM 2014):

    - the flowed chain g(c) of a critical cell c is c plus upper cells, the
      one such chain whose boundary holds no lower cell.  It is found by
      cancelling the lower cells of its boundary, latest pair first, with
      their upper cells.
    - delta_M has, for critical cells c and c' one dimension lower, the
      coefficient of c' in the boundary of g(c).
    - the restriction r: C^q(X) -> M^q reads a cochain on the flowed
      chains, r(f)_c = f(g(c)).
    - the extension e: M^q -> C^q(X) is m on critical cells, zero on upper
      cells, and on the lower cell of each pair, in pair order, the value
      that makes delta e(m) vanish on its upper cell.

    e and r are cochain maps with r e = 1 and e r homotopic to 1, over Z
    and so over every Z/n, so H^q(X; Z/n) is H^q(M; Z/n): classes go to X
    by e and come back by r.
    """

    def __init__(self, x: SimplicialComplex):
        self.complex = x
        dim = x.dim
        counts = [x.simplex_count(q) for q in range(dim + 1)]
        # faces[q][a]: the indices of the faces of q-cell a, in face order;
        # cofaces[q][b]: the (q+1)-cells on q-cell b, ascending
        faces = [((),) * n for n in counts[:1]] + [tuple(zip(*x.face_table(q)[0])) for q in range(dim)]
        cofaces = [[[] for _ in range(n)] for n in counts]
        for q in range(1, dim + 1):
            up = cofaces[q - 1]
            for a, fs in enumerate(faces[q]):
                for b in fs:
                    up[b].append(a)
        left = [[q + 1] * n for q, n in enumerate(counts)]  # faces not yet removed, for q >= 1
        gone = [bytearray(n) for n in counts]
        queue = deque()

        def remove(q, b):
            gone[q][b] = 1
            if q < dim:
                nleft, ugone = left[q + 1], gone[q + 1]
                for a in cofaces[q][b]:
                    if not ugone[a]:
                        nleft[a] -= 1
                        if nleft[a] == 1:
                            queue.append((q + 1, a))

        critical = [[] for _ in counts]
        # pairs[q]: (lower cell, upper q-cell, the lower cell's face position)
        # in pair order, none for q = dim + 1; pair_of[q][b]: the index in
        # pairs[q + 1] of lower q-cell b, -1 for other cells
        pairs = [[] for _ in range(dim + 2)]
        pair_of = [[-1] * n for n in counts]
        start = [0] * (dim + 1)
        while True:
            while queue:
                q, a = queue.popleft()
                if gone[q][a] or left[q][a] != 1:
                    continue
                fs = faces[q][a]
                pos = list(map(gone[q - 1].__getitem__, fs)).index(0)
                b = fs[pos]
                pair_of[q - 1][b] = len(pairs[q])
                pairs[q].append((b, a, pos))
                gone[q][a] = 1
                remove(q - 1, b)
                remove(q, a)
            for q in range(dim + 1):
                b, qgone = start[q], gone[q]
                while b < counts[q] and qgone[b]:
                    b += 1
                start[q] = b
                if b < counts[q]:
                    critical[q].append(b)
                    remove(q, b)
                    break
            else:
                break
        self.critical = tuple(map(tuple, critical))
        self._faces = faces
        self._pairs = pairs
        self._pair_of = pair_of
        self._signs = tuple((-1) ** k for k in range(dim + 2))
        self._deltas: dict[int, SparseMatrix] = {}
        self._restrictions: dict[int, list] = {}
        self._extensions: dict[int, list] = {}
        # the records of H^q(M; Z/n), keyed (q, n); see _reduced_record
        self.records: dict = {}

    def size(self, q: int) -> int:
        return len(self.critical[q]) if 0 <= q < len(self.critical) else 0

    def _flow(self, q: int):
        """The restriction of degree q and delta_M^{q-1}, read off the flowed
        chains of the critical q-cells."""
        faces, pairs, signs = self._faces[q], self._pairs[q], self._signs
        pair_of = self._pair_of[q - 1] if q else ()
        below = self.critical[q - 1] if q else ()
        restriction, rows = [], []
        for c in self.critical[q]:
            chain = {c: 1}
            bd = dict(zip(faces[c], signs))  # the boundary of the chain
            heap = [-pair_of[f] for f in bd if pair_of[f] >= 0]
            heapify(heap)
            while heap:
                b, a, pos = pairs[-heappop(heap)]
                beta = bd.pop(b)
                if not beta:
                    continue
                # chain += t a clears b; every other face of a is older than
                # the pair, so b never comes back
                t = chain[a] = -beta * signs[pos]
                for f, s in zip(faces[a], signs):
                    if f != b:
                        old = bd.get(f)
                        if old is None:
                            bd[f] = t * s
                            if pair_of[f] >= 0:
                                heappush(heap, -pair_of[f])
                        else:
                            bd[f] = old + t * s
            restriction.append((_gather(tuple(chain)), tuple(chain.values())))
            rows.append({j: bd[f] for j, f in enumerate(below) if bd.get(f)})
        self._restrictions[q] = restriction
        self._deltas[q - 1] = SparseMatrix(len(rows), len(below), rows)

    def delta(self, q: int) -> SparseMatrix:
        """delta_M: M^q -> M^{q+1}, q >= -1; degenerate degrees give empty
        matrices."""
        if q not in self._deltas:
            if q + 1 < len(self.critical):
                self._flow(q + 1)
            else:
                self._deltas[q] = SparseMatrix(0, self.size(q), [])
        return self._deltas[q]

    def restrict(self, q: int, values) -> list[int]:
        """r(f) for the values of a q-cochain f on X."""
        if q not in self._restrictions:
            self._flow(q)
        return [sum(map(mul, coeffs, gather(values))) for gather, coeffs in self._restrictions[q]]

    def extend(self, q: int, vec) -> tuple[int, ...]:
        """The values on X of e(m) for a vector m of M^q."""
        program = self._extensions.get(q)
        if program is None:
            signs = self._signs
            program = self._extensions[q] = []
            for b, a, pos in self._pairs[q + 1]:
                # delta e(m) on a is zero: e(m)_b = -sign_b sum of sign_f e(m)_f
                fs = self._faces[q + 1][a]
                others = fs[:pos] + fs[pos + 1 :]
                coeffs = tuple(-signs[pos] * s for s in signs[:pos] + signs[pos + 1 : q + 2])
                program.append((b, _gather(others), coeffs))
        values = [0] * self.complex.simplex_count(q)
        for c, v in zip(self.critical[q], vec):
            values[c] = v
        for b, gather, coeffs in program:
            values[b] = sum(map(mul, coeffs, gather(values)))
        return tuple(values)


# The records below are built on a based cochain complex c given by its
# coboundaries: c.size(q) and c.delta(q), a SparseMatrix whose factorization
# the record keeps; c.delta(-1) is the empty delta_{-1}, so degree 0 needs no
# case of its own.  A record is (presentation, generator vectors, orders,
# reader), where the reader takes a cocycle vector of c to its class
# coordinates.  cohomology() feeds them the Morse complex; fed X's own
# coboundaries they are the unreduced path.

_TRIVIAL = (AbelianGroupPresentation.trivial(), [], [], lambda vec: [])


def _integral_record(c, q: int):
    """H^q(c; Z) from sparse op-log factorizations.

    Cocycles are the kernel of delta_q, whose factorization U delta_q V = D
    (kept on the coboundary) gives a kernel basis.  The coordinates of the
    columns of delta_{q-1} in that basis form a relation matrix whose
    diagonalization gives the group and, through logged transforms, the
    generators and the coordinates of a class.  The mod-n records of the
    same degree are built from this record and the same factorization
    (see _mod_n_record).
    """
    ksolver = c.delta(q).solver()
    k = len(ksolver.free_cols)
    if k == 0:
        return _TRIVIAL

    relations = c.delta(q - 1).transpose().data
    coord_rows = ksolver.free_coordinate_rows(relations)
    if coord_rows is None:
        raise ArithmeticError("vector not in kernel lattice")
    wsolver = _OpLogSolver(SparseMatrix(k, len(relations), coord_rows))
    # a part of order power of the pivot row of order d_row is d_row // power
    # times its U^-1 column
    chain = invariant_factor_chain([(abs(d), row) for row, _, d in wsolver.pivots])
    free_rows = wsolver.zero_rows
    uinv = cache(wsolver.u_inverse_column)
    gen_coord_vectors = chain_generators(chain, uinv, k) + [uinv(r) for r in free_rows]
    orders = [f for f, _ in chain] + [0] * len(free_rows)
    pres = AbelianGroupPresentation(len(free_rows), tuple(f for f, _ in chain))

    def coordinates(vec):
        # y = U (kernel coordinates) gives the class as y_row modulo d_row on
        # pivot rows, y_row on free rows
        kernel_coords = ksolver.free_coordinates(vec)
        if kernel_coords is None:
            return None
        y = wsolver.row_transform(kernel_coords)
        return chain_coordinates(chain, y) + [y[r] for r in free_rows]

    return pres, [ksolver.kernel_combination(v) for v in gen_coord_vectors], orders, coordinates


def _mod_n_record(c, q: int, n: int):
    """H^q(c; Z/n), n >= 2, by universal coefficients:
    H^q(c; Z) (x) Z/n + Tor(H^{q+1}(c; Z), Z/n), read off the integral record
    of degree q and the factorization U delta_q V = D it keeps.

    The (x) part: each integral generator of order o, reduced mod n, has
    order gcd(o, n) (n when o = 0 means free).  The Tor part: the torsion of
    H^{q+1}(c; Z) is that of coker delta_q, since ker delta_{q+1} is
    saturated, so it is Z/d for each pivot (i, j, d) of D.  With
    x_j = V e_j and z_i = U^-1 e_i, delta_q x_j = d z_i, and (n/g) x_j with
    g = gcd(d, n) is a cocycle mod n of order g, its Bockstein (d/g) z_i.
    Both lists of cyclic pieces join in one invariant-factor chain.
    """
    _, int_gens, int_orders, int_coordinates = _reduced_record(c, q, 0)
    dq = c.delta(q)
    dsolver = dq.solver()
    pivots = dsolver.pivots
    k = len(int_orders)
    chain = invariant_factor_chain(
        [(gcd(o, n), key) for key, o in enumerate(int_orders)]
        + [(gcd(d, n), k + t) for t, (_, _, d) in enumerate(pivots)]
    )
    if not chain:
        return _TRIVIAL
    m0 = c.size(q)

    def piece(key):
        if key < k:
            return int_gens[key]
        _, j, d = pivots[key - k]
        e = [0] * m0
        e[j] = n // gcd(d, n)
        return dsolver.col_transform(e)

    orders = [f for f, _ in chain]

    def coordinates(vec):
        # delta c = n w over Z for the integral vector c of a mod-n cocycle.
        # On pivot row i of u = U w, u_i is (d/g) t modulo d for the Tor
        # coordinate t, and s_j = n u_i / d is exact: c - V s takes off
        # t (n/g) x_j and n times an exact solution r of
        # delta_q r = w - t (d/g) z_i, so it is an integral cocycle, whose
        # coordinates modulo gcd(o, n) are the (x) part
        d = dq.mul_vector(vec)
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
        integral = int_coordinates(list(map(sub, vec, dsolver.col_transform(s))))
        if integral is None:
            raise ArithmeticError("integral lift of a mod-n cocycle is not a cocycle")
        return chain_coordinates(chain, integral + tor)

    return AbelianGroupPresentation(0, tuple(orders)), chain_generators(chain, piece, m0), orders, coordinates


def _reduced_record(c, q: int, n: int):
    """The record of H^q(c; Z/n), q >= 0, n >= 2 or 0, cached in c.records."""
    key = (q, n)
    record = c.records.get(key)
    if record is None:
        record = c.records[key] = _mod_n_record(c, q, n) if n else _integral_record(c, q)
    return record


def _record(x: SimplicialComplex, q: int, n: int):
    """The record (presentation, generator vectors, orders, reader) of
    H^q(X; Z/n), q, n >= 0, on the Morse complex M of X, built on first use
    and kept on M.  Nothing is extended to X: the generators are vectors of
    M, and the reader takes a cocycle vector of M."""
    if q < 0:
        raise ValueError("degree must be >= 0")
    if n < 0:
        raise ValueError("modulus must be >= 0")
    if q > x.dim or n == 1:
        return _TRIVIAL
    return _reduced_record(x.morse_complex(), q, n)


def presentation(x: SimplicialComplex, q: int, n: int = 0) -> AbelianGroupPresentation:
    """H^q(X; Z/n) as an abstract group, with no representative built."""
    return _record(x, q, n)[0]


def cohomology(x: SimplicialComplex, q: int, n: int = 0):
    """H^q(X; Z/n) as (presentation, basis of CohomologyClass).

    Basis classes are listed torsion generators first (matching the
    invariant factors in order) and then free generators; the list order is
    deterministic.  Degrees beyond the dimension give the trivial group.

    Every degree is computed on the Morse complex of X (see MorseComplex):
    Z off the factorization of delta_q, and every Z/n as the
    universal-coefficient split of the integral record of the same degree,
    H^q(X; Z) (x) Z/n + Tor(H^{q+1}(X; Z), Z/n), so it keeps that record
    too.  The basis is extended to X on the first call for a degree and
    modulus, each class checked as a cocycle, and kept; presentation,
    generator_orders, class_coordinates, is_cohomologous and
    sq1_coordinates read the records of M and extend nothing.
    """
    pres, gens, _, _ = _record(x, q, n)
    basis = x._bases.get((q, n))
    if basis is None:
        basis = x._bases[(q, n)] = [
            CohomologyClass(Cochain(x, q, n, x.morse_complex().extend(q, g))) for g in gens
        ]
    return pres, basis


def generator_orders(x: SimplicialComplex, q: int, n: int = 0) -> list[int]:
    """Orders of the basis classes returned by cohomology(); 0 means infinite."""
    return list(_record(x, q, n)[2])


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
    They are read off the record of M at the restriction r(xc), which
    factors nothing.
    """
    x, q = xc.complex, xc.degree
    _, gens, _, read = _record(x, q, xc.modulus)
    if not xc.is_cocycle():
        return None
    return read(x.morse_complex().restrict(q, xc.values)) if gens else []


def sq1_coordinates(x: SimplicialComplex, q: int) -> list[list[int]]:
    """For each basis class g of H^q(X; Z/2), the coordinates of Sq^1 g in
    the basis of H^{q+1}(X; Z/2), read off the Morse complex M with no
    cochain built on X.

    Sq^1 is the reduction mod 2 of the Bockstein: for an integral lift l of
    the generator m of g on M, delta_M l = 2 s, and Sq^1 [m] = [s mod 2].
    The extension e is an integral cochain map, so e(s) is the Bockstein of
    the lift e(l) of g on X, and r e = 1 makes the coordinates of e(s) those
    that the record of M reads at s.
    """
    gens = _record(x, q, 2)[1]
    read = _record(x, q + 1, 2)[3]
    out = []
    for g in gens:
        d = x.morse_complex().delta(q).mul_vector(g)
        if any(v % 2 for v in d):
            raise ArithmeticError("coboundary of a mod-2 cocycle lift is not even")
        coords = read([v // 2 % 2 for v in d])
        if coords is None:
            raise ArithmeticError("Sq^1 of a mod-2 class is not a mod-2 cocycle")
        out.append(coords)
    return out


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
