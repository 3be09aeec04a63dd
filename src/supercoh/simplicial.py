"""Finite ordered simplicial complexes and their cochain complexes.

Vertices are integers 0..n-1 and carry their natural total order; every
simplex is stored as a strictly increasing vertex tuple.  Cochains take
values in Z (modulus 0) or Z/n, canonically reduced to [0, n).  Cohomology
is computed exactly on a small integral model of the cochains of X: the
Morse complex of a coreduction matching of X, or, for a staircase product
K x L built by product(), the tensor product of the models of K and L,
with no matching run on X.  The cocycle representatives of its
generators are extended to X when cohomology() is asked for them.
"""

from __future__ import annotations

from collections import deque
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import chain, combinations, cycle, repeat
from operator import add, and_, eq, floordiv, itemgetter, lshift, mod, mul, neg, rshift, sub

from .exact_linalg import (
    AbelianGroupPresentation,
    IntMatrix,
    Record,
    SparseMatrix,
    modulus_stack,
)

# the dimension of any complex: a simplex has at most 7 faces, so the byte
# sums of Cochain._parity never carry
DIMENSION_CAP = 6
# the vertex count of any complex, checked before a vertex is built
MAX_VERTICES = 100_000
# the simplex count of the closure of a complex read from JSON, as bounded by
# its maximal simplices, sum(2^|s| - 1), checked before anything is built
JSON_MAX_SIMPLICES = 500_000
# the same bound for any complex, checked before a face is built; it admits
# rp2 x rp2 x rp2 (90 000 six-simplices, bound 11.43M); it bounds memory,
# and DIMENSION_CAP alone keeps the packed folds from carrying
MAX_SIMPLICES = 16_000_000
_HALF = bytes(d // 2 for d in range(256))  # byte d -> d // 2, for _half_delta
_NONZERO = bytes(map(bool, range(256)))  # byte d -> 1 if d else 0, for Cochain._bits


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


def _plane_program(vectors, count: int) -> tuple:
    """The plane-gather program of index vectors into a level of count cells,
    read one after another (Cochain._bits).  Per block of output positions:
    the low bytes of its indices and, for each plane table t that the block
    reaches, the mask that keeps bit (i >> 8) & 7 of each position whose
    index i has i >> 11 == t.  One block when one table holds the level, so
    each extra block pays for itself in tables not reached; else blocks of
    2048 positions, which reach a few tables each."""
    indices = lambda: chain.from_iterable(vectors)
    low = bytes(map(and_, indices(), repeat(255)))
    select = bytes(map(lshift, repeat(1), map(and_, map(rshift, indices(), repeat(8)), repeat(7))))
    if count <= 2048:
        return ((low, [(0, int.from_bytes(select, "little"))] if low else []),)
    tables = tuple(map(rshift, indices(), repeat(11)))
    program = []
    for s in range(0, len(low), 2048):
        block, bits = tables[s : s + 2048], select[s : s + 2048]
        masks = [(t, int.from_bytes(bytes(map(mul, bits, map(eq, block, repeat(t)))), "little")) for t in set(block)]
        program.append((low[s : s + 2048], masks))
    return tuple(program)


def _lanes(bits: int, width: int):
    """The width-byte lanes of bits, the lowest first, up to the last nonzero one."""
    mask, shift = (1 << 8 * width) - 1, 8 * width
    while bits:
        yield bits & mask
        bits >>= shift


class SimplicialComplex:
    """Finite simplicial complex given by maximal simplices, closed eagerly."""

    def __init__(self, vertex_count: int, maximal_simplices):
        if vertex_count < 0:
            raise ValueError("vertex_count must be >= 0")
        if vertex_count > MAX_VERTICES:
            raise ValueError(f"vertex_count {vertex_count} exceeds {MAX_VERTICES}")
        self.vertex_count = vertex_count
        normalized = []
        cap = DIMENSION_CAP
        for s in maximal_simplices:
            s = tuple(s)
            # exactly int: a float would index no cochain, and a bool is an
            # int subclass that would silently stand for vertex 0 or 1
            if any(type(v) is not int for v in s):
                raise ValueError(f"simplex {s} has a vertex that is not an int")
            if any(a >= b for a, b in zip(s, s[1:])):
                raise ValueError(f"simplex {s} is not strictly increasing")
            if s and (s[0] < 0 or s[-1] >= vertex_count):
                raise ValueError(f"simplex {s} has out-of-range vertices")
            if len(s) - 1 > cap:
                raise ValueError(f"simplex {s} exceeds dimension cap {cap}")
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
        self._indexed(tuple(tuple(sorted(by_dim[q])) for q in range(len(by_dim))))

    def _indexed(self, simplices: tuple, factors=None):
        """Set the closed levels, their indices and the empty caches."""
        self.dim = len(simplices) - 1
        self._simplices = simplices
        self._index = [
            {s: i for i, s in enumerate(level)} for level in self._simplices
        ]
        # caches live here, declared up front: attributes added later would
        # turn every attribute load on the complex into a slower lookup.
        # _face_tables holds the face-index vectors of the cochain kernels,
        # keyed ("faces", q) and ("cup_i", i, p, q), and the plane-gather
        # programs of the mod-2 kernels, keyed ("face planes", q) and
        # ("cup_i planes", i, p, q); see face_table, cup_i_table, face_planes
        # and cup_i_planes.  _morse is the Morse complex of the coreduction
        # matching, or the TensorModel of the factors when _factors holds the
        # (K, L) that product built X from; it is built on the first
        # cohomology query and keeps the cohomology records.  _bases holds
        # the basis classes on X that cohomology() extends from them, keyed
        # (q, n)
        self._face_tables: dict = {}
        self._factors = factors
        self._morse = None
        self._coboundaries: dict[int, SparseMatrix] = {}
        self._bases: dict = {}

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

    def _columns(self, q: int) -> list:
        """The vertex columns of the q-simplices: column t holds vertex t of
        each, in their order; q + 1 empty columns when there are none."""
        return list(zip(*self.simplices(q))) or [()] * (q + 1)

    def _indices(self, d: int, columns) -> tuple:
        """For each position of the vertex columns, the index of the d-simplex
        they name, or simplex_count(d), the slot of an appended 0, where no
        d-simplex is named (a repeated vertex, or d past the top degree)."""
        count = self.simplex_count(d)
        index = self._index[d] if count else {}
        return tuple(map(index.get, zip(*columns), repeat(count)))

    def face_table(self, q: int) -> tuple:
        """(indices, gathers) for delta_q, q >= 0.  indices holds q + 2 vectors:
        entry i of vector k is the index of the k-th face of the i-th
        (q+1)-simplex, looked up from the vertex columns of the
        (q+1)-simplices with column k left out.  gathers[k] maps a
        q-cochain's values to their tuple on those faces."""
        key = ("faces", q)
        table = self._face_tables.get(key)
        if table is None:
            columns = self._columns(q + 1)
            indices = tuple(self._indices(q, columns[:k] + columns[k + 1 :]) for k in range(q + 2))
            table = self._face_tables[key] = (indices, tuple(map(_gather, indices)))
        return table

    def face_planes(self, q: int) -> tuple:
        """(even, odd): the plane-gather programs of the mod-2 kernels over the
        even and over the odd face vectors of face_table(q), a lane each."""
        key = ("face planes", q)
        table = self._face_tables.get(key)
        if table is None:
            vectors, count = self.face_table(q)[0], self.simplex_count(q)
            table = self._face_tables[key] = (_plane_program(vectors[0::2], count), _plane_program(vectors[1::2], count))
        return table

    def cup_i_table(self, i: int, p: int, q: int) -> tuple:
        """(even, odd) index vectors for the cup-i product of a p- and a
        q-cochain, one pair per cut sequence 0 <= j_0 < ... < j_i <= p + q - i
        whose even blocks hold p + 1 vertices and odd blocks q + 1: the
        indices of those faces of every (p+q-i)-simplex, looked up from the
        vertex columns of the block positions.  For i = 0 the one pair is the
        front p-face and the back q-face of the cup product."""
        key = ("cup_i", i, p, q)
        table = self._face_tables.get(key)
        if table is None:
            m = p + q - i
            columns = self._columns(m)
            indices = lambda d, positions: self._indices(d, map(columns.__getitem__, positions))
            table = []
            for cuts in combinations(range(m + 1), i + 1):
                # block k runs from cut k - 1 to cut k; neighbours share the cut
                ends = (0, *cuts, m)
                blocks = [range(ends[k], ends[k + 1] + 1) for k in range(i + 2)]
                even = [v for block in blocks[0::2] for v in block]
                odd = [v for block in blocks[1::2] for v in block]
                if len(even) == p + 1 and len(odd) == q + 1:
                    table.append((indices(p, even), indices(q, odd)))
            table = self._face_tables[key] = tuple(table)
        return table

    def cup_i_planes(self, i: int, p: int, q: int) -> tuple:
        """(even, odd): the plane-gather programs of the mod-2 kernels over the
        even and over the odd faces of every cut sequence of
        cup_i_table(i, p, q), a lane each."""
        key = ("cup_i planes", i, p, q)
        table = self._face_tables.get(key)
        if table is None:
            pairs = self.cup_i_table(i, p, q)
            table = self._face_tables[key] = (
                _plane_program([even for even, _ in pairs], self.simplex_count(p)),
                _plane_program([odd for _, odd in pairs], self.simplex_count(q)),
            )
        return table

    def morse_complex(self) -> "MorseComplex | TensorModel":
        """The integral model of the cochains of X, built once: the tensor
        product of the factors' models when X is a staircase product, and
        otherwise the Morse complex of the coreduction matching."""
        if self._morse is None:
            if self._factors:
                self._morse = TensorModel(self, *(f.morse_complex() for f in self._factors))
            else:
                self._morse = MorseComplex(self)
        return self._morse

    def contains(self, simplex) -> bool:
        simplex = tuple(simplex)
        q = len(simplex) - 1
        return 0 <= q <= self.dim and simplex in self._index[q]

    def euler_characteristic(self) -> int:
        return sum((-1) ** q * self.simplex_count(q) for q in range(self.dim + 1))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, SimplicialComplex)
            and self.vertex_count == other.vertex_count
            and self.maximal_simplices == other.maximal_simplices
        )

    def __hash__(self):
        return hash((self.vertex_count, self.maximal_simplices))

    def __getstate__(self):
        # the defining data, the closed levels and the factors of a product,
        # so a load runs no closure; the caches hold closures, rebuilt on use
        return self.vertex_count, self.maximal_simplices, self._simplices, self._factors

    def __setstate__(self, state):
        self.vertex_count, self.maximal_simplices, simplices, factors = state
        self._indexed(simplices, factors)

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
        vertex_count = data["vertex_count"]
        # exactly int, as a vertex must be: int() would read 3.7 as 3 and true as 1
        if type(vertex_count) is not int:
            raise ValueError(f"vertex_count {vertex_count!r} is not an int")
        maximal = [tuple(s) for s in data["maximal_simplices"]]
        bound = sum((1 << len(s)) - 1 for s in maximal)
        if bound > JSON_MAX_SIMPLICES:
            raise ValueError(f"closure bound {bound} of the maximal simplices exceeds {JSON_MAX_SIMPLICES}")
        return cls(vertex_count, maximal)


class Cochain(Record):
    """q-cochain with integer values indexed by the fixed q-simplex order.

    modulus 0 means integer coefficients; otherwise values are reduced to
    [0, modulus).  values is always a tuple, so a cochain never changes:
    its coboundary and its cocycle verdict are computed on first use and
    kept on it (outside equality, hashing and repr).  Every cocycle check
    still runs, once per cochain.

    Cochain(...) checks the degree, the length, the modulus and that each
    value is exactly an int, and reduces the values.  The kernels (+, -,
    negation, scale, coboundary, cup, cup_i, bockstein, reduce_mod) build
    their values reduced, in one pass, and go through _reduced, which makes
    the other checks and skips the reduction.  A mod-2 cochain also keeps
    its values packed, one byte each, in _packed (kept as _delta is), and
    its kernels take no Python step per value on those bytes read as ints
    (_bits): + and - xor, cup ands the front and back gathers, cup_i ands
    the even and odd gathers and xors their lanes, and _parity sums the
    even and the odd face gathers into delta mod 2 and the lift's exact
    delta, which bockstein halves (_half_delta).  Each gather translates
    index bytes through the bit-plane tables of the packed bytes (_planes).
    """

    complex: SimplicialComplex
    degree: int
    modulus: int
    values: tuple[int, ...]
    # delta of the values as integers, the verdict of is_cocycle, and the
    # packed values, their bit-plane tables and _parity's fold of a mod-2
    # cochain: not fields
    _delta = None
    _cocycle = None
    _packed = None
    _plane_tables = None
    _fold = None

    def __post_init__(self):
        self._check()
        if not set(map(type, self.values)) <= {int}:
            raise ValueError("cochain values must be exactly ints: no float, bool or str is a residue")
        n = self.modulus
        values = tuple(map(mod, self.values, repeat(n))) if n else tuple(self.values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_packed", bytes(values) if n == 2 else None)

    def _check(self):
        if self.degree < 0:
            raise ValueError(f"cochain degree must be >= 0, got {self.degree}")
        expected = self.complex.simplex_count(self.degree)
        if len(self.values) != expected:
            raise ValueError(
                f"cochain in degree {self.degree} needs {expected} values, got {len(self.values)}"
            )
        if self.modulus < 0:
            raise ValueError("modulus must be >= 0")

    @classmethod
    def _reduced(cls, complex: SimplicialComplex, degree: int, modulus: int, values: tuple, packed=None) -> "Cochain":
        """Cochain from a tuple of values already reduced to [0, modulus),
        or of any integers for modulus 0; mod 2, packed may hold their bytes."""
        c = object.__new__(cls)
        c.__dict__.update(complex=complex, degree=degree, modulus=modulus, values=values)
        if modulus == 2:
            c.__dict__["_packed"] = bytes(values) if packed is None else packed
        c._check()
        return c

    @classmethod
    def _from_bits(cls, complex: SimplicialComplex, degree: int, bits: int) -> "Cochain":
        """The mod-2 cochain whose packed values are the bytes of bits."""
        packed = bits.to_bytes(complex.simplex_count(degree), "little")
        return cls._reduced(complex, degree, 2, tuple(packed), packed)

    def _planes(self) -> list:
        """Mod 2: the packed values as bit-plane tables, built once, one
        shift and or per 256 cells.  Bit c of byte b of table t holds the
        value of cell 2048t + 256c + b."""
        planes = self._plane_tables
        if planes is None:
            packed, planes = self._packed, []
            for start in range(0, len(packed), 2048):
                table = 0
                for c, chunk in enumerate(range(start, min(start + 2048, len(packed)), 256)):
                    table |= int.from_bytes(packed[chunk : chunk + 256], "little") << c
                planes.append(table.to_bytes(256, "little"))
            object.__setattr__(self, "_plane_tables", planes)
        return planes

    def _bits(self, program=None) -> int:
        """The packed values as an int: all, or those a plane-gather program
        reads (_plane_program).  Each block translates its low index bytes
        through every table it reaches and ors in the bits its masks keep;
        one last translate maps every nonzero byte to 1."""
        if program is None:
            return int.from_bytes(self._packed, "little")
        planes, parts = self._planes(), []
        for low, masks in program:
            acc = 0
            for t, mask in masks:
                acc |= int.from_bytes(low.translate(planes[t]), "little") & mask
            parts.append(acc.to_bytes(len(low), "little"))
        return int.from_bytes(b"".join(parts).translate(_NONZERO), "little")

    def _like(self, values) -> "Cochain":
        """A cochain of the same context from an iterator of integers,
        reduced here for a nonzero modulus."""
        n = self.modulus
        if n:
            values = map(mod, values, repeat(n))
        return Cochain._reduced(self.complex, self.degree, n, tuple(values))

    @classmethod
    def zero(cls, complex: SimplicialComplex, degree: int, modulus: int) -> "Cochain":
        return cls._reduced(complex, degree, modulus, (0,) * complex.simplex_count(degree))

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
        if self.modulus == 2:
            return Cochain._from_bits(self.complex, self.degree, self._bits() ^ other._bits())
        return self._like(map(add, self.values, other.values))

    def __sub__(self, other: "Cochain") -> "Cochain":
        if self.modulus == 2:
            return self + other
        self._require_context(other)
        return self._like(map(sub, self.values, other.values))

    def __neg__(self) -> "Cochain":
        return self if self.modulus == 2 else self._like(map(neg, self.values))

    def scale(self, k: int) -> "Cochain":
        return self._like(map(mul, repeat(k), self.values))

    def is_zero(self) -> bool:
        return not any(self.values)

    def value_on(self, simplex) -> int:
        return self.values[self.complex.index_of(simplex)]

    def coboundary_values(self) -> tuple[int, ...]:
        """Values of delta on the (q+1)-simplices as integers, not reduced:
        the alternating sum of the values gathered on each face.  Computed
        once per cochain."""
        if self._delta is None:
            first, *rest = self.complex.face_table(self.degree)[1]
            d = first(self.values)
            for gather, op in zip(rest, cycle((sub, add))):
                d = map(op, d, gather(self.values))
            object.__setattr__(self, "_delta", tuple(d))
        return self._delta

    def _parity(self) -> int:
        """Mod 2: delta as packed bits.  E and O sum the lanes of the even and
        of the odd face gathers, a byte per (q+1)-simplex (by DIMENSION_CAP a
        simplex has 7 faces at most: none carries).  The low bits of E + O are
        delta mod 2; _fold keeps D = E - O + (q + 2) // 2, the lift's delta
        made >= 0."""
        x, q = self.complex, self.degree
        n = x.simplex_count(q + 1)
        even, odd = (sum(_lanes(self._bits(program), n)) for program in x.face_planes(q))
        ones = int.from_bytes(b"\1" * n, "little")
        object.__setattr__(self, "_fold", (even - odd + (q + 2) // 2 * ones).to_bytes(n, "little"))
        return (even + odd) & ones

    def _half_delta(self):
        """Mod 2, of a checked cocycle: delta / 2 of the lift, off _fold.  Each
        byte of D = delta + off, off = (q + 2) // 2, has the parity of off, so
        delta / 2 = D // 2 - off // 2 for either parity."""
        return map(sub, self._fold.translate(_HALF), repeat((self.degree + 2) // 4))

    def coboundary(self) -> "Cochain":
        n = self.modulus
        if n == 2:
            return Cochain._from_bits(self.complex, self.degree + 1, self._parity())
        d = self.coboundary_values()
        return Cochain._reduced(self.complex, self.degree + 1, n, tuple(map(mod, d, repeat(n))) if n else d)

    def is_cocycle(self) -> bool:
        verdict = self._cocycle
        if verdict is None:
            n = self.modulus
            if n == 2:
                verdict = not self._parity()
            else:
                d = self.coboundary_values()
                verdict = not any(map(mod, d, repeat(n)) if n else d)
            object.__setattr__(self, "_cocycle", verdict)
        return verdict


class CohomologyClass(Record):
    """A cochain together with its checked cocycle certificate."""

    cochain: Cochain

    def __post_init__(self):
        # mod 2 the verdict keeps the fold that bockstein halves
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


def coboundary_matrix(x: SimplicialComplex, q: int) -> IntMatrix:
    """Dense integral matrix of delta_q: C^q -> C^{q+1}."""
    if q < 0 or q > x.dim:
        raise ValueError(f"degree {q} out of range for complex of dimension {x.dim}")
    return _coboundary(x, q).to_dense()


class _CochainModel:
    """A based integral cochain complex M with cochain maps e: M^q -> C^q(X)
    and r: C^q(X) -> M^q, r e = 1, in the interface that the record
    builder, cohomology() and verify read: size, delta, extend, restrict
    and the records dict.  r reads a cochain on one integral chain of X per
    cell of M, which chains(q) lists as (simplex indices, coefficients)."""

    def __init__(self, x: SimplicialComplex):
        self.complex = x
        # per degree: delta_M, the chains of r, the gathers of r and what
        # extend builds; the records of H^q(M; Z/n), keyed (q, n), see _record
        self._deltas: dict[int, SparseMatrix] = {}
        self._chains: dict[int, list] = {}
        self._restrictions: dict[int, list] = {}
        self._extensions: dict = {}
        self.records: dict = {}

    def restrict(self, q: int, values) -> list[int]:
        """r(f) for the values of a q-cochain f on X."""
        program = self._restrictions.get(q)
        if program is None:
            program = self._restrictions[q] = [(_gather(support), coeffs) for support, coeffs in self.chains(q)]
        return [sum(map(mul, coeffs, gather(values))) for gather, coeffs in program]


class MorseComplex(_CochainModel):
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
        super().__init__(x)
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

    def size(self, q: int) -> int:
        return len(self.critical[q]) if 0 <= q < len(self.critical) else 0

    def _flow(self, q: int):
        """The flowed chains of the critical q-cells and delta_M^{q-1}, read
        off their boundaries."""
        faces, pairs, signs = self._faces[q], self._pairs[q], self._signs
        pair_of = self._pair_of[q - 1] if q else ()
        below = self.critical[q - 1] if q else ()
        chains, rows = [], []
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
            chains.append((tuple(chain), tuple(chain.values())))
            rows.append({j: bd[f] for j, f in enumerate(below) if bd.get(f)})
        self._chains[q] = chains
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

    def chains(self, q: int) -> list:
        """The flowed chains g(c) of the critical q-cells, in their order."""
        if q not in self._chains:
            self._flow(q)
        return self._chains[q]

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


@cache
def _shuffles(p: int, q: int) -> tuple:
    """The staircase paths from (0, 0) to (p, q) in unit steps, as (K
    positions, L positions, sign): vertex t of the path is (K positions[t],
    L positions[t]), and the sign of its (p, q)-shuffle is
    (-1)^(sum over K-steps of the L-steps before it)."""
    paths = []
    for ksteps in combinations(range(p + q), p):
        kpos, lpos, inversions = [0], [0], 0
        for t in range(p + q):
            if t in ksteps:
                kpos.append(kpos[-1] + 1)
                inversions += lpos[-1]
            else:
                kpos.append(kpos[-1])
            lpos.append(t + 1 - kpos[-1])
        paths.append((tuple(kpos), tuple(lpos), -1 if inversions % 2 else 1))
    return tuple(paths)


def _facets(x: SimplicialComplex) -> tuple:
    """The maximal simplices of x and the vertices that none of them holds:
    an isolated vertex v of K still gives the copy {v} x |L| of L."""
    covered = {v for s in x.maximal_simplices for v in s}
    return x.maximal_simplices + tuple((v,) for v in range(x.vertex_count) if v not in covered)


def product(k: SimplicialComplex, l: SimplicialComplex):
    """Staircase (Eilenberg-Zilber shuffle) triangulation of |K| x |L|.

    Vertex (u, w) gets index u * l.vertex_count + w; returns the product
    complex and the two projections as SimplicialMaps.  The product keeps
    K and L as its factors, so its cohomology is computed on the tensor
    product of their models (TensorModel) and no matching runs on it; a
    copy rebuilt from its simplices, as JSON input is, computes on its own
    Morse complex and may give other representatives of the same classes.
    """
    nl = l.vertex_count
    maximal = []
    for sk in _facets(k):
        for sl in _facets(l):
            for kpos, lpos, _ in _shuffles(len(sk) - 1, len(sl) - 1):
                maximal.append(tuple(sk[a] * nl + sl[b] for a, b in zip(kpos, lpos)))
    prod = SimplicialComplex(k.vertex_count * nl, maximal)
    prod._factors = (k, l)
    proj1 = SimplicialMap(prod, k, [v // nl for v in range(prod.vertex_count)])
    proj2 = SimplicialMap(prod, l, [v % nl for v in range(prod.vertex_count)])
    return prod, proj1, proj2


class TensorModel(_CochainModel):
    """M_K (x) M_L for the staircase product X of K and L (see product),
    built from the models of the factors: it stands in for the Morse complex
    of X, so no matching runs on X, and nested products recurse.

    X is the product of K and L as simplicial sets: an n-simplex is a chain
    of vertices (u_0, w_0) < ... < (u_n, w_n), weakly increasing in both
    coordinates, whose projections to K and L are simplices.  C(X) is chain
    homotopy equivalent over Z to C(K) (x) C(L) (Eilenberg and Zilber 1953)
    through the Alexander-Whitney map AW and the shuffle map nabla, with
    AW nabla = 1 (see Gonzalez-Diaz and Real, "Computation of cohomology
    operations on finite simplicial complexes", HHA 5, 2003):

    - the cells of degree n are (p, i, j) for a cell i of M_K^p and a cell j
      of M_L^(n-p), ordered by p, then i, then j.
    - delta(a (x) b) = delta a (x) b + (-1)^p a (x) delta b for a of degree p.
    - the extension e is the cross product, the dual of AW applied to
      e_K (x) e_L: e(a (x) b) is e_K(a) on the front p-face of the projection
      to K of an n-simplex times e_L(b) on the back (n-p)-face of its
      projection to L, and 0 where a projected face is degenerate.
    - the restriction r reads a cochain on nabla(g_K(i) (x) g_L(j)), the
      shuffle product of the chains that the factors' restrictions read: a
      p-simplex of K and an (n-p)-simplex of L give one n-simplex of X per
      staircase path, with the sign of its shuffle (see _shuffles).

    AW nabla = 1 makes r e = 1 exactly, and e and r are integral cochain
    maps because AW, nabla and the factors' maps are, so H^q(X; Z/n) is
    H^q(M_K (x) M_L; Z/n) and classes move between them as they do for a
    MorseComplex.
    """

    def __init__(self, x: SimplicialComplex, k, l):
        super().__init__(x)
        self._k, self._l = k, l
        # offsets[n][p]: the index of cell (p, 0, 0) among the n-cells; the
        # last entry is the number of n-cells
        self._offsets = []
        for n in range(x.dim + 1):
            sizes = [k.size(p) * l.size(n - p) for p in range(n + 1)]
            self._offsets.append([sum(sizes[:p]) for p in range(n + 2)])

    def size(self, q: int) -> int:
        return self._offsets[q][-1] if 0 <= q < len(self._offsets) else 0

    def delta(self, q: int) -> SparseMatrix:
        """delta: M^q -> M^{q+1}, q >= -1; degenerate degrees give empty
        matrices."""
        d = self._deltas.get(q)
        if d is None:
            k, l, n = self._k, self._l, q + 1
            offsets = self._offsets[q] if 0 <= q < len(self._offsets) else ()
            rows = []
            for p in range(n + 1):
                # row (p, i, j) reads delta_K(i) on block (p - 1, n - p) and
                # (-1)^p delta_L(j) on block (p, n - p - 1)
                width = l.size(n - p)
                if not k.size(p) * width:
                    continue
                kdelta, ldelta = k.delta(p - 1).data, l.delta(n - p - 1).data
                kstart = offsets[p - 1] if p else 0
                lstart, lwidth = (offsets[p], l.size(n - p - 1)) if p < n else (0, 0)
                sign = (-1) ** p
                for i, krow in enumerate(kdelta):
                    for j, lrow in enumerate(ldelta):
                        row = {kstart + a * width + j: v for a, v in krow.items()}
                        row.update((lstart + i * lwidth + b, sign * v) for b, v in lrow.items())
                        rows.append(row)
            d = self._deltas[q] = SparseMatrix(len(rows), self.size(q), rows)
        return d

    def chains(self, q: int) -> list:
        """The chains nabla(g_K(i) (x) g_L(j)) of the q-cells, in their
        order, as indices of q-simplices of X and coefficients.  A simplex u
        of g_K(i), a simplex w of g_L(j) and a staircase path give the
        simplex whose vertex t is u[kpos[t]] * width + w[lpos[t]]."""
        chains = self._chains.get(q)
        if chains is None:
            k, l = self._k, self._l
            width = l.complex.vertex_count
            chains = self._chains[q] = []
            for p in range(q + 1):
                if not k.size(p) * l.size(q - p):
                    continue
                paths = _shuffles(p, q - p)
                steps = [[(kpos[t], lpos[t]) for kpos, lpos, _ in paths] for t in range(q + 1)]
                ksimplices, lsimplices = k.complex.simplices(p), l.complex.simplices(q - p)
                for ksupport, kcoeffs in k.chains(p):
                    us = [ksimplices[a] for a in ksupport]
                    for lsupport, lcoeffs in l.chains(q - p):
                        ws = [lsimplices[b] for b in lsupport]
                        columns = ([u[s] * width + w[t] for u in us for w in ws for s, t in step] for step in steps)
                        coeffs = tuple(sign * kc * lc for kc in kcoeffs for lc in lcoeffs for *_, sign in paths)
                        chains.append((self.complex._indices(q, columns), coeffs))
        return chains

    def _cross(self, q: int, p: int):
        """The gathers (front, back) of the cross product of a p-cochain on K
        and a (q-p)-cochain on L, each fed its values with one 0 appended:
        front reads the front p-face of the projection to K of each q-simplex
        of X, back the back (q-p)-face of its projection to L, and a
        degenerate face, which no index holds, reads the 0.  The gathers of
        every p are built at once, from the vertex columns of X's q-simplices."""
        gathers = self._extensions.get(q)
        if gathers is None:
            kx, lx = self._k.complex, self._l.complex
            width = lx.vertex_count
            columns = self.complex._columns(q)
            kcolumns = [tuple(map(floordiv, c, repeat(width))) for c in columns]
            lcolumns = [tuple(map(mod, c, repeat(width))) for c in columns]
            gathers = self._extensions[q] = {}
            for d in range(max(0, q - lx.dim), min(q, kx.dim) + 1):
                gathers[d] = (_gather(kx._indices(d, kcolumns[: d + 1])), _gather(lx._indices(q - d, lcolumns[d:])))
        return gathers[p]

    def extend(self, q: int, vec) -> tuple[int, ...]:
        """The values on X of e(m) for a vector m of the model in degree q:
        sum over cells (p, i, j) of m_(p,i,j) e_K(i) x e_L(j), one cross
        product per nonzero row i of each block p."""
        k, l = self._k, self._l
        values = [0] * self.complex.simplex_count(q)
        offsets = self._offsets[q]
        for p in range(q + 1):
            block = vec[offsets[p] : offsets[p + 1]]
            if not any(block):
                continue
            front, back = self._cross(q, p)
            ksize, lsize = k.size(p), l.size(q - p)
            for i in range(ksize):
                row = block[i * lsize : (i + 1) * lsize]
                if any(row):
                    kvalues = front(k.extend(p, [int(t == i) for t in range(ksize)]) + (0,))
                    lvalues = back(l.extend(q - p, row) + (0,))
                    values = list(map(add, values, map(mul, kvalues, lvalues)))
        return tuple(values)


# The records below are built on a based cochain complex c given by its
# coboundaries: c.size(q) and c.delta(q), a SparseMatrix; c.delta(-1) is the
# empty delta_{-1}, so degree 0 needs no case of its own.  A record is
# (presentation, generator vectors, orders, reader), where the reader takes a
# cocycle vector of c to its class coordinates.  cohomology() feeds the
# builder the model of X (a MorseComplex or a TensorModel); fed X's own
# coboundaries it is the unreduced path.

_TRIVIAL = (AbelianGroupPresentation.trivial(), [], [], lambda vec: [])


def _cohomology_record(c, q: int, n: int):
    """The record of H^q(c; Z/n), q, n >= 0.

    Cocycles mod n are the kernel of delta_q for n = 0 and otherwise of the
    stack [delta_q | n I], cut to its first c.size(q) coordinates: v is a
    cocycle mod n iff (v, -delta_q v / n) is in that kernel.  The relations
    are the columns of delta_{q-1} and, for n > 0, n e_i, lifted to
    (n e_i, -delta_q e_i).  The op-log factorization of their coordinates
    in the kernel basis ends in Smith normal form U W V = D.  Its pivot
    values above 1 are the invariant factors.  The generators are the
    columns of U^-1 at the pivot rows above 1, ascending by order with ties
    to the larger row, then at the free rows.  A class whose kernel
    coordinates are x has coordinate y_row mod d on the generator of a pivot
    row of order d and y_row on a free row, where y = U x.
    """
    m0, dq = c.size(q), c.delta(q)
    ksolver = modulus_stack(dq, n).solver()
    k = len(ksolver.free_cols)
    if k == 0:
        return _TRIVIAL

    relations = c.delta(q - 1).transpose().data
    if n:
        relations += [{i: n, **{m0 + r: -d for r, d in col.items()}} for i, col in enumerate(dq.transpose().data)]
    coord_rows = ksolver.free_coordinate_rows(relations)
    if coord_rows is None:
        raise ArithmeticError("vector not in kernel lattice")
    wsolver = SparseMatrix(k, len(relations), coord_rows).solver()
    rows = [row for row, _, d in wsolver.pivots if d > 1] + wsolver.zero_rows
    orders = [d for _, _, d in wsolver.pivots if d > 1] + [0] * len(wsolver.zero_rows)
    pres = AbelianGroupPresentation(len(wsolver.zero_rows), tuple(d for d in orders if d))

    def coordinates(vec):
        # lift vec into the kernel as the relations were lifted (a
        # non-cocycle has no lift)
        if n:
            d = dq.mul_vector(vec)
            if any(map(mod, d, repeat(n))):
                return None
            vec = [*vec, *(-(v // n) for v in d)]
        kernel_coords = ksolver.free_coordinates(vec)
        if kernel_coords is None:
            return None
        y = wsolver.row_transform(kernel_coords)
        return [y[r] % d if d else y[r] for r, d in zip(rows, orders)]

    gens = [ksolver.kernel_combination(wsolver.u_inverse_column(r))[:m0] for r in rows]
    return pres, gens, orders, coordinates


def _record(x: SimplicialComplex, q: int, n: int):
    """The record (presentation, generator vectors, orders, reader) of
    H^q(X; Z/n), q, n >= 0, on the model M = x.morse_complex(), built on first use
    and kept in M.records.  Nothing is extended to X: the generators are
    vectors of M, and the reader takes a cocycle vector of M."""
    if q < 0:
        raise ValueError("degree must be >= 0")
    if n < 0:
        raise ValueError("modulus must be >= 0")
    if q > x.dim or n == 1:
        return _TRIVIAL
    m = x.morse_complex()
    record = m.records.get((q, n))
    if record is None:
        record = m.records[(q, n)] = _cohomology_record(m, q, n)
    return record


def presentation(x: SimplicialComplex, q: int, n: int = 0) -> AbelianGroupPresentation:
    """H^q(X; Z/n) as an abstract group, with no representative built."""
    return _record(x, q, n)[0]


def cohomology(x: SimplicialComplex, q: int, n: int = 0):
    """H^q(X; Z/n) as (presentation, basis of CohomologyClass).

    Basis classes are listed torsion generators first (matching the
    invariant factors in order) and then free generators; the list order is
    deterministic.  Degrees beyond the dimension give the trivial group.

    Every degree is computed on the model M of X that morse_complex()
    gives: the Morse complex of its matching (see MorseComplex), or, when X
    was built by product, the tensor product of the factors' models
    (see TensorModel), whose representatives differ from those of the
    matching of X; the groups and classes are the same.  Z is read off the
    factorization of delta_q, and every Z/n off that of the stack
    [delta_q | n I] (see _cohomology_record).  The basis is extended to X on
    the first call for a degree and modulus, each class checked as a
    cocycle, and kept; presentation, generator_orders, class_coordinates,
    is_cohomologous and sq1_coordinates read the records of M and extend
    nothing.
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
    the basis of H^{q+1}(X; Z/2), read off the model M of X (the Morse
    complex, or the tensor model of a product) with no cochain built on X.

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
        # degree -> the gather of pullback; holds closures, so no pickle keeps it
        self._pullbacks: dict = {}

    def __reduce__(self):
        return type(self), (self.source, self.target, self.vertex_map)

    def pullback(self, cochain: Cochain) -> Cochain:
        """f* of a cochain on the target by one gather per degree: the image of
        each source q-simplex, mapped column-wise, is looked up in the target's
        index, and an image that repeats a vertex reads the 0 appended."""
        if cochain.complex != self.target:
            raise ValueError("cochain does not live on the target complex")
        q = cochain.degree
        gather = self._pullbacks.get(q)
        if gather is None:
            images = (map(self.vertex_map.__getitem__, c) for c in self.source._columns(q))
            gather = self._pullbacks[q] = _gather(self.target._indices(q, images))
        return Cochain._reduced(self.source, q, cochain.modulus, gather(cochain.values + (0,)))
