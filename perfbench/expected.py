"""Expected answers for every benchmark operation, derived without supercoh.

Groups are written as (free_rank, invariant_factors) with the factors in
divisibility order d1 | d2 | ..., the same normal form that
``AbelianGroupPresentation`` uses, so answers compare with ``==``.

Sources:
- the corpus Brauer groups are the README Landmark table;
- the cohomology of the staircase products X x S^1 comes from the integral
  cohomology of X by Kuenneth and universal coefficients;
- their Brauer groups come from the same cohomology (see ``brauer_groups``);
- the stable 2-type equivalence table is an orbit computation over F_2;
- DSV cases are built from a known normal form, so their homology, their
  Euler characteristics and whether a map is a quasi-isomorphism are known
  by construction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product as cartesian
from math import gcd

# ---------------------------------------------------------------------------
# Finitely generated abelian groups as lists of cyclic orders (0 = Z)


def _prime_powers(d: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= d:
        if d % p == 0:
            e = 1
            while d % p == 0:
                d //= p
                e *= p
            out.append((p, e))
        p += 1
    if d > 1:
        out.append((d, d))
    return out


def normal_form(orders) -> tuple[int, tuple[int, ...]]:
    """(free_rank, invariant factors) of the direct sum of cyclic groups Z/d."""
    free = sum(1 for d in orders if d == 0)
    powers: dict[int, list[int]] = {}
    for d in orders:
        for p, e in _prime_powers(d) if d > 1 else []:
            powers.setdefault(p, []).append(e)
    for v in powers.values():
        v.sort(reverse=True)
    depth = max((len(v) for v in powers.values()), default=0)
    factors = []
    for t in range(depth):
        f = 1
        for v in powers.values():
            if t < len(v):
                f *= v[t]
        factors.append(f)
    return free, tuple(sorted(factors))


def _tensor(a: int, b: int) -> int:
    if a == 0:
        return b
    if b == 0:
        return a
    return gcd(a, b)


def _tor(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 1
    return gcd(a, b)


# Integral cohomology H^0..H^dim of the corpus base spaces, by degree.
BASE_COHOMOLOGY = {
    "point": [[0]],
    "s1": [[0], [0]],
    "s2": [[0], [], [0]],
    "t2": [[0], [0, 0], [0]],
    "klein": [[0], [0], [2]],
    "rp2": [[0], [], [2]],
}


def kunneth(hx, hy):
    """Integral cohomology of X x Y from that of X and Y (Kuenneth)."""
    top = len(hx) + len(hy) - 2
    out = [[] for _ in range(top + 1)]
    for p, gp in enumerate(hx):
        for q, gq in enumerate(hy):
            for a in gp:
                for b in gq:
                    out[p + q].append(_tensor(a, b))
                    if p + q - 1 >= 0:
                        out[p + q - 1].append(_tor(a, b))
    return [[d for d in g if d != 1] for g in out]


def with_coefficients(h, q: int, n: int) -> tuple[int, tuple[int, ...]]:
    """H^q(X; Z/n) from integral cohomology by universal coefficients (n = 0: Z)."""
    hq = h[q] if q < len(h) else []
    if n == 0:
        return normal_form(hq)
    nxt = h[q + 1] if q + 1 < len(h) else []
    return normal_form([_tensor(a, n) for a in hq] + [_tor(a, n) for a in nxt])


def integral_cohomology(name: str):
    """Integral cohomology of a base space or of '<base>xs1'."""
    if name.endswith("xs1") and name[:-3] in BASE_COHOMOLOGY:
        return kunneth(BASE_COHOMOLOGY[name[:-3]], BASE_COHOMOLOGY["s1"])
    return BASE_COHOMOLOGY[name]


def mod2_dims(h) -> list[int]:
    return [len(with_coefficients(h, q, 2)[1]) for q in range(len(h))]


def operations_table(h) -> list[tuple[int, bool, bool, bool]]:
    """Per degree q: (dim H^q(;Z/2), Sq1 != 0, Sq2 != 0, beta != 0).

    beta: H^q(;Z/2) -> H^{q+1}(;Z) has image the 2-torsion of H^{q+1}(;Z),
    and Sq1 = rho . beta is nonzero exactly when H^{q+1}(;Z) has a cyclic
    summand of order 2 mod 4.  Sq2 vanishes below degree 2 and lands above
    the top degree on the 3-dimensional products used here.
    """
    if len(h) > 4:
        raise ValueError("the Sq2 rule above holds only up to dimension 3")
    dims = mod2_dims(h)
    rows = []
    for q in range(len(h)):
        nxt = h[q + 1] if q + 1 < len(h) else []
        beta = any(d and d % 2 == 0 for d in nxt)
        sq1 = any(d and d % 4 == 2 for d in nxt)
        rows.append((dims[q], sq1, False, beta))
    return rows


# ---------------------------------------------------------------------------
# Brauer groups

_LANDMARK = """
point   | Z/2          | 0         | Z/8                   | 0
s1      | Z/2 + Z/2    | Z/2       | Z/8 + Z/2             | Z/2
s2      | Z/2          | 0         | Z/8 + Z/2             | Z/2
t2      | (Z/2)^3      | (Z/2)^2   | Z/8 + (Z/2)^3         | (Z/2)^3
klein   | (Z/2)^3      | (Z/2)^2   | Z/8 + Z/4 + Z/2       | Z/4 + Z/2
rp2     | Z/2 + Z/2    | Z/2       | Z/8 + Z/4             | Z/4
s1xs1   | (Z/2)^3      | (Z/2)^2   | Z/8 + (Z/2)^3         | (Z/2)^3
rp2xrp2 | (Z/2)^4      | (Z/2)^3   | Z/8 + Z/4 + Z/4 + Z/2 | Z/4 + Z/4 + Z/2
"""


def parse_group(text: str) -> tuple[int, tuple[int, ...]]:
    """Parse 'Z/8 + (Z/2)^3 + Z' style notation."""
    text = text.strip()
    if text == "0":
        return normal_form([])
    orders = []
    for term in text.split("+"):
        m = re.fullmatch(r"\(?Z(?:/(\d+))?\)?(?:\^(\d+))?", term.strip())
        if m is None:
            raise ValueError(f"cannot parse group term {term!r}")
        d = int(m.group(1)) if m.group(1) else 0
        orders.extend([d] * int(m.group(2) or 1))
    return normal_form(orders)


def landmark_table() -> dict:
    """README Landmark table: (complex, variant, query) -> group."""
    out = {}
    for line in _LANDMARK.strip().splitlines():
        name, ku, ku_t, ko, ko_t = (c.strip() for c in line.split("|"))
        out[(name, "ku", "abstract_group")] = parse_group(ku)
        out[(name, "ku", "twist_subgroup")] = parse_group(ku_t)
        out[(name, "ko", "abstract_group")] = parse_group(ko)
        out[(name, "ko", "twist_subgroup")] = parse_group(ko_t)
    return out


# rank of Sq1: H^1(;Z/2) -> H^2(;Z/2).  On X x S^1 it equals that of X,
# because Sq1(u) = 0 for the generator u of H^1(S^1) (Cartan formula).
SQ1_RANK_ON_H1 = {"point": 0, "s1": 0, "s2": 0, "t2": 0, "klein": 1, "rp2": 1, "s1xs1": 0, "rp2xrp2": 2}


def brauer_groups(h, sq1_rank: int) -> dict:
    """ku/ko groups and twist subgroups of a connected complex.

    ku: beta(b u b) = beta(rho(beta b)) = 0, so the twisted law splits and
    the group is H^0(Z/2) + H^1(Z/2) + H^3(Z).  ko: 2(0, b, 0) = (0, 0, b u b)
    = (0, 0, Sq1 b), so the twist group is (Z/4)^r + (Z/2)^(h1 + h2 - 2r)
    with r the rank of Sq1 on H^1(Z/2), and the a slot adds H^0(Z/8).
    """

    def orders(g):
        free, tors = g
        return [0] * free + list(tors)

    h1 = len(with_coefficients(h, 1, 2)[1])
    h2 = len(with_coefficients(h, 2, 2)[1])
    ku_twist = orders(with_coefficients(h, 1, 2)) + orders(with_coefficients(h, 3, 0))
    ko_twist = [4] * sq1_rank + [2] * (h1 + h2 - 2 * sq1_rank)
    return {
        ("ku", "abstract_group"): normal_form(orders(with_coefficients(h, 0, 2)) + ku_twist),
        ("ku", "twist_subgroup"): normal_form(ku_twist),
        ("ko", "abstract_group"): normal_form(orders(with_coefficients(h, 0, 8)) + ko_twist),
        ("ko", "twist_subgroup"): normal_form(ko_twist),
    }


def product_brauer_table(bases) -> dict:
    """Brauer answers for '<base>xs1', from Kuenneth cohomology."""
    out = {}
    for base in bases:
        name = base + "xs1"
        groups = brauer_groups(integral_cohomology(name), SQ1_RANK_ON_H1[base])
        for (variant, query), g in groups.items():
            out[(name, variant, query)] = g
    return out


# ---------------------------------------------------------------------------
# Stable 2-types: equivalence of q in Hom(pi0 (x) Z/2, pi1[2]) with
# pi0 in {Z/4 + Z/8, Z/2 + Z/8, Z/2 + Z} and pi1 = (Z/2)^2.
#
# In all three cases pi0 (x) Z/2 = F_2^2 with generators (g_lo, g_hi): g_lo
# is the lower-order torsion generator, g_hi the Z/8 or Z generator.
# Automorphisms of pi0 act mod 2 by the identity or by g_hi -> g_hi + g_lo
# (no automorphism sends g_lo onto g_hi mod 2: orders or freeness differ).
# Aut(pi1) = GL_2(F_2) acts on values.  q is a pair of columns
# (q(g_lo), q(g_hi)); supercoh enumerates q in itertools.product order over
# pi1's 2-torsion elements [(0,0), (0,1), (1,0), (1,1)].

_TORSION2 = [(0, 0), (0, 1), (1, 0), (1, 1)]


def _gl2_f2():
    mats = []
    for a, b, c, d in cartesian(range(2), repeat=4):
        if (a * d - b * c) % 2:
            mats.append(((a, b), (c, d)))
    return mats


def _apply(m, v):
    return ((m[0][0] * v[0] + m[0][1] * v[1]) % 2, (m[1][0] * v[0] + m[1][1] * v[1]) % 2)


def stable2type_table() -> list[list[bool]]:
    """16 x 16 table: structure i equivalent to structure j."""
    structures = list(cartesian(_TORSION2, repeat=2))
    shears = [lambda lo, hi: (lo, hi), lambda lo, hi: (lo, ((hi[0] + lo[0]) % 2, (hi[1] + lo[1]) % 2))]
    orbit = []
    for lo, hi in structures:
        seen = set()
        for g in _gl2_f2():
            for s in shears:
                seen.add(s(_apply(g, lo), _apply(g, hi)))
        orbit.append(seen)
    return [[structures[j] in orbit[i] for j in range(16)] for i in range(16)]


def check_equivalence_relation(table) -> None:
    n = len(table)
    for i in range(n):
        if not table[i][i]:
            raise AssertionError(f"expected table is not reflexive at {i}")
        for j in range(n):
            if table[i][j] != table[j][i]:
                raise AssertionError(f"expected table is not symmetric at {i},{j}")
            for k in range(n):
                if table[i][j] and table[j][k] and not table[i][k]:
                    raise AssertionError(f"expected table is not transitive at {i},{j},{k}")


# ---------------------------------------------------------------------------
# DSV cases built from a normal form.  Over a field F, a DSV is isomorphic to
# a sum of h0 even lines, h1 odd lines, `a` pieces F -> F (even to odd, d0 = 1)
# and `b` pieces F -> F (odd to even, d1 = 1).  In that basis
#   even: [H0 (h0) | a-sources (a) | b-targets (b)]
#   odd:  [H1 (h1) | a-targets (a) | b-sources (b)].
# A chain map between normal forms is (M0 on H0, M1 on H1) plus a null
# homotopic part d'h + hd, so it is a quasi-isomorphism iff M0 and M1 are
# invertible.  Conjugating by random invertible bases hides the form.


class Arith:
    """Exact field arithmetic for Q (char 0) or F_p, independent of supercoh."""

    def __init__(self, char: int):
        self.char = char

    def of(self, x):
        return Fraction(x) if self.char == 0 else x % self.char

    def inv(self, x):
        return 1 / Fraction(x) if self.char == 0 else pow(x, -1, self.char)

    def matmul(self, a, b, rows, inner, cols):
        out = [[0] * cols for _ in range(rows)]
        for i in range(rows):
            ai = a[i]
            oi = out[i]
            for k in range(inner):
                x = ai[k]
                if x:
                    bk = b[k]
                    for j in range(cols):
                        oi[j] += x * bk[j]
        return [[self.of(x) for x in row] for row in out]

    def add(self, a, b):
        return [[self.of(x + y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _zeros(r, c):
    return [[0] * c for _ in range(r)]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def random_invertible(ar: Arith, n: int, rng):
    """(P, P^-1) as a product of random elementary operations."""
    p, pinv = _identity(n), _identity(n)
    if n < 2:
        if n == 1:
            s = ar.of(rng.choice([1, 2, 3]))
            p, pinv = [[s]], [[ar.inv(s)]]
        return [[ar.of(x) for x in r] for r in p], [[ar.of(x) for x in r] for r in pinv]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice([-2, -1, 1, 2])
        # P <- E P with E = I + s e_ij; P^-1 <- P^-1 E^-1
        p[i] = [ar.of(x + s * y) for x, y in zip(p[i], p[j])]
        for row in pinv:
            row[j] = ar.of(row[j] - s * row[i])
    return p, pinv


def _singular(ar: Arith, n: int, rng):
    """Random n x n matrix of rank n - 1 (n >= 1)."""
    p, _ = random_invertible(ar, n, rng)
    p[rng.randrange(n)] = [0] * n
    q, _ = random_invertible(ar, n, rng)
    return ar.matmul(q, p, n, n, n)


class NormalForm:
    """Dimensions (h0, h1, a, b) of a DSV normal form."""

    def __init__(self, h0, h1, a, b):
        self.h0, self.h1, self.a, self.b = h0, h1, a, b
        self.dim0 = h0 + a + b
        self.dim1 = h1 + a + b

    def differentials(self):
        d0 = _zeros(self.dim1, self.dim0)
        d1 = _zeros(self.dim0, self.dim1)
        for i in range(self.a):
            d0[self.h1 + i][self.h0 + i] = 1
        for i in range(self.b):
            d1[self.h0 + self.a + i][self.h1 + self.a + i] = 1
        return d0, d1


def _normal_form(rng, dim0: int, dim1: int, h_low: int) -> NormalForm:
    """Normal form with the given dimensions and min(h0, h1) = h_low."""
    low = min(dim0, dim1)
    pieces = low - h_low
    a = rng.randint(0, pieces)
    return NormalForm(h_low + dim0 - low, h_low + dim1 - low, a, pieces - a)


def dsv_case(char: int, dims: tuple[int, int], rng):
    """Raw matrices of (V, W, f) plus the answers known by construction.

    V and W both have dimensions dims = (larger, smaller), the larger one
    even or odd at random, so every case costs about the same.  Returns a
    dict with 'v' and 'w' as (dim0, dim1, d0, d1), 'f' as (f0, f1),
    'quasi_iso', 'euler' (chi(V), chi(W)) and 'complex' (lowest, dims,
    boundaries, euler) for the epsilon check.
    """
    ar = Arith(char)
    big, small = dims
    dim0, dim1 = (big, small) if rng.random() < 0.5 else (small, big)
    h = rng.randint(0, small - 1)
    nv = _normal_form(rng, dim0, dim1, h)
    want_qi = rng.random() < 0.5
    if want_qi or rng.random() < 0.5:
        nw = _normal_form(rng, dim0, dim1, h)
    else:
        nw = _normal_form(rng, dim0, dim1, h + 1)
    blocks = []
    quasi_iso = (nv.h0, nv.h1) == (nw.h0, nw.h1)
    for hv, hw in ((nv.h0, nw.h0), (nv.h1, nw.h1)):
        if hv != hw:
            m = [[ar.of(rng.randint(-2, 2)) for _ in range(hv)] for _ in range(hw)]
        elif want_qi or hv == 0:
            m, _ = random_invertible(ar, hv, rng)
        else:
            m = _singular(ar, hv, rng)
            quasi_iso = False
        blocks.append(m)
    dv0, dv1 = nv.differentials()
    dw0, dw1 = nw.differentials()
    f0 = _zeros(nw.dim0, nv.dim0)
    f1 = _zeros(nw.dim1, nv.dim1)
    for i in range(nw.h0):
        for j in range(nv.h0):
            f0[i][j] = blocks[0][i][j]
    for i in range(nw.h1):
        for j in range(nv.h1):
            f1[i][j] = blocks[1][i][j]
    hom0 = [[ar.of(rng.randint(-2, 2)) for _ in range(nv.dim0)] for _ in range(nw.dim1)]
    hom1 = [[ar.of(rng.randint(-2, 2)) for _ in range(nv.dim1)] for _ in range(nw.dim0)]
    mm = ar.matmul
    f0 = ar.add(f0, ar.add(mm(dw1, hom0, nw.dim0, nw.dim1, nv.dim0), mm(hom1, dv0, nw.dim0, nv.dim1, nv.dim0)))
    f1 = ar.add(f1, ar.add(mm(dw0, hom1, nw.dim1, nw.dim0, nv.dim1), mm(hom0, dv1, nw.dim1, nv.dim0, nv.dim1)))
    pv0, pv0i = random_invertible(ar, nv.dim0, rng)
    pv1, pv1i = random_invertible(ar, nv.dim1, rng)
    pw0, pw0i = random_invertible(ar, nw.dim0, rng)
    pw1, pw1i = random_invertible(ar, nw.dim1, rng)

    def conj(left, m, right, r, c):
        return mm(mm(left, m, r, r, c), right, r, c, c)

    v = (nv.dim0, nv.dim1, conj(pv1, dv0, pv0i, nv.dim1, nv.dim0), conj(pv0, dv1, pv1i, nv.dim0, nv.dim1))
    w = (nw.dim0, nw.dim1, conj(pw1, dw0, pw0i, nw.dim1, nw.dim0), conj(pw0, dw1, pw1i, nw.dim0, nw.dim1))
    fmap = (
        mm(mm(pw0, f0, nw.dim0, nw.dim0, nv.dim0), pv0i, nw.dim0, nv.dim0, nv.dim0),
        mm(mm(pw1, f1, nw.dim1, nw.dim1, nv.dim1), pv1i, nw.dim1, nv.dim1, nv.dim1),
    )
    return {
        "v": v,
        "w": w,
        "f": fmap,
        "quasi_iso": quasi_iso,
        "euler": (nv.h0 - nv.h1, nw.h0 - nw.h1),
        "complex": bounded_complex(ar, small, rng),
    }


def bounded_complex(ar: Arith, size: int, rng):
    """(lowest, dims, boundaries, euler characteristic) with exact d^2 = 0.

    Degree k holds [H_k | targets of pairs from k+1 | sources of pairs to k-1];
    a pair is one copy of F in degrees k+1 -> k with boundary 1.
    """
    length = rng.randint(3, 5)
    lowest = rng.randint(-2, 2)
    homology = [rng.randint(0, 2) for _ in range(length)]
    pairs = [rng.randint(1, size) for _ in range(length - 1)]  # pairs[i]: i+1 -> i
    dims = []
    for i in range(length):
        down = pairs[i - 1] if i > 0 else 0
        up = pairs[i] if i < length - 1 else 0
        dims.append(homology[i] + up + down)
    bases = [random_invertible(ar, d, rng) for d in dims]
    boundaries = []
    for i in range(length - 1):
        std = _zeros(dims[i], dims[i + 1])
        src_off = homology[i + 1] + (pairs[i + 1] if i + 1 < length - 1 else 0)
        for t in range(pairs[i]):
            std[homology[i] + t][src_off + t] = 1
        p, _ = bases[i]
        _, qinv = bases[i + 1]
        m = ar.matmul(ar.matmul(p, std, dims[i], dims[i], dims[i + 1]), qinv, dims[i], dims[i + 1], dims[i + 1])
        boundaries.append(m)
    euler = sum((-1) ** (lowest + i) * d for i, d in enumerate(dims))
    return lowest, dims, boundaries, euler
