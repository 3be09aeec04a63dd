"""Self-check suites behind the CLI verify verb.

Each suite returns a list of (check name, passed, detail).  Suites are
deterministic: randomized checks use fixed seeds.
"""

from __future__ import annotations

from random import Random

from . import brauer, corpus, dsv, operations, simplicial, stable2type, superline
from .exact_linalg import IntMatrix, cokernel, smith_decomposition, solve_mod
from .simplicial import Cochain, CohomologyClass, cohomology, is_cohomologous

CORPUS = ("point", "s1", "s2", "t2", "klein", "rp2", "s1xs1")

# The README Landmark table: per corpus complex, the ku group, ku twist,
# ko group and ko twist
_LANDMARK_COLUMNS = tuple(
    (variant, query) for variant in ("ku", "ko") for query in (brauer.abstract_group, brauer.twist_subgroup)
)
LANDMARKS = {
    "point": ("Z/2", "0", "Z/8", "0"),
    "s1": ("Z/2 ⊕ Z/2", "Z/2", "Z/8 ⊕ Z/2", "Z/2"),
    "s2": ("Z/2", "0", "Z/8 ⊕ Z/2", "Z/2"),
    "t2": ("Z/2 ⊕ Z/2 ⊕ Z/2", "Z/2 ⊕ Z/2", "Z/8 ⊕ Z/2 ⊕ Z/2 ⊕ Z/2", "Z/2 ⊕ Z/2 ⊕ Z/2"),
    "klein": ("Z/2 ⊕ Z/2 ⊕ Z/2", "Z/2 ⊕ Z/2", "Z/8 ⊕ Z/4 ⊕ Z/2", "Z/4 ⊕ Z/2"),
    "rp2": ("Z/2 ⊕ Z/2", "Z/2", "Z/8 ⊕ Z/4", "Z/4"),
    "s1xs1": ("Z/2 ⊕ Z/2 ⊕ Z/2", "Z/2 ⊕ Z/2", "Z/8 ⊕ Z/2 ⊕ Z/2 ⊕ Z/2", "Z/2 ⊕ Z/2 ⊕ Z/2"),
    "rp2xrp2": ("Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/2", "Z/2 ⊕ Z/2 ⊕ Z/2", "Z/8 ⊕ Z/4 ⊕ Z/4 ⊕ Z/2", "Z/4 ⊕ Z/4 ⊕ Z/2"),
}


def _result(name, ok, detail=""):
    return (name, bool(ok), detail)


def _from_columns(cols, n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(col[i] for i in range(n) for col in cols))


def suite_linalg():
    rng = Random(2024)
    out = []
    ok = True
    for _ in range(40):
        r, c = rng.randint(0, 4), rng.randint(0, 4)
        m = IntMatrix(r, c, tuple(rng.randint(-9, 9) for _ in range(r * c)))
        dec = smith_decomposition(m)
        # U, V and U^-1 column by column from the logged ops; D holds the pivots
        u = _from_columns([dec.row_transform(e) for e in IntMatrix.identity(r).to_rows()], r)
        v = _from_columns([dec.col_transform(e) for e in IntMatrix.identity(c).to_rows()], c)
        u_inv = _from_columns([dec.u_inverse_column(i) for i in range(r)], r)
        d = [0] * (r * c)
        for i, j, x in dec.pivots:
            d[i * c + j] = x
        if u.mul(m).mul(v).entries != tuple(d) or u.mul(u_inv) != IntMatrix.identity(r):
            ok = False
        if any(x <= 0 for _, _, x in dec.pivots):
            ok = False
    out.append(_result("oplog-factorization", ok))
    ok = True
    for _ in range(60):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix(r, c, tuple(rng.randint(-5, 5) for _ in range(r * c)))
        n = rng.choice([0, 2, 3, 4, 6, 8])
        x0 = [rng.randint(-4, 4) for _ in range(c)]
        b = m.mul_vector(x0)
        x = solve_mod(m, b, n)
        if x is None:
            ok = False
            continue
        mx = m.mul_vector(x)
        good = (
            mx == b if n == 0 else all((p - q) % n == 0 for p, q in zip(mx, b))
        )
        ok = ok and good
    out.append(_result("solve-mod-verifies", ok))
    ok = True
    for _ in range(20):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix(r, c, tuple(rng.randint(-6, 6) for _ in range(r * c)))
        pres = cokernel(m, 0)
        rows = m.to_rows()
        rng.shuffle(rows)
        perm = list(range(c))
        rng.shuffle(perm)
        shuffled = [[row[j] for j in perm] for row in rows]
        if cokernel(IntMatrix.from_rows(shuffled), 0) != pres:
            ok = False
    out.append(_result("cokernel-permutation-invariance", ok))
    return out


def suite_simplicial():
    out = []
    ok = True
    for name in CORPUS:
        x = corpus.complex_by_name(name)
        for q in range(x.dim - 1):
            a = simplicial.coboundary_matrix(x, q)
            b = simplicial.coboundary_matrix(x, q + 1)
            if not b.mul(a).is_zero():
                ok = False
    out.append(_result("delta-squared-zero", ok))
    ok = True
    for name in ("s1", "rp2", "t2"):
        x = corpus.cone(corpus.complex_by_name(name))
        for q in range(1, x.dim + 1):
            pres, _ = cohomology(x, q, 0)
            if not pres.is_trivial():
                ok = False
    out.append(_result("cone-is-acyclic", ok))
    ok = True
    for name in CORPUS:
        x = corpus.complex_by_name(name)
        chi = x.euler_characteristic()
        ranks = sum(
            (-1) ** q * cohomology(x, q, 0)[0].free_rank for q in range(x.dim + 1)
        )
        if chi != ranks:
            ok = False
    out.append(_result("euler-vs-betti", ok))
    bad = []
    for name in CORPUS:
        x = corpus.complex_by_name(name)
        for n in (3, 4, 6):
            for q in range(1, x.dim + 1):
                _, basis = cohomology(x, q, n)
                zero = Cochain.zero(x, q, n)
                for k, (cls, order) in enumerate(zip(basis, simplicial.generator_orders(x, q, n))):
                    g = cls.cochain
                    unit = [int(i == k) for i in range(len(basis))]
                    if not (
                        g.is_cocycle()
                        and not is_cohomologous(g, zero)
                        and is_cohomologous(g.scale(order), zero)
                        and simplicial.class_coordinates(g) == unit
                    ):
                        bad.append(f"{name} H^{q}(Z/{n}) #{k}")
    out.append(_result("mod-n-basis", not bad, ", ".join(bad)))
    out.append(_result("morse-reduction", all(map(_morse_reduction_holds, CORPUS))))
    return out


def _morse_reduction_holds(name) -> bool:
    """delta_M^2 = 0, e and r commute with delta, and r e = 1 on every unit
    vector of the model of a corpus complex: the Morse complex of its
    matching, or the tensor model of a product."""
    x = corpus.complex_by_name(name)
    m = x.morse_complex()
    rng = Random(name)
    for q in range(x.dim + 1):
        delta = m.delta(q)
        for j in range(m.size(q)):
            unit = [int(i == j) for i in range(m.size(q))]
            extended = Cochain(x, q, 0, m.extend(q, unit))
            if m.restrict(q, extended.values) != unit or any(m.delta(q + 1).mul_vector(delta.mul_vector(unit))):
                return False
            if q < x.dim and extended.coboundary().values != m.extend(q + 1, delta.mul_vector(unit)):
                return False
        values = tuple(rng.randint(-3, 3) for _ in range(x.simplex_count(q)))
        restricted = delta.mul_vector(m.restrict(q, values))
        if q < x.dim and m.restrict(q + 1, Cochain(x, q, 0, values).coboundary_values()) != restricted:
            return False
    return True


def suite_operations():
    rng = Random(5)
    out = []
    sq0_ok = sq1_ok = sq1sq1_ok = adem_ok = cartan_ok = comm_ok = True
    for name in CORPUS:
        x = corpus.complex_by_name(name)
        for q in range(0, x.dim + 1):
            _, basis = cohomology(x, q, 2)
            for cls in basis:
                if not is_cohomologous(operations.sq(0, cls).cochain, cls.cochain):
                    sq0_ok = False
                s_direct = operations.sq(1, cls)
                s_beta = operations.sq1_via_bockstein(cls)
                if not is_cohomologous(s_direct.cochain, s_beta.cochain):
                    sq1_ok = False
                ss = operations.sq(1, s_direct)
                if not is_cohomologous(
                    ss.cochain, Cochain.zero(x, ss.degree, 2)
                ):
                    sq1sq1_ok = False
                if q <= 3:
                    lhs = operations.sq(2, operations.sq(2, cls))
                    rhs = operations.sq(3, operations.sq(1, cls))
                    if lhs.degree <= x.dim and not is_cohomologous(lhs.cochain, rhs.cochain):
                        adem_ok = False
        # Cartan for Sq1 and graded commutativity on random degree-1 cocycle pairs
        _, basis1 = cohomology(x, 1, 2)
        if len(basis1) >= 1:
            for _ in range(4):
                a = brauer._random_cocycle(x, 1, 2, rng)
                b = brauer._random_cocycle(x, 1, 2, rng)
                ab = operations.cup(a, b)
                lhs = operations.sq1_via_bockstein(CohomologyClass(ab)).cochain
                rhs = operations.cup(
                    operations.sq1_via_bockstein(CohomologyClass(a)).cochain, b
                ) + operations.cup(a, operations.sq1_via_bockstein(CohomologyClass(b)).cochain)
                if not is_cohomologous(lhs, rhs):
                    cartan_ok = False
                if not is_cohomologous(ab, operations.cup(b, a)):
                    comm_ok = False
    out.append(_result("sq0-identity", sq0_ok))
    out.append(_result("sq1-equals-rho-bockstein", sq1_ok))
    out.append(_result("sq1-sq1-zero", sq1sq1_ok))
    out.append(_result("adem-sq2sq2-sq3sq1", adem_ok))
    out.append(_result("cartan-sq1", cartan_ok))
    out.append(_result("graded-commutativity", comm_ok))
    return out


def suite_naturality():
    out = []
    ok = True
    prod, p1, p2 = corpus.product_with_projections("rp2", "rp2")
    rp2 = corpus.complex_by_name("rp2")
    rng = Random(9)
    for proj in (p1, p2):
        for _ in range(3):
            a = brauer._random_cocycle(rp2, 1, 2, rng)
            b = brauer._random_cocycle(rp2, 1, 2, rng)
            if proj.pullback(operations.cup(a, b)).values != operations.cup(
                proj.pullback(a), proj.pullback(b)
            ).values:
                ok = False
            if proj.pullback(operations.cup_i(1, a, b)).values != operations.cup_i(
                1, proj.pullback(a), proj.pullback(b)
            ).values:
                ok = False
            bb = operations.bockstein(CohomologyClass(a)).cochain
            if proj.pullback(bb).values != operations.bockstein(
                CohomologyClass(proj.pullback(a))
            ).cochain.values:
                ok = False
    out.append(_result("pullback-naturality", ok))
    return out


def suite_dsv():
    rng = Random(17)
    f5 = dsv.Field(5)
    out = []
    mismatches = 0
    for _ in range(60):
        v = _random_dsv(f5, rng)
        w = v if rng.random() < 0.5 else _random_dsv(f5, rng)
        fmap = _random_dsv_map(f5, v, w, rng)
        if dsv.is_quasi_iso(fmap) != (dsv.homotopy_inverse(fmap) is not None):
            mismatches += 1
    out.append(_result("quasi-iso-iff-homotopy-equivalence", mismatches == 0, f"{mismatches} mismatches"))
    ok = True
    for _ in range(30):
        v = _random_dsv(f5, rng)
        w = _random_dsv(f5, rng)
        if dsv.euler_char(dsv.tensor(v, w)) != dsv.euler_char(v) * dsv.euler_char(w):
            ok = False
        if dsv.euler_char(dsv.direct_sum(v, w)) != dsv.euler_char(v) + dsv.euler_char(w):
            ok = False
        h0, h1 = dsv.homology(v)
        if dsv.euler_char(v) != h0 - h1:
            ok = False
    out.append(_result("euler-characteristic-laws", ok))
    return out


def _random_dsv(f, rng):
    """Random DSV: a sum of elementary pieces conjugated by a random basis."""
    pieces = []
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, 3)
        pieces.append(
            [
                dsv.DSV.unit(f),
                dsv.DSV.odd_line(f),
                dsv.DSV.make(f, 1, 1, [[1]], [[0]]),
                dsv.DSV.make(f, 1, 1, [[0]], [[1]]),
            ][k]
        )
    v = pieces[0]
    for p in pieces[1:]:
        v = dsv.direct_sum(v, p)
    p0 = _random_invertible(f, v.dim0, rng)
    p1 = _random_invertible(f, v.dim1, rng)
    p0_inv = dsv.invert(f, p0)
    p1_inv = dsv.invert(f, p1)
    d0 = dsv.mat_mul(f, dsv.mat_mul(f, p1, v.d0), p0_inv)
    d1 = dsv.mat_mul(f, dsv.mat_mul(f, p0, v.d1), p1_inv)
    return dsv.DSV(f, v.dim0, v.dim1, d0, d1)


def _random_invertible(f, n, rng):
    if n == 0:
        return ()
    while True:
        hi = f.char if f.char else 5
        m = tuple(
            tuple(f.of(rng.randrange(-2, hi)) for _ in range(n)) for _ in range(n)
        )
        if dsv.invert(f, m) is not None:
            return m


def _random_dsv_map(f, v, w, rng):
    """Random DSV map: a random point of the commuting-constraint solution space."""
    n_f0 = w.dim0 * v.dim0
    total = n_f0 + w.dim1 * v.dim1
    basis = dsv.kernel_basis(f, dsv.chain_map_system(v, w), total)
    coeffs = [f.of(rng.randint(0, 4)) for _ in basis]
    vec = dsv._product(f, (coeffs,), basis, 1, total)[0]
    f0 = tuple(tuple(vec[i * v.dim0 : (i + 1) * v.dim0]) for i in range(w.dim0))
    f1 = tuple(tuple(vec[n_f0 + i * v.dim1 : n_f0 + (i + 1) * v.dim1]) for i in range(w.dim1))
    return dsv.DSVMap(v, w, f0, f1)


def suite_superline():
    out = []
    pt = corpus.complex_by_name("point")
    even = superline.SuperLine.trivial("real", pt)
    odd = superline.SuperLine("real", pt, (1,), even.line_class)
    ok = (
        superline.symmetry_sign(odd, odd, 0) == -1
        and superline.symmetry_sign(even, even, 0) == 1
        and superline.symmetry_sign(odd, even, 0) == 1
    )
    f = dsv.QQ
    ok = ok and dsv.swap_map(dsv.DSV.odd_line(f), dsv.DSV.odd_line(f)).f0[0][0] == f.of(-1)
    out.append(_result("superline-signs-match-dsv-braiding", ok))
    ok = True
    rp2 = corpus.complex_by_name("rp2")
    g_real = superline.iso_class_group(rp2, "real")
    g_cplx = superline.iso_class_group(corpus.complex_by_name("point"), "complex")
    ok = ok and str(g_real) == "Z/2 ⊕ Z/2" and str(g_cplx) == "Z/2"
    data = superline.classification_data("real")
    ok = ok and not stable2type.is_trivial(data)
    out.append(_result("superline-groups-and-k-invariant", ok))
    return out


def suite_stable2type():
    from .exact_linalg import AbelianGroupPresentation as G

    out = []
    z, z2, z8 = G(1, ()), G(0, (2,)), G(0, (8,))
    counts = (
        len(stable2type.enumerate_symmetric_structures(z8, z2)),
        len(stable2type.enumerate_symmetric_structures(z2, z2)),
        len(stable2type.enumerate_symmetric_structures(z, z2)),
    )
    out.append(_result("two-structures-each", counts == (2, 2, 2), str(counts)))
    cat = stable2type.catalog()
    ok = all(not stable2type.is_trivial(cat[k]) for k in ("sphere", "ku", "ko"))
    out.append(_result("catalog-k-invariants-nonzero", ok))
    # the unit sends 1 in pi0(S) = Z to the one generator of pi0(ku) = Z/2
    # and of pi0(ko) = Z/8, so it carries the sphere's q to theirs exactly
    # when their q columns equal the sphere's
    ok = all(cat[name].q == cat["sphere"].q for name in ("ku", "ko"))
    out.append(_result("unit-map-compatibility", ok))
    # class counts: 7 on two pools with two exponents on each side; with one
    # exponent on each side the only invariant is rank q
    counts = []
    for pi0, pi1 in ((G(0, (2, 4)), G(0, (2, 4))), (G(1, (2,)), G(0, (4, 8))), (G(3, ()), G(0, (2, 2)))):
        reps = []
        for data in stable2type.enumerate_symmetric_structures(pi0, pi1):
            if not any(stable2type.equivalent(rep, data) for rep in reps):
                reps.append(data)
        counts.append(len(reps))
    out.append(_result("equivalence-classes", counts == [7, 7, 3], str(counts)))
    return out


def suite_brauer():
    rng = Random(23)
    out = []
    ok = True
    for name in CORPUS:
        x = corpus.complex_by_name(name)
        for variant in ("ku", "ko"):
            ident = brauer.identity_element(x, variant)
            for _ in range(12):
                a = brauer.random_element(x, variant, rng)
                b = brauer.random_element(x, variant, rng)
                c = brauer.random_element(x, variant, rng)
                if not brauer.equals(
                    brauer.add(brauer.add(a, b), c), brauer.add(a, brauer.add(b, c))
                ):
                    ok = False
                if not brauer.equals(brauer.add(a, ident), a):
                    ok = False
                if not brauer.equals(brauer.add(a, brauer.negate(a)), ident):
                    ok = False
                if not brauer.equals(brauer.add(a, b), brauer.add(b, a)):
                    ok = False
                w = brauer.commutativity_certificate(a, b)
                _ = w  # exact verification happens inside
    out.append(_result("group-axioms-randomized", ok))
    wrong = [
        f"{name} {variant} {query.__name__}"
        for name, row in LANDMARKS.items()
        for (variant, query), cell in zip(_LANDMARK_COLUMNS, row)
        if str(query(corpus.complex_by_name(name), variant)) != cell
    ]
    # the paper's witness: 2(0,w,0) = (0,0,w u w) != 0 on rp2
    rp2 = corpus.complex_by_name("rp2")
    w = cohomology(rp2, 1, 2)[1][0].cochain
    if brauer.element_order(brauer.element(rp2, "ko", b=w.values)) != 4:
        wrong.append("rp2 ko order of (0,w,0)")
    out.append(_result("landmark-groups", not wrong, ", ".join(wrong)))
    # the cochain-level identity behind the group verbs: for each basis
    # class g of H^1(X; Z/2), g + g = (0, 0, c) on X, where c has the Morse
    # Sq^1 coordinates of g for ko and is cohomologous to 0 for ku
    wrong = []
    for name in LANDMARKS:
        x = corpus.complex_by_name(name)
        _, basis = cohomology(x, 1, 2)
        for k, (cls, sq1) in enumerate(zip(basis, simplicial.sq1_coordinates(x, 1))):
            for variant in ("ku", "ko"):
                g = brauer.element(x, variant, b=cls.cochain.values)
                twice = brauer.add(g, g)
                c = twice.c
                if variant == "ko":
                    ok = simplicial.class_coordinates(c) == sq1
                else:
                    ok = is_cohomologous(c, Cochain.zero(x, c.degree, c.modulus))
                if not (ok and twice.a.is_zero() and twice.b.is_zero()):
                    wrong.append(f"{name} {variant} b{k}")
    out.append(_result("twice-b-is-sq1", not wrong, ", ".join(wrong)))
    return out


def suite_euler():
    rng = Random(31)
    f = dsv.QQ
    ok = True
    for _ in range(100):
        e = _random_bounded_complex(f, rng)
        v = dsv.epsilon(e)
        if dsv.euler_char(v) != e.euler_characteristic():
            ok = False
    ok2 = True
    for _ in range(100):
        v = _random_dsv(f, rng)
        w = _random_dsv(f, rng)
        if dsv.euler_char(dsv.tensor(v, w)) != dsv.euler_char(v) * dsv.euler_char(w):
            ok2 = False
        if dsv.euler_char(dsv.direct_sum(v, w)) != dsv.euler_char(v) + dsv.euler_char(w):
            ok2 = False
    return [
        _result("epsilon-euler-alternating-sum", ok),
        _result("euler-additive-multiplicative", ok2),
    ]


def _random_bounded_complex(f, rng):
    """Random bounded complex with exact boundary composites."""
    length = rng.randint(1, 4)
    lowest = rng.randint(-2, 2)
    dims = [rng.randint(0, 3) for _ in range(length)]
    boundaries = []
    prev = None
    for i in range(length - 1):
        rows, cols = dims[i], dims[i + 1]
        if prev is None:
            m = tuple(tuple(f.of(rng.randint(-2, 2)) for _ in range(cols)) for _ in range(rows))
        else:
            # columns in the kernel of the previous boundary: column c is
            # sum_k coeffs[c][k] basis[k]
            basis = dsv.kernel_basis(f, prev, rows)
            coeffs = [[f.of(rng.randint(-2, 2)) for _ in basis] for _ in range(cols)]
            m = dsv._transpose(dsv._product(f, coeffs, basis, cols, rows), rows)
        boundaries.append(m)
        prev = m
    return dsv.BoundedChainComplex(f, lowest, tuple(dims), tuple(boundaries))


SUITES = {
    "linalg": suite_linalg,
    "simplicial": suite_simplicial,
    "operations": suite_operations,
    "naturality": suite_naturality,
    "dsv": suite_dsv,
    "superline": suite_superline,
    "stable2type": suite_stable2type,
    "brauer": suite_brauer,
    "euler": suite_euler,
}


def run_suites(names):
    results = []
    for name in names:
        for check, ok, detail in SUITES[name]():
            results.append((name, check, ok, detail))
    return results
