"""The four workloads: what set-up builds, what one operation runs, and how
its answer is checked.

Every workload calls the public functions of the supercoh modules directly.
A cold workload runs a fixed set of operations, each in a freshly forked
child of the set-up process; a warm workload runs seeded rounds (``deck``)
in the set-up process.  ``run`` performs one operation and
returns a small picklable answer; ``check`` compares it with the expected
table and never calls supercoh.
"""

from __future__ import annotations

import random

import expected

CORPUS = ("point", "s1", "s2", "t2", "klein", "rp2", "s1xs1", "rp2xrp2")
VARIANTS = ("ku", "ko")
QUERIES = ("abstract_group", "twist_subgroup")


def _group(pres) -> tuple[int, tuple[int, ...]]:
    return pres.free_rank, tuple(pres.invariant_factors)


def _product_with_s1(base: str):
    from supercoh import corpus

    prod, _, _ = corpus.product(corpus.complex_by_name(base), corpus.complex_by_name("s1"))
    return prod


class BrauerCold:
    """ku/ko groups and twist subgroups on the corpus and two S^1 products."""

    name = "brauer_cold"
    cold = True
    setup_samples = 5
    products = ("rp2", "t2")

    def setup(self, seed: int):
        from supercoh import corpus

        self.complexes = {name: corpus.complex_by_name(name) for name in CORPUS}
        for base in self.products:
            self.complexes[base + "xs1"] = _product_with_s1(base)
        self.expected = {**expected.landmark_table(), **expected.product_brauer_table(self.products)}
        self.ops = [(x, v, q) for x in self.complexes for v in VARIANTS for q in QUERIES]
        random.Random(seed).shuffle(self.ops)
        return True

    def run(self, op):
        from supercoh import brauer

        name, variant, query = op
        return _group(getattr(brauer, query)(self.complexes[name], variant))

    def check(self, op, answer) -> bool:
        return answer == self.expected[op]


class CohomologyCold:
    """H^q(X; Z/n) for n in {0, 2, 3, 4} and the Sq1/Sq2/beta table, on two
    3-dimensional products: the F_p path, the composite-modulus path and cup_i."""

    name = "cohomology_cold"
    cold = True
    setup_samples = 5
    products = ("rp2", "klein")
    moduli = (0, 2, 3, 4)

    def setup(self, seed: int):
        self.complexes = {base + "xs1": _product_with_s1(base) for base in self.products}
        self.ops = []
        for name, x in self.complexes.items():
            self.ops += [("cohomology", name, q, n) for n in self.moduli for q in range(1, x.dim + 1)]
            self.ops.append(("operations", name))
        random.Random(seed).shuffle(self.ops)
        return True

    def run(self, op):
        from supercoh import simplicial

        if op[0] == "cohomology":
            _, name, q, n = op
            pres, _ = simplicial.cohomology(self.complexes[name], q, n)
            return _group(pres)
        return self._operations_table(self.complexes[op[1]])

    @staticmethod
    def _operations_table(x):
        """Per mod-2 generator: (degree, Sq1 != 0, Sq2 != 0, beta != 0)."""
        from supercoh import operations, simplicial
        from supercoh.simplicial import Cochain

        rows = []
        for q in range(x.dim + 1):
            _, basis = simplicial.cohomology(x, q, 2)
            for cls in basis:
                sq1 = operations.sq(1, cls).cochain
                sq2 = operations.sq(2, cls).cochain
                beta = operations.bockstein(cls).cochain
                rows.append(
                    (
                        q,
                        not simplicial.is_cohomologous(sq1, Cochain.zero(x, sq1.degree, 2)),
                        not simplicial.is_cohomologous(sq2, Cochain.zero(x, sq2.degree, 2)),
                        not simplicial.is_cohomologous(beta, Cochain.zero(x, beta.degree, 0)),
                    )
                )
        return rows

    def check(self, op, answer) -> bool:
        h = expected.integral_cohomology(op[1])
        if op[0] == "cohomology":
            _, _, q, n = op
            return answer == expected.with_coefficients(h, q, n)
        # A linear map is nonzero iff it is nonzero on some basis vector, so
        # the per-degree "any" is independent of the chosen generators.
        got = []
        for q in range(len(h)):
            flags = [row[1:] for row in answer if row[0] == q]
            got.append((len(flags),) + tuple(any(col) for col in zip(*flags)) if flags else (0, False, False, False))
        return got == expected.operations_table(h)


class AxiomsWarm:
    """Class-level arithmetic on rp2xrp2 with every factorization done in set-up.

    One operation is one criterion-4 step: a seeded random triple checked for
    associativity, identity, inverse and commutativity in ku, then a fresh
    triple in ko, so that every operation has the same shape.
    """

    name = "axioms_warm"
    cold = False
    setup_samples = 2
    complex_name = "rp2xrp2"

    def setup(self, seed: int):
        from supercoh import brauer, corpus

        self.seed = seed
        self.x = corpus.complex_by_name(self.complex_name)
        table = expected.landmark_table()
        ok = True
        self.identity = {}
        for variant in VARIANTS:
            ok &= _group(brauer.abstract_group(self.x, variant)) == table[(self.complex_name, variant, "abstract_group")]
            self.identity[variant] = brauer.identity_element(self.x, variant)
        # one warm-up step per variant, from a stream the timed phase never uses
        ok &= all(self._step(variant, random.Random(f"warm-up {seed} {variant}")) for variant in VARIANTS)
        return ok

    def deck(self, k: int) -> list:
        """Round k is one operation, named by the seed of its random stream."""
        return [f"{self.seed} {k}"]

    def _step(self, variant, rng) -> tuple[bool, ...]:
        from supercoh import brauer

        a, b, c = (brauer.random_element(self.x, variant, rng) for _ in range(3))
        e = self.identity[variant]
        add, eq = brauer.add, brauer.equals
        return (
            eq(add(add(a, b), c), add(a, add(b, c))),
            eq(add(a, e), a),
            eq(add(a, brauer.negate(a)), e),
            eq(add(a, b), add(b, a)),
        )

    def run(self, op):
        rng = random.Random(op)
        return tuple(ok for variant in VARIANTS for ok in self._step(variant, rng))

    def check(self, op, answer) -> bool:
        return len(answer) == 8 and all(answer)


class AlgebraSmall:
    """Stable 2-type equivalence queries and DSV cases, the only users of the
    dsv and stable2type modules."""

    name = "algebra_small"
    cold = False
    setup_samples = 5
    # (pi0, pi1) as (free rank, invariant factors)
    specs = (((0, (4, 8)), (0, (2, 2))), ((0, (2, 8)), (0, (2, 2))), ((1, (2,)), (0, (2, 2))))
    # F5 only: over Q the smallest nontrivial case costs about 20 times an
    # equivalence query, which would split the latencies into two clusters.
    field_char = 5
    # cases, one per equivalence query in a deck: with 32, the pool's mean cost
    # varied with the seed enough to spread latency_p50_ms by 9% over seeds
    dsv_pool = 192
    dsv_dims = (3, 2)  # (larger, smaller) dimension of every V and W

    def setup(self, seed: int):
        from supercoh import dsv, stable2type
        from supercoh.exact_linalg import AbelianGroupPresentation as G

        self.seed = seed
        self.structures = [stable2type.enumerate_symmetric_structures(G(*p0), G(*p1)) for p0, p1 in self.specs]
        self.table = expected.stable2type_table()
        expected.check_equivalence_relation(self.table)
        self.classes = sorted({tuple(j for j, eq in enumerate(row) if eq) for row in self.table})
        ok = all(len(s) == len(self.table) for s in self.structures)
        rng = random.Random(f"dsv {seed}")
        self.cases = []
        field = dsv.Field(self.field_char)
        for _ in range(self.dsv_pool):
            raw = expected.dsv_case(self.field_char, self.dsv_dims, rng)
            v = dsv.DSV.make(field, *raw["v"])
            w = dsv.DSV.make(field, *raw["w"])
            fmap = dsv.DSVMap.make(v, w, *raw["f"])
            lowest, dims, boundaries, _ = raw["complex"]
            e = dsv.BoundedChainComplex.make(field, lowest, dims, boundaries)
            self.cases.append((fmap, e, raw))
        return ok

    def deck(self, k: int) -> list:
        """Round k: a shuffled deck of fixed composition, so that runs with
        different seeds do the same mix of work.

        For each spec and each structure i, one query against a seeded member
        of every equivalence class (one answer True, three False); then as
        many DSV operations, every pooled case the same number of times.
        """
        rng = random.Random(f"deck {self.seed} {k}")
        ops = [
            ("equivalent", spec, i, rng.choice(cls))
            for spec in range(len(self.specs))
            for i in range(len(self.table))
            for cls in self.classes
        ]
        ops += [("dsv", c) for c in range(len(self.cases))] * (len(ops) // len(self.cases))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        from supercoh import dsv, stable2type

        if op[0] == "equivalent":
            _, spec, i, j = op
            return stable2type.equivalent(self.structures[spec][i], self.structures[spec][j])
        fmap, e, _ = self.cases[op[1]]
        quasi_iso = dsv.is_quasi_iso(fmap)
        inverse = dsv.homotopy_inverse(fmap)
        chi_tensor = dsv.euler_char(dsv.tensor(fmap.source, fmap.target))
        chi_epsilon = dsv.euler_char(dsv.epsilon(e))
        return quasi_iso, inverse is not None, chi_tensor, chi_epsilon

    def check(self, op, answer) -> bool:
        if op[0] == "equivalent":
            return answer == self.table[op[2]][op[3]]
        raw = self.cases[op[1]][2]
        quasi_iso, has_inverse, chi_tensor, chi_epsilon = answer
        chi_v, chi_w = raw["euler"]
        return (
            quasi_iso == raw["quasi_iso"]
            and has_inverse == quasi_iso  # criterion 5: quasi-iso iff homotopy inverse
            and chi_tensor == chi_v * chi_w
            and chi_epsilon == raw["complex"][3]
        )


WORKLOADS = {w.name: w for w in (BrauerCold, CohomologyCold, AxiomsWarm, AlgebraSmall)}
