#!/usr/bin/env python3
"""Print cohomology tables and operation actions for the built-in corpus."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from supercoh import corpus, operations
from supercoh.simplicial import cohomology


def main():
    for name in corpus.CORPUS_NAMES:
        x = corpus.complex_by_name(name)
        counts = [x.simplex_count(q) for q in range(x.dim + 1)]
        print(f"\n== {name}: dim {x.dim}, f-vector {counts}, chi {x.euler_characteristic()}")
        for q in range(x.dim + 1):
            integral, _ = cohomology(x, q, 0)
            mod2, basis2 = cohomology(x, q, 2)
            print(f"  H^{q}:  Z-coefficients {str(integral):12s}  mod 2 {mod2}")
            for i, cls in enumerate(basis2):
                actions = operations.nonzero_actions(cls)
                tags = [tag for tag, nonzero in zip(("Sq1!=0", "Sq2!=0", "beta!=0"), actions) if nonzero]
                if tags:
                    print(f"        gen {q}.{i}: {', '.join(tags)}")


if __name__ == "__main__":
    main()
