#!/usr/bin/env python3
"""Print cohomology tables and operation actions for the built-in corpus."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from supercoh import corpus, operations
from supercoh.simplicial import class_coordinates, cohomology


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
                images = (
                    ("Sq1!=0", operations.sq(1, cls)),
                    ("Sq2!=0", operations.sq(2, cls)),
                    ("beta!=0", operations.bockstein(cls)),
                )
                tags = [tag for tag, image in images if any(class_coordinates(image.cochain))]
                if tags:
                    print(f"        gen {q}.{i}: {', '.join(tags)}")


if __name__ == "__main__":
    main()
