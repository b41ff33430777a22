"""Reference implementations that the tests compare the library against.

They share no fast path with the code under test: each computes its answer
the plain way, from exact points.
"""

from fractions import Fraction

from chrotop.simplicial import Complex
from chrotop.subdivision import geometric_distance, geometric_simplex


def diameter(K: Complex, base: Complex) -> Fraction:
    """Largest pairwise vertex distance within any facet of K."""
    best = Fraction(0)
    for f in K.facets:
        pts = geometric_simplex(f, base)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d = geometric_distance(pts[i], pts[j])
                if d > best:
                    best = d
    return best
