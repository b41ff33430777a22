"""Reference implementations that the tests compare the library against.

They share no fast path with the code under test: each computes its answer
the plain way, from exact points.
"""

from fractions import Fraction
from typing import Sequence

from chrotop.errors import BaseMismatch
from chrotop.simplicial import Complex, vertex_key
from chrotop.subdivision import BarycentricPoint, _gauss_jordan, geometric_distance, geometric_simplex


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


def _solve_convex(columns: Sequence[BarycentricPoint], x: BarycentricPoint):
    """Exact solve of  sum_j lam_j * col_j == x,  sum lam = 1.

    Returns the lambda vector, or None if the system is inconsistent.
    Free variables (affinely dependent columns) are pinned to zero and
    the candidate is verified against the original system.
    """
    keys = sorted({v for c in columns for v in c.weights} | set(x.weights), key=vertex_key)
    rows = [[c.weight(k) for c in columns] + [x.weight(k)] for k in keys]
    rows.append([Fraction(1)] * len(columns) + [Fraction(1)])
    ncols = len(columns)
    mat = [row[:] for row in rows]
    pivots = _gauss_jordan(mat, ncols)
    if any(row[ncols] != 0 for row in mat[len(pivots):]):
        return None
    lam = [Fraction(0)] * ncols
    for row, (col, _) in zip(mat, pivots):
        lam[col] = row[ncols]
    for row in rows[:-1]:
        if sum(l * c for l, c in zip(lam, row[:ncols])) != row[ncols]:
            return None
    if sum(lam) != 1:
        return None
    return lam


def point_in_hull(x: BarycentricPoint, hull: Sequence[BarycentricPoint]) -> bool:
    """Exact closed convex hull membership."""
    if any(h.base.facets != x.base.facets for h in hull):
        raise BaseMismatch("hull and point live over different bases")
    lam = _solve_convex(hull, x)
    return lam is not None and all(l >= 0 for l in lam)


def geometric_containment(
    sigma: Sequence[BarycentricPoint], tau: Sequence[BarycentricPoint]
) -> bool:
    """True iff every point of sigma lies in the closed hull of tau."""
    return all(point_in_hull(p, tau) for p in sigma)
