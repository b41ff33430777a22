"""Standard chromatic subdivision, exact geometry, terminating subdivisions.

All geometry is exact: points are barycentric weight vectors over the
base complex with `Fraction` entries, distances are half 1-norms (so a
base edge has length 1), and containment tests solve small linear
systems over the rationals.  A vertex produced by subdividing carries
its whole history: its label is the simplex of the previous level it
was derived from, recursively down to the base vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    BaseMismatch,
    InvalidTermination,
    NotChromatic,
    Unsupported,
    UnknownVertex,
    UnsupportedCoarsening,
)
from .simplicial import Complex, Simplex, Vertex, vertex_key

# A round schedule, combinatorially: an ordered partition of a color set,
# encoded as a tuple of sorted tuples of colors.
Schedule = tuple


def ordered_partitions(items: Sequence[int]) -> Iterator[Schedule]:
    """All ordered partitions of `items` into nonempty blocks, in a fixed
    deterministic order (lexicographic by block sequence)."""
    items = tuple(sorted(items))
    if not items:
        yield ()
        return

    def rec(remaining: frozenset) -> Iterator[Schedule]:
        if not remaining:
            yield ()
            return
        blocks = []
        rem = sorted(remaining)
        for r in range(1, len(rem) + 1):
            blocks.extend(combinations(rem, r))
        blocks.sort()
        for block in blocks:
            rest = remaining - frozenset(block)
            for tail in rec(rest):
                yield (block,) + tail

    yield from rec(frozenset(items))


def apply_schedule(facet: Simplex, schedule: Schedule) -> Simplex:
    """One subdivision step of `facet` under a round schedule.

    Every color p in block i gets the new vertex (p, prefix) where
    prefix is the face of `facet` spanned by blocks 1..i.
    """
    seen: list[Vertex] = []
    new_vertices = []
    for block in schedule:
        seen.extend(facet.vertex_of_color(c) for c in block)
        carrier = Simplex(seen)
        for c in block:
            new_vertices.append(Vertex(c, carrier))
    return Simplex(new_vertices)


def facet_children(facet: Simplex) -> dict[Schedule, Simplex]:
    """All one-round subdivision cells of a facet, keyed by schedule."""
    return {s: apply_schedule(facet, s) for s in ordered_partitions(sorted(facet.colors()))}


def chr_subdivision(K: Complex) -> Complex:
    """The standard chromatic subdivision of a pure chromatic complex."""
    if not K.is_chromatic():
        raise NotChromatic("standard chromatic subdivision needs a chromatic complex")
    if not K.is_pure():
        raise Unsupported("standard chromatic subdivision of a non-pure complex")
    facets = []
    for f in K.facets:
        facets.extend(facet_children(f).values())
    return Complex(facets)


def chr_iterate(K: Complex, k: int) -> Complex:
    if k < 0:
        raise Unsupported("subdivision depth must be nonnegative")
    for _ in range(k):
        K = chr_subdivision(K)
    return K


def cell_of_word(base_facet: Simplex, word: Sequence[Schedule]) -> Simplex:
    """The depth-len(word) cell reached from `base_facet` by a schedule word."""
    cell = base_facet
    for schedule in word:
        cell = apply_schedule(cell, schedule)
    return cell


# -- exact geometry ------------------------------------------------------


class BarycentricPoint:
    """An exact point of the geometric realization of `base`.

    Stored as nonnegative rational weights over base vertices that sum
    to one and whose support spans a simplex of the base.  Hashable, so
    it can serve as a geometric vertex identity.
    """

    __slots__ = ("items", "base", "_hash")

    def __init__(self, weights: dict[Vertex, Fraction], base: Complex):
        items = tuple(
            (v, Fraction(w)) for v, w in sorted(weights.items(), key=lambda kv: vertex_key(kv[0]))
            if w != 0
        )
        if sum(w for _, w in items) != 1:
            raise ValueError("barycentric weights must sum to exactly 1")
        support = Simplex(v for v, _ in items)
        if any(v not in set(base.vertices()) for v, _ in items) or support not in base:
            raise UnknownVertex(f"support {support!r} is not a simplex of the base")
        self.items = items
        self.base = base
        self._hash = hash((self.items, base.facets))

    @property
    def weights(self) -> dict[Vertex, Fraction]:
        return dict(self.items)

    def weight(self, v: Vertex) -> Fraction:
        for u, w in self.items:
            if u == v:
                return w
        return Fraction(0)

    def support(self) -> Simplex:
        return Simplex(v for v, _ in self.items)

    def __eq__(self, other):
        return (
            isinstance(other, BarycentricPoint)
            and self.items == other.items
            and self.base.facets == other.base.facets
        )

    def __hash__(self):
        return self._hash

    def _label_key(self):
        return tuple((vertex_key(v), w.numerator, w.denominator) for v, w in self.items)

    def __str__(self):
        return "pt(" + ",".join(f"{v.color}:{w}" for v, w in self.items) + ")"

    def __repr__(self):
        return self.__str__()


def _raw_coordinates(v: Vertex, memo: dict) -> dict[Vertex, Fraction]:
    """Weights of a subdivision vertex over the base, by recursive placement.

    A vertex (p, sigma) one level up puts weight 1/(2m-1) on its own
    color's corner of sigma and 2/(2m-1) on each other corner, m = |sigma|.
    """
    if not isinstance(v.label, Simplex):
        return {v: Fraction(1)}
    got = memo.get(v)
    if got is not None:
        return got
    carrier = v.label
    m = len(carrier)
    own = Fraction(1, 2 * m - 1)
    other = Fraction(2, 2 * m - 1)
    out: dict[Vertex, Fraction] = {}
    for u in carrier:
        w = own if u.color == v.color else other
        for b, q in _raw_coordinates(u, memo).items():
            out[b] = out.get(b, Fraction(0)) + w * q
    memo[v] = out
    return out


_COORD_MEMO: dict[Vertex, dict[Vertex, Fraction]] = {}


def coordinates(v: Vertex, base: Complex) -> BarycentricPoint:
    """Exact barycentric coordinates of a (possibly iterated) subdivision
    vertex relative to `base`."""
    raw = _raw_coordinates(v, _COORD_MEMO)
    base_vs = set(base.vertices())
    if any(b not in base_vs for b in raw):
        raise UnknownVertex(f"{v!r} does not bottom out in the given base complex")
    return BarycentricPoint(raw, base)


def geometric_distance(x: BarycentricPoint, y: BarycentricPoint) -> Fraction:
    """Half the 1-norm of the weight difference; base edges have length 1."""
    if x.base.facets != y.base.facets:
        raise BaseMismatch("points live over different base complexes")
    keys = set(x.weights) | set(y.weights)
    return sum((abs(x.weight(k) - y.weight(k)) for k in keys), Fraction(0)) / 2


def geometric_simplex(simplex: Simplex, base: Complex) -> tuple[BarycentricPoint, ...]:
    return tuple(coordinates(v, base) for v in simplex)


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


def diameter_Dk(base: Complex, k: int) -> Fraction:
    """Diameter of the cells of the k-th chromatic subdivision of `base`."""
    return diameter(chr_iterate(base, k), base)


def _det(matrix: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    m = [row[:] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] / inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def facet_volume_fraction(simplex: Simplex, base: Complex) -> Fraction:
    """Volume of a full-dimensional subdivision cell as a fraction of the
    volume of the base facet it lies in."""
    pts = geometric_simplex(simplex, base)
    support = set()
    for p in pts:
        support.update(p.weights)
    host = next((f for f in base.facets if set(support) <= set(f.vertices)), None)
    if host is None:
        raise BaseMismatch(f"cell {simplex!r} does not lie inside a single base facet")
    if simplex.dim != host.dim:
        raise Unsupported("volume fractions are defined for full-dimensional cells")
    cols = host.vertices
    matrix = [[p.weight(c) for c in cols] for p in pts]
    return abs(_det(matrix))


def volume_by_base_facet(K: Complex, base: Complex) -> dict[Simplex, Fraction]:
    """Sum of cell volume fractions of K grouped by the base facet hosting
    each cell.  A genuine subdivision gives exactly 1 per base facet."""
    totals = {f: Fraction(0) for f in base.facets}
    for cell in K.facets:
        pts = geometric_simplex(cell, base)
        support = set()
        for p in pts:
            support.update(p.weights)
        host = next(f for f in base.facets if set(support) <= set(f.vertices))
        totals[host] += facet_volume_fraction(cell, base)
    return totals


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
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][col]
        mat[r] = [a / inv for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(mat)):
        if mat[i][ncols] != 0:
            return None
    lam = [Fraction(0)] * ncols
    for row_idx, col in enumerate(pivots):
        lam[col] = mat[row_idx][ncols]
    for row, k in zip(rows[:-1], keys):
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


def cell_contained(sigma: Simplex, tau: Simplex, base: Complex) -> bool:
    return geometric_containment(geometric_simplex(sigma, base), geometric_simplex(tau, base))


def edge_position(pt: BarycentricPoint, base: Complex) -> Fraction:
    """Orientation coordinate on a one-dimensional single-facet base: the
    weight of the color-1 corner, 0 at the color-0 end, 1 at the other."""
    if base.dim != 1 or len(base.facets) != 1:
        raise Unsupported("positions are defined on a single-edge base")
    corner1 = next(v for v in base.facets[0].vertices if v.color == 1)
    return pt.weight(corner1)


# -- terminating subdivisions ---------------------------------------------


def wrap_simplex(simplex: Simplex) -> Simplex:
    """Copy a terminated simplex into the next level: each vertex v becomes
    (color, {v}), the same geometric point."""
    return Simplex(Vertex(v.color, Simplex([v])) for v in simplex)


def partial_chr_step(I_k: Complex, sigma_k: Complex | None) -> Complex:
    """One partial chromatic subdivision step.

    Facets inside the terminated subcomplex are copied verbatim (as
    singleton-carrier vertices); every other facet is replaced by its
    standard chromatic subdivision.  A live facet with a terminated
    proper face of dimension >= 1 cannot be coarsened here and raises.
    """
    if sigma_k is not None and not sigma_k.is_subcomplex_of(I_k):
        raise InvalidTermination("terminated simplexes must form a subcomplex of the level")
    terminated = set()
    if sigma_k is not None:
        terminated = set(sigma_k._face_set())
    facets = []
    for f in I_k.facets:
        if f in terminated:
            facets.append(wrap_simplex(f))
            continue
        for face in f.faces():
            if face.dim >= 1 and face != f and face in terminated:
                raise UnsupportedCoarsening(
                    f"live facet {f!r} has terminated face {face!r} of dimension >= 1"
                )
        facets.extend(facet_children(f).values())
    return Complex(facets)


@dataclass
class StableCell:
    """A terminated simplex, remembered with the depth it appeared at."""

    depth: int
    simplex: Simplex
    points: tuple[BarycentricPoint, ...]

    def geom_simplex(self) -> Simplex:
        return Simplex(
            Vertex(v.color, p) for v, p in zip(self.simplex.vertices, self.points)
        )


@dataclass
class _Level:
    complex: Complex
    terminated_facets: set  # facets of `complex` generating the terminated subcomplex


class TerminatingSubdivision:
    """Lazy partial chromatic subdivision driven by a termination policy.

    The policy is called once per depth with (depth, level_complex, self)
    and returns the simplexes of the level to terminate at that depth
    (newly, in addition to everything already terminated).  Terminated
    simplexes are never subdivided again.
    """

    def __init__(self, base: Complex, policy: Callable[[int, Complex, "TerminatingSubdivision"], Iterable[Simplex]]):
        if not base.is_chromatic():
            raise NotChromatic("terminating subdivisions need a chromatic base")
        self.base = base
        self.policy = policy
        self._levels: list[_Level] = []
        self._stable: list[StableCell] = []
        self._cells: dict[tuple, Simplex] = {}
        if len(base.facets) == 1:
            self._cells[()] = base.facets[0]
        self._levels.append(_Level(base, set()))
        self._apply_policy(0)

    # -- materialization ------------------------------------------------

    @property
    def max_depth_materialized(self) -> int:
        return len(self._levels) - 1

    def level(self, k: int) -> Complex:
        self.materialize(k)
        return self._levels[k].complex

    def materialize(self, depth: int) -> None:
        while self.max_depth_materialized < depth:
            self._deepen()

    def _apply_policy(self, k: int) -> None:
        level = self._levels[k]
        additions = list(self.policy(k, level.complex, self))
        for s in additions:
            if s not in level.complex:
                raise InvalidTermination(f"policy terminated {s!r}, not a simplex of level {k}")
        for s in additions:
            if s in level.terminated_facets:
                continue
            level.terminated_facets.add(s)
            self._stable.append(
                StableCell(k, s, geometric_simplex(s, self.base))
            )

    def _deepen(self) -> None:
        k = self.max_depth_materialized
        level = self._levels[k]
        sigma = Complex(level.terminated_facets) if level.terminated_facets else None
        next_complex = partial_chr_step(level.complex, sigma)
        carried = {wrap_simplex(s) for s in level.terminated_facets}
        terminated_faces = set()
        if sigma is not None:
            terminated_faces = set(sigma._face_set())
        new_cells = {}
        for word, facet in self._cells.items():
            if len(word) != k or facet in terminated_faces:
                continue
            for schedule, child in facet_children(facet).items():
                new_cells[word + (schedule,)] = child
        self._cells.update(new_cells)
        self._levels.append(_Level(next_complex, carried))
        self._apply_policy(k + 1)

    # -- queries ---------------------------------------------------------

    def cell(self, word: tuple) -> Simplex | None:
        """Facet of level len(word) reached by a schedule word, or None if
        the path entered a terminated simplex earlier."""
        self.materialize(len(word))
        return self._cells.get(tuple(word))

    def stable_cells(self, depth: int) -> list[StableCell]:
        self.materialize(depth)
        return sorted(
            (c for c in self._stable if c.depth <= depth),
            key=lambda c: (c.depth, c.simplex.key),
        )

    def stable_complex(self, depth: int) -> Complex | None:
        """Union of all terminated simplexes up to `depth`, with vertices
        identified geometrically (coordinates as identity)."""
        cells = self.stable_cells(depth)
        if not cells:
            return None
        return Complex([c.geom_simplex() for c in cells])


# -- built-in policies ----------------------------------------------------


def policy_never(k, level, tsub):
    return []


def policy_all_at_zero(k, level, tsub):
    return list(level.facets) if k == 0 else []


def prefix_policy(words_by_depth: dict[int, list[tuple]]):
    """Terminate, at each depth, the cells reached by the given schedule
    words.  Words must navigate live cells of a single-facet base."""

    def policy(k, level, tsub):
        out = []
        for word in words_by_depth.get(k, []):
            if len(word) != k:
                raise InvalidTermination(f"word {word} has length {len(word)}, expected {k}")
            cell = tsub.cell(tuple(word))
            if cell is None:
                raise InvalidTermination(f"word {word} runs through a terminated cell")
            out.append(cell)
        return out

    return policy
