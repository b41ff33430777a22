"""Standard chromatic subdivision, exact geometry, terminating subdivisions.

Chr^k is built level by level (`walk_cells`): one subdivision step per
cell (`_children`) expands it under all the schedules named for it, so
each face of a cell is built once whatever schedules reach it, the cell
itself being the carrier of all its colors.  Every step of a walk
shares one intern table, so each view is built once, a face or view met
from another cell is that cell's object, and a schedule's plan, its
prefix color sets and color-order slots, is worked out once per table;
each color set's schedules are listed once per walk.
`apply_schedule` is the same step under one schedule.  A
`TerminatingSubdivision` keeps one intern table for its levels, its
`cell` lookups and the certificate's walk of schedule words, so a cell
met again is the same object.

All geometry is exact.  A vertex produced by subdividing carries its
whole history: its label is the simplex of the previous level it was
derived from, recursively down to the base vertices (see `walk_cells`).
`integer_weights` reads a level-k vertex's position off that history as
integers: its barycentric weights over the base vertices times
scale**k, with scale = lcm(1, 3, ..., 2n - 1) for the largest base facet
size n.  Cells shrink by the same factor every level, so the cell
diameter `diameter_Dk` is a closed form, ((2n - 3)/(2n - 1))**k, and
builds no vertex.  An exact point, a `BarycentricPoint` of `Fraction`
weights, is built only where a point is a vertex label (the stable
complexes of terminating subdivisions) or asked for through
`coordinates`, as the ball rule asks for the views it tries.  Distances
are half 1-norms, so a base edge has length 1; `stable_ball` gathers the
stable vertices near a point for the ball rule and the certificate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    BaseMismatch,
    InvalidTermination,
    NotChromatic,
    Unsupported,
    UnknownVertex,
    UnsupportedCoarsening,
)
from .simplicial import Complex, Record, Simplex, Vertex, _history_levels, rank_simplexes, vertex_key

# A round schedule, combinatorially: an ordered partition of a color set,
# encoded as a tuple of sorted tuples of colors.  It is chrotop's only
# schedule value: model words are tuples of it, and `models.parse_schedule`
# reads and checks one from input.
Schedule = tuple


def ordered_partitions(items: Sequence[int]) -> list[Schedule]:
    """All ordered partitions of `items` into nonempty blocks, in a fixed
    deterministic order (lexicographic by block sequence)."""
    done = []
    stack = [((), tuple(sorted(items)))]
    while stack:
        blocks, rest = stack.pop()
        if not rest:
            done.append(blocks)
        for r in range(1, len(rest) + 1):
            for block in combinations(rest, r):
                stack.append((blocks + (block,), tuple(c for c in rest if c not in block)))
    return sorted(done)


def apply_schedule(facet: Simplex, schedule: Schedule, table: dict | None = None) -> Simplex:
    """One subdivision step of `facet` under a round schedule, the plain
    tuple of its blocks that a model word holds: the one-schedule call of
    `_children`.

    Every color p in block i gets the new vertex (p, prefix) where
    prefix is the face of `facet` spanned by blocks 1..i.  Steps that
    share the intern table `table` share its carriers, views, cells and
    plans; without one the step uses a table of its own, so every
    carrier, view and cell is new.
    """
    return _children(facet, (schedule,), {} if table is None else table)[0]


def _children(cell: Simplex, schedules: Sequence[Schedule], table: dict) -> list[Simplex]:
    """The subdivision step of `cell` under each of `schedules`, in order.

    Each face of the cell that a prefix of a schedule spans is built and
    interned once, the cell itself being the face of all its colors, and
    each view (color, face) once; every child is then a tuple of those
    views.  The intern table maps each carrier and each cell to the equal
    one it met first, (color, interned carrier) to the view, and each
    schedule to its plan (`_plan`), so the steps that share it keep one
    object per carrier, view and cell value and make each plan once.
    """
    faces: dict = {}  # prefix color set -> the interned face of the cell
    children = []
    for schedule in schedules:
        plan = table.get(schedule)
        if plan is None:
            plan = table[schedule] = _plan(schedule, table)
        views = []
        for colors, c in plan:
            carrier = faces.get(colors)
            if carrier is None:
                carrier = _face_of_colors(cell, colors)
                carrier = faces[colors] = table.setdefault(carrier, carrier)
            view = table.get((c, carrier))
            if view is None:
                view = table[c, carrier] = Vertex(c, carrier)
            views.append(view)
        child = Simplex._chromatic(tuple(views))
        children.append(table.setdefault(child, child))
    return children


def _plan(schedule: Schedule, table: dict) -> tuple:
    """The slots of a schedule, one per vertex of the child in color
    order: its prefix color set, one object per intern table, and its
    color.  A schedule that is empty, has an empty block or names a color
    twice raises `ValueError`, as `models.parse_schedule` does."""
    slots, colors = [], frozenset()
    for block in schedule:
        colors = colors.union(block)
        colors = table.setdefault(colors, colors)
        slots += [(colors, c) for c in block]
    if not all(schedule) or not 0 < len(slots) == len(colors):
        raise ValueError(f"blocks must be nonempty and name each color once: {schedule}")
    return tuple(sorted(slots, key=itemgetter(1)))


def _face_of_colors(facet: Simplex, colors: frozenset) -> Simplex:
    """The face of `facet` that holds its vertex of each of `colors`, read
    off the facet's vertices, which are in color order; a color the facet
    lacks or holds twice raises `KeyError`.  One vertex per color, in
    color order, is a simplex without the checks of `Simplex`, and a face
    that holds as many vertices as the facet is the facet itself."""
    face = tuple([v for v in facet._verts if v.color in colors])
    if len(face) != len(colors):
        raise KeyError(f"{facet!r} has not one vertex of each color in {sorted(colors)}")
    return facet if len(face) == len(facet) else Simplex._chromatic(face)


def walk_cells(roots: Sequence[Simplex], depth: int, letters: Callable, table: dict | None = None) -> list[tuple]:
    """(root, word, cell) for the depth-`depth` cells under the roots, level
    by level: a word extends by each schedule of the sequence
    `letters(word, cell)` names, and one `_children` call expands the
    cell under all of them.  One intern table, `table` or one of the
    call's own, serves every step, so equal carriers, views and cells are
    one object, and each schedule's plan is made once."""
    table = {} if table is None else table
    level = [(root, (), root) for root in roots]
    for _ in range(depth):
        deeper = []
        for root, word, cell in level:
            schedules = letters(word, cell)
            deeper += [(root, word + (s,), child)
                       for s, child in zip(schedules, _children(cell, schedules, table))]
        level = deeper
    return level


def _schedule_letters() -> Callable:
    """A `walk_cells` letters function naming every schedule of a cell's
    colors; each color set's are listed by one `ordered_partitions` call."""
    alphabets: dict = {}

    def letters(word: tuple, cell: Simplex) -> tuple:
        colors = cell.colors()
        if colors not in alphabets:
            alphabets[colors] = tuple(ordered_partitions(colors))
        return alphabets[colors]

    return letters


def chr_iterate(K: Complex, k: int) -> Complex:
    """Chr^k of a pure chromatic complex, built by one `walk_cells` as one `Complex`."""
    _check_subdividable(K, k)
    return Complex(cell for _, _, cell in walk_cells(K.facets, k, _schedule_letters()))


def _check_subdividable(K: Complex, k: int) -> None:
    """Refuse a negative depth and, from depth 1 on, a complex that is not
    chromatic or not pure: `chr_iterate` builds no other Chr^k."""
    if k < 0:
        raise Unsupported("subdivision depth must be nonnegative")
    if k and not K.is_chromatic():
        raise NotChromatic("standard chromatic subdivision needs a chromatic complex")
    if k and not K.is_pure():
        raise Unsupported("standard chromatic subdivision of a non-pure complex")


# -- exact geometry ------------------------------------------------------


class BarycentricPoint:
    """An exact point of the geometric realization of `base`.

    Stored as one read-only mapping, in canonical vertex order, from base
    vertices to nonnegative rational weights that sum to one and whose
    support spans a simplex of the base.  Hashable, so it can serve as a
    geometric vertex identity.
    """

    __slots__ = ("_weights", "base", "_hash")

    def __init__(self, weights: dict[Vertex, Fraction], base: Complex):
        items = tuple(
            (v, Fraction(w)) for v, w in sorted(weights.items(), key=lambda kv: vertex_key(kv[0]))
            if w != 0
        )
        if sum(w for _, w in items) != 1:
            raise ValueError("barycentric weights must sum to exactly 1")
        support = Simplex(v for v, _ in items)
        if support not in base:
            raise UnknownVertex(f"support {support!r} is not a simplex of the base")
        self._weights = MappingProxyType(dict(items))
        self.base = base
        self._hash = hash((items, base.facets))

    @property
    def weights(self) -> Mapping[Vertex, Fraction]:
        return self._weights

    @property
    def items(self) -> tuple[tuple[Vertex, Fraction], ...]:
        return tuple(self._weights.items())

    def weight(self, v: Vertex) -> Fraction:
        return self._weights.get(v, Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, BarycentricPoint)
            and self._weights == other._weights
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


def weight_scale(base: Complex) -> int:
    """lcm(1, 3, ..., 2n - 1) for the largest facet size n of `base`: every
    weight of a level-k vertex times scale**k is an integer."""
    return lcm(*range(1, 2 * max((len(f) for f in base.facets), default=1), 2))


def integer_weights(vertices: Iterable[Vertex], base: Complex) -> dict:
    """Maps each of `vertices`, and every vertex of its history, to (depth,
    weights): its barycentric weights over `base.vertices()`, in that
    order, times `weight_scale(base)`**depth, all integers.  A base vertex
    has depth 0; a vertex (c, carrier) has depth one more than its
    deepest carrier vertex, whose weights the others are lifted to.

    The history is read level by level, deepest first (`_history_levels`),
    each vertex once.  A leaf that is not a base vertex, or a support that
    is not a simplex of the base, raises `UnknownVertex`; a carrier without
    exactly one vertex of the vertex's own color raises `ValueError`, and
    one with more vertices than any base facet `Unsupported`.
    """
    memo: dict = {}
    corners = base.vertices()
    position = {v: i for i, v in enumerate(corners)}
    scale = weight_scale(base)
    facets = [frozenset(position[v] for v in f) for f in base.facets]
    for level in reversed(_history_levels(vertices)):
        for u in level:
            if u in memo:
                continue
            carrier = u.label
            if not isinstance(carrier, Simplex):
                if u not in position:
                    raise UnknownVertex(f"{u!r} is not a vertex of the base")
                memo[u] = (0, tuple(int(i == position[u]) for i in range(len(corners))))
                continue
            own = [i for i, w in enumerate(carrier) if w.color == u.color]
            if len(own) != 1:
                raise ValueError(f"the carrier of {u!r} holds {len(own)} vertices of its color, not one")
            m = len(carrier)
            if scale % (2 * m - 1):
                raise Unsupported(f"the carrier of {u!r} has more vertices than any base facet")
            depth, vectors = _lifted([memo[w] for w in carrier], scale)
            # 1/(2m-1) on the carrier vertex of its own color and 2/(2m-1)
            # on each other: one level finer, factor * (2 * seen - own)
            factor = scale // (2 * m - 1)
            seen = [sum(column) for column in zip(*vectors)]
            weights = tuple(factor * (2 * s - a) for s, a in zip(seen, vectors[own[0]]))
            support = [i for i, a in enumerate(weights) if a]
            if not any(f.issuperset(support) for f in facets):
                raise UnknownVertex(f"the support of {u!r} is not a simplex of the base")
            memo[u] = (depth + 1, weights)
    return memo


def _lifted(entries: list, scale: int) -> tuple[int, list[tuple[int, ...]]]:
    """The greatest depth of some `integer_weights` entries, and the
    weights of each lifted to it: times scale**(depth - its own depth)."""
    depth = max(d for d, _ in entries)
    return depth, [ints if d == depth else tuple(a * scale ** (depth - d) for a in ints)
                   for d, ints in entries]


def _point(weights: tuple[int, tuple[int, ...]], base: Complex) -> BarycentricPoint:
    """The exact point of one `integer_weights` entry."""
    depth, ints = weights
    denominator = weight_scale(base) ** depth
    return BarycentricPoint(
        {b: Fraction(a, denominator) for b, a in zip(base.vertices(), ints) if a}, base
    )


def coordinates(v: Vertex, base: Complex) -> BarycentricPoint:
    """Exact barycentric coordinates of a (possibly iterated) subdivision
    vertex relative to `base`: its `integer_weights` entry as a point.

    A vertex (p, sigma) one level up puts weight 1/(2m-1) on its own
    color's corner of sigma and 2/(2m-1) on each other corner, m = |sigma|.
    A vertex that does not bottom out in `base` raises `UnknownVertex`.
    Nothing is kept between calls.
    """
    return _point(integer_weights([v], base)[v], base)


def geometric_distance(x: BarycentricPoint, y: BarycentricPoint) -> Fraction:
    """Half the 1-norm of the weight difference; base edges have length 1."""
    if x.base.facets != y.base.facets:
        raise BaseMismatch("points live over different base complexes")
    xw, yw = x.weights, y.weights
    # an int 0 for a missing weight: every term still has a Fraction side
    return sum((abs(xw.get(k, 0) - yw.get(k, 0)) for k in xw.keys() | yw.keys()), Fraction(0)) / 2


def geometric_simplex(simplex: Simplex, base: Complex) -> tuple[BarycentricPoint, ...]:
    """The exact points of a simplex's vertices, from one `integer_weights` call."""
    weights = integer_weights(simplex, base)
    return tuple(_point(weights[v], base) for v in simplex)


def diameter_Dk(base: Complex, k: int) -> Fraction:
    """D_k, the largest distance between two vertices of one cell of the
    k-th chromatic subdivision of `base`: ((2n - 3)/(2n - 1))**k for the
    largest base facet size n, and 0 when n = 1.  Depths of one or more
    refuse the bases `chr_iterate` refuses.

    D_1 = (2n - 3)/(2n - 1).  A distance is 1 minus the weight two points
    share.  The carriers of one level-1 cell are nested, so take two of
    its vertices (c, s) and (d, t) with s a face of t, |s| = m <= |t| = l
    <= n; they share at least 2/(2l - 1).  If s = {c}, that is the weight
    of c in (d, t).  Otherwise the corners of s other than c hold at
    least (2m - 3)/(2l - 1) of (d, t), each no more than in (c, s), and c
    holds at least 1/(2l - 1) of both.  A process that saw only itself,
    at its corner, and one that saw all n meet the bound.
    D_{k+1} <= D_1 * D_k.  A child vertex is a level-1 point of its
    parent cell, so two children differ by a zero-sum combination of the
    parent's vertices.  Its positive mass, their level-1 distance, is at
    most D_1, and it is that mass times the difference of two points of
    the parent cell, at most D_k apart.
    D_k >= D_1**k.  Under the word ({c}, rest)**k vertex c stays at its
    corner.  The weight a_k that each other vertex puts on that corner
    follows 1 - a_{k+1} = (2n - 3)/(2n - 1) * (1 - a_k) from a_0 = 0, and
    1 - a_k is its distance to c.
    """
    _check_subdividable(base, k)
    n = max(len(f) for f in base.facets)
    return Fraction(2 * n - 3, 2 * n - 1) ** k if n > 1 else Fraction(0)


def _determinant(rows: list[list[int]]) -> int:
    """The determinant of a square integer matrix by fraction-free
    (Bareiss) elimination, on a copy: every division is exact, and the
    last pivot is the determinant up to the sign of the row swaps."""
    rows = [list(row) for row in rows]
    sign, last = 1, 1
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k]
        for row in rows[k + 1:]:
            for j in range(k + 1, len(rows)):
                row[j] = (row[j] * top[k] - row[k] * top[j]) // last
        last = top[k]
    return sign * last


def facet_volume_fraction(simplex: Simplex, base: Complex) -> Fraction:
    """Volume of a full-dimensional subdivision cell as a fraction of the
    volume of the base facet it lies in."""
    return _host_and_volume(simplex, base, integer_weights(simplex, base))[1]


def _host_and_volume(simplex: Simplex, base: Complex, weights: dict) -> tuple[Simplex, Fraction]:
    """The base facet a cell lies in, and `facet_volume_fraction` of it;
    `weights` holds the `integer_weights` of the cell's vertices."""
    corners = base.vertices()
    scale = weight_scale(base)
    # each vertex's weights over scale**depth, the cell's deepest level
    depth, rows = _lifted([weights[v] for v in simplex], scale)
    support = {corners[i] for row in rows for i, a in enumerate(row) if a}
    host = next((f for f in base.facets if support <= set(f.vertices)), None)
    if host is None:
        raise BaseMismatch(f"cell {simplex!r} does not lie inside a single base facet")
    if simplex.dim != host.dim:
        raise Unsupported("volume fractions are defined for full-dimensional cells")
    cols = [corners.index(c) for c in host.vertices]
    # every row carries the factor scale**depth
    det = _determinant([[row[i] for i in cols] for row in rows])
    return host, Fraction(abs(det), scale ** (depth * len(cols)))


def volume_by_base_facet(K: Complex, base: Complex) -> dict[Simplex, Fraction]:
    """Sum of cell volume fractions of K grouped by the base facet hosting
    each cell.  A genuine subdivision gives exactly 1 per base facet."""
    totals = {f: Fraction(0) for f in base.facets}
    weights = integer_weights((v for cell in K.facets for v in cell), base)
    for cell in K.facets:
        host, volume = _host_and_volume(cell, base, weights)
        totals[host] += volume
    return totals


def edge_position(pt: BarycentricPoint, base: Complex) -> Fraction:
    """Orientation coordinate on a one-dimensional single-facet base: the
    weight of the color-1 corner, 0 at the color-0 end, 1 at the other."""
    if base.dim != 1 or len(base.facets) != 1:
        raise Unsupported("positions are defined on a single-edge base")
    corner1 = next(v for v in base.facets[0].vertices if v.color == 1)
    return pt.weight(corner1)


# -- terminating subdivisions ---------------------------------------------


def wrap_simplex(simplex: Simplex, table: dict | None = None) -> Simplex:
    """Copy a terminated simplex into the next level: each vertex v becomes
    (color, {v}), the same geometric point.  With an `apply_schedule`
    intern table, the carriers, vertices and copy are its objects: a
    vertex (c, {v}) is also the view of a process that saw only itself."""
    table = {} if table is None else table
    vertices = []
    for v in simplex:
        carrier = Simplex([v])
        carrier = table.setdefault(carrier, carrier)
        view = table.get((v.color, carrier))
        if view is None:
            view = table[v.color, carrier] = Vertex(v.color, carrier)
        vertices.append(view)
    wrapped = Simplex(vertices)
    return table.setdefault(wrapped, wrapped)


def partial_chr_step(I_k: Complex, sigma_k: Complex | None, table: dict | None = None) -> Complex:
    """One partial chromatic subdivision step.

    Facets inside the terminated subcomplex are copied verbatim (as
    singleton-carrier vertices); every other facet is replaced by its
    standard chromatic subdivision.  A live facet with a terminated
    proper face of dimension >= 1 cannot be coarsened here and raises.
    The copies and the subdivision share `table`, an `apply_schedule`
    intern table, or one of the call's own.
    """
    table = {} if table is None else table
    if sigma_k is not None and not sigma_k.is_subcomplex_of(I_k):
        raise InvalidTermination("terminated simplexes must form a subcomplex of the level")
    terminated = set()
    if sigma_k is not None:
        terminated = set(sigma_k._face_set())
    facets, live = [], []
    for f in I_k.facets:
        if f in terminated:
            facets.append(wrap_simplex(f, table))
            continue
        for face in f.faces():
            if face.dim >= 1 and face != f and face in terminated:
                raise UnsupportedCoarsening(
                    f"live facet {f!r} has terminated face {face!r} of dimension >= 1"
                )
        live.append(f)
    facets.extend(cell for _, _, cell in walk_cells(live, 1, _schedule_letters(), table))
    return Complex(facets)


class StableCell(Record):
    """A terminated simplex, remembered with the depth it appeared at."""

    __slots__ = ("depth", "simplex", "points")

    def __init__(self, depth: int, simplex: Simplex, points: tuple[BarycentricPoint, ...]):
        self.depth, self.simplex, self.points = depth, simplex, points

    def geom_simplex(self) -> Simplex:
        return Simplex(
            Vertex(v.color, p) for v, p in zip(self.simplex.vertices, self.points)
        )


class _Level:
    __slots__ = ("complex", "terminated_facets")

    def __init__(self, complex: Complex, terminated_facets: set):
        # the facets of `complex` generating the terminated subcomplex
        self.complex, self.terminated_facets = complex, terminated_facets


class TerminatingSubdivision:
    """Lazy partial chromatic subdivision driven by a termination policy.

    The policy is called once per depth with (depth, level_complex, self)
    and returns the simplexes of the level to terminate at that depth
    (newly, in addition to everything already terminated).  Terminated
    simplexes are never subdivided again.

    `table` is the one `apply_schedule` intern table of the subdivision:
    its levels are built with it, and `cell` and the certificate's walk
    of schedule words (`verify_termination_certificate`) walk with it, so
    a cell of a level met again is that level's facet, the same object.
    """

    def __init__(self, base: Complex, policy: Callable[[int, Complex, "TerminatingSubdivision"], Iterable[Simplex]]):
        if not base.is_chromatic():
            raise NotChromatic("terminating subdivisions need a chromatic base")
        self.base = base
        self.policy = policy
        self.table: dict = {}
        self._levels: list[_Level] = []
        self._stable: list[StableCell] = []
        self._levels.append(_Level(base, set()))
        self._apply_policy(0)

    # -- materialization ------------------------------------------------

    @property
    def max_depth_materialized(self) -> int:
        return len(self._levels) - 1

    def materialize(self, depth: int) -> None:
        if depth < 0:
            raise Unsupported("subdivision depth must be nonnegative")
        while self.max_depth_materialized < depth:
            self._deepen()

    def _apply_policy(self, k: int) -> None:
        level = self._levels[k]
        additions = list(self.policy(k, level.complex, self))
        for s in additions:
            if s not in level.complex:
                raise InvalidTermination(f"policy terminated {s!r}, not a simplex of level {k}")
        new = [s for s in dict.fromkeys(additions) if s not in level.terminated_facets]
        level.terminated_facets.update(new)
        # depths come in order, so `_stable` stays sorted by (depth, rank)
        for s in rank_simplexes(new)[1]:
            self._stable.append(StableCell(k, s, geometric_simplex(s, self.base)))

    def _deepen(self) -> None:
        k = self.max_depth_materialized
        level = self._levels[k]
        sigma = Complex(level.terminated_facets) if level.terminated_facets else None
        next_complex = partial_chr_step(level.complex, sigma, self.table)
        carried = {wrap_simplex(s, self.table) for s in level.terminated_facets}
        self._levels.append(_Level(next_complex, carried))
        self._apply_policy(k + 1)

    # -- queries ---------------------------------------------------------

    @cached_property
    def _schedules(self) -> frozenset:
        """The schedules a word may name over a single base facet, listed
        once per subdivision, when a word is first walked."""
        return frozenset(ordered_partitions(self.base.colors()))

    def cell(self, word: tuple) -> Simplex | None:
        """Facet of level len(word) reached by a schedule word from the
        single base facet, or None if the path entered a terminated
        simplex earlier, a schedule is not an ordered partition of its
        cell's colors, or the base has several facets."""
        self.materialize(len(word))
        if len(self.base.facets) != 1:
            return None
        cell = self.base.facets[0]
        for level, schedule in zip(self._levels, word):
            # a full-dimensional cell is a terminated face only as a terminated facet
            if cell in level.terminated_facets or schedule not in self._schedules:
                return None
            cell = apply_schedule(cell, schedule, self.table)
        return cell

    def stable_cells(self, depth: int) -> list[StableCell]:
        """The cells terminated at depths <= `depth`, by depth and then in
        rank order (`rank_simplexes`), as `_apply_policy` appends them."""
        self.materialize(depth)
        return [c for c in self._stable if c.depth <= depth]

    def stable_complex(self, depth: int) -> Complex | None:
        """Union of all terminated simplexes up to `depth`, with vertices
        identified geometrically (coordinates as identity)."""
        cells = self.stable_cells(depth)
        if not cells:
            return None
        return Complex([c.geom_simplex() for c in cells])


def stable_ball(tsub: TerminatingSubdivision, depth: int) -> Callable:
    """`ball(color, point, radius)`: the stable vertices of `tsub` up to
    `depth` of that color within `geometric_distance` `radius` of the exact
    `point`, boundary included, in rank order.  The ball rule and the
    certificate's local constancy condition gather their balls here."""
    stable = tsub.stable_complex(depth)
    by_color: dict[int, list[Vertex]] = {}
    for v in stable.vertices() if stable is not None else ():
        by_color.setdefault(v.color, []).append(v)

    def ball(color: int, point: BarycentricPoint, radius: Fraction) -> list[Vertex]:
        return [w for w in by_color.get(color, ()) if geometric_distance(point, w.label) <= radius]

    return ball


# -- built-in policies ----------------------------------------------------


def policy_all_at_zero(k, level, tsub):
    return list(level.facets) if k == 0 else []


def prefix_policy(words_by_depth: dict[int, list[tuple]]):
    """Terminate, at each depth, the cells reached by the given schedule
    words.  Words must navigate live cells of a single-facet base."""

    def policy(k, level, tsub):
        if words_by_depth.get(k) and len(tsub.base.facets) != 1:
            raise InvalidTermination("prefix policies need a single-facet base")
        out = []
        for word in words_by_depth.get(k, []):
            if len(word) != k:
                raise InvalidTermination(f"word {word} has length {len(word)}, expected {k}")
            if not tsub._schedules.issuperset(word):
                raise InvalidTermination(f"word {word} has a schedule that is not an ordered partition of the base colors")
            cell = tsub.cell(tuple(word))
            if cell is None:
                raise InvalidTermination(f"word {word} runs through a terminated cell")
            out.append(cell)
        return out

    return policy
