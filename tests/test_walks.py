"""The one walk down a view, the one exact elimination and the level-by-level
schedule words, each against a test-local copy of the code it replaced:
a view ancestor found by stepping back one round at a time, a recursive
word extension, a forward-elimination determinant and a convex solve with
its own elimination loop.  The time-T complex built by the cell walk is
checked against every execution replayed on its own, and every cell of
the Chr^k and execution walks against its word replayed from the
definition (`oracles.reference_cell`)."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest

from chrotop.checker import build_time_T
from chrotop.models import ModelSpec, builtin_model, enumerate_prefixes, iis
from chrotop.protocol import all_executions, execution_cells, execution_configurations, view_chain, view_depth
from chrotop.simplicial import CarrierMap, Complex, Simplex, Vertex, vertex_key
from chrotop.subdivision import (
    BarycentricPoint,
    _determinant,
    apply_schedule,
    chr_iterate,
    facet_volume_fraction,
    geometric_simplex,
    ordered_partitions,
    walk_cells,
)
from chrotop.tasks import Task, inputless_consensus, set_agreement
from oracles import _solve_convex, cell_of_word, point_in_hull, reference_cell

# -- reference copies ------------------------------------------------------------


def reference_depth(v):
    depth = 0
    while isinstance(v.label, Simplex):
        v = v.label.vertex_of_color(v.color)
        depth += 1
    return depth


def reference_ancestor(v, t):
    d = reference_depth(v)
    if t > d:
        raise ValueError(f"view has depth {d}, cannot ascend to {t}")
    while d > t:
        v = v.label.vertex_of_color(v.color)
        d -= 1
    return v


def reference_prefixes(model, depth, participants=None):
    if participants is None:
        participants = frozenset(range(model.n))
    alphabet = model.schedules(participants)
    out = []

    def extend(prefix):
        if len(prefix) == depth:
            out.append(prefix)
            return
        for s in alphabet:
            candidate = prefix + (s,)
            if model.allowed_prefix(participants, candidate):
                extend(candidate)

    if model.allowed_prefix(participants, ()):
        extend(())
    return out


def reference_det(matrix):
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


def reference_solve_convex(columns, x):
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
    for row in rows[:-1]:
        if sum(l * c for l, c in zip(lam, row[:ncols])) != row[ncols]:
            return None
    if sum(lam) != 1:
        return None
    return lam


def standard_simplex(n):
    return Complex([Simplex(Vertex(i, i) for i in range(n))])


# -- view chains -------------------------------------------------------------------


@pytest.mark.parametrize("model, task, top", [
    ("iis2", inputless_consensus(2), 4),
    ("m1", inputless_consensus(2), 5),
    ("iis3", set_agreement(3), 2),
])
def test_view_chain_entries_are_the_ancestors(model, task, top):
    for T in range(top + 1):
        for view in build_time_T(builtin_model(model), task, T).complex.vertices():
            chain = view_chain(view)
            assert len(chain) == T + 1 == view_depth(view) + 1 == reference_depth(view) + 1
            for t in range(T + 1):
                assert chain[t] is reference_ancestor(view, t)


# -- schedule words -----------------------------------------------------------------


def no_second_full_exchange(participants, w):
    """A test-local predicate: the full exchange at most once, and never
    right after "<-" (a dead end for words that cannot be extended)."""
    full = ((0, 1),)
    return w.count(full) <= 1 and all(
        not (a == ((1,), (0,)) and b == full) for a, b in zip(w, w[1:])
    )


PREDICATE_MODEL = ModelSpec(n=2, name="p2", kind="custom", predicate=no_second_full_exchange)
# allows not even the empty word, so only solo executions remain
NO_FULL_RUN = ModelSpec(n=2, name="solo", kind="custom", predicate=lambda participants, w: False)


@pytest.mark.parametrize("model, top", [
    (builtin_model("iis2"), 5),
    (builtin_model("m1"), 5),
    (builtin_model("m2"), 5),
    (builtin_model("iis3"), 3),
    (PREDICATE_MODEL, 5),
])
def test_words_match_the_recursive_extension_in_order(model, top):
    processes = range(model.n)
    subsets = [frozenset(c) for r in range(1, model.n + 1) for c in combinations(processes, r)]
    for participants in subsets:
        for depth in range(top + 1):
            assert enumerate_prefixes(model, depth, participants) == \
                reference_prefixes(model, depth, participants), (participants, depth)


def test_words_ask_the_same_prefix_questions():
    asked = {"new": Counter(), "old": Counter()}
    for side, enumerate_ in (("new", enumerate_prefixes), ("old", reference_prefixes)):
        def recording(participants, w, counter=asked[side]):
            counter[(participants, w)] += 1
            return no_second_full_exchange(participants, w)

        model = ModelSpec(n=2, name="rec", kind="custom", predicate=recording)
        enumerate_(model, 4)
    assert asked["new"] == asked["old"] and asked["new"]


def test_words_reach_depths_past_the_recursion_limit():
    words = enumerate_prefixes(iis(1), 3000)
    assert len(words) == 1 and len(words[0]) == 3000


# -- time-T complexes -----------------------------------------------------------------


def binary_inputs(n):
    """A task whose input complex has every 0/1 input vector as a facet;
    `build_time_T` reads only its inputs."""
    inputs = Complex(Simplex(Vertex(i, b) for i, b in enumerate(bits)) for bits in product((0, 1), repeat=n))
    return Task("binary", inputs, inputs, CarrierMap({s: inputs for s in inputs.simplexes()}))


@pytest.mark.parametrize("model, top", [
    (builtin_model("iis2"), 4),
    (builtin_model("m1"), 4),
    (builtin_model("m2"), 4),
    (builtin_model("iis3"), 2),
    (PREDICATE_MODEL, 5),
    (NO_FULL_RUN, 2),
], ids=["iis2", "m1", "m2", "iis3", "p2", "no-full-run"])
def test_xi_is_the_compatible_executions_replayed(model, top):
    for task in (inputless_consensus(model.n), binary_inputs(model.n)):
        for T in range(top + 1):
            PT = build_time_T(model, task, T)
            finals = [(e.face, execution_configurations(e)[-1]) for e in all_executions(model, task.inputs, T)]
            assert PT.complex == Complex(cell for _, cell in finals)
            for sigma in task.inputs.simplexes():
                faces = set(sigma.faces())
                replayed = Complex(cell for face, cell in finals if face in faces)
                image = PT.xi(sigma)
                assert image == replayed and image.vertices() == replayed.vertices(), (task.name, T, sigma)


# -- exact elimination ---------------------------------------------------------------


@pytest.mark.parametrize("dim, k", [(2, 2), (3, 1)])
def test_volume_fraction_is_the_reference_determinant(dim, k):
    base = standard_simplex(dim + 1)
    corners = base.facets[0].vertices
    K = chr_iterate(base, k)
    total = Fraction(0)
    for facet in K.facets:
        matrix = [[p.weight(c) for c in corners] for p in geometric_simplex(facet, base)]
        volume = facet_volume_fraction(facet, base)
        assert type(volume) is Fraction and volume == abs(reference_det(matrix)) != 0
        total += volume
    assert total == 1


def test_elimination_pivots_give_the_determinant():
    """The last fraction-free pivot, signed by the row swaps, is the
    determinant: each matrix is scaled to integers by the lcm of its
    denominators, which multiplies the determinant by that lcm**n."""
    rng = random.Random(3)
    singular = [
        [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(6)],
         [Fraction(0), Fraction(1), Fraction(5)]],
        [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(7)]],
        [[Fraction(1, 3), Fraction(2, 3), Fraction(0)], [Fraction(0), Fraction(1, 2), Fraction(1, 2)],
         [Fraction(1, 3), Fraction(7, 6), Fraction(1, 2)]],
    ]
    randoms = []
    for _ in range(200):
        n = rng.randint(1, 4)
        randoms.append([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)])
    for matrix in singular + randoms:
        scale = lcm(*(a.denominator for row in matrix for a in row))
        integers = [[int(a * scale) for a in row] for row in matrix]
        assert _determinant(integers) == reference_det(matrix) * scale ** len(matrix)
    assert all(reference_det(matrix) == 0 for matrix in singular)


def random_point(rng, base, corners):
    weights = [rng.randint(0, 6) for _ in corners]
    if not any(weights):
        weights[0] = 1
    return BarycentricPoint({c: Fraction(w, sum(weights)) for c, w in zip(corners, weights)}, base)


def combination(rng, points, base):
    """A random convex combination of `points`."""
    lam = [rng.randint(0, 4) for _ in points]
    if not any(lam):
        lam[-1] = 1
    weights = {}
    for l, p in zip(lam, points):
        for v, w in p.weights.items():
            weights[v] = weights.get(v, 0) + Fraction(l, sum(lam)) * w
    return BarycentricPoint(weights, base)


def test_hull_membership_matches_the_reference_solve():
    rng = random.Random(11)
    base = standard_simplex(3)
    corners = base.facets[0].vertices
    verdicts = Counter()
    for trial in range(400):
        hull = [random_point(rng, base, corners) for _ in range(rng.randint(1, 4))]
        shape = trial % 3
        if shape == 1:  # a repeated point
            hull.append(hull[0])
        elif shape == 2:  # collinear points
            hull = hull[:2] + [combination(rng, hull[:2], base)]
        for x in (random_point(rng, base, corners), combination(rng, hull, base)):
            old = reference_solve_convex(hull, x)
            assert _solve_convex(hull, x) == old
            inside = old is not None and all(l >= 0 for l in old)
            assert point_in_hull(x, hull) is inside
            verdicts[inside] += 1
    assert verdicts[True] and verdicts[False]


# -- the subdivision step against the per-word replay ------------------------------


def simplex_of(n):
    return Simplex(Vertex(i, i) for i in range(n))


def every_schedule(word, cell):
    return ordered_partitions(cell.colors())


def assert_views_interned(cells):
    """Equal views and carriers met anywhere in the cells' histories are
    one object; the roots' own vertices are the caller's."""
    first, walked = {}, set()
    stack = [v for cell in cells for v in cell]
    while stack:
        v = stack.pop()
        if id(v) in walked or not isinstance(v.label, Simplex):
            continue
        walked.add(id(v))
        assert first.setdefault(v, v) is v
        assert first.setdefault(v.label, v.label) is v.label
        stack.extend(v.label)


@pytest.mark.parametrize("roots, top", [
    ([simplex_of(2)], 5),
    ([simplex_of(3)], 3),
    ([simplex_of(4)], 2),
    ([simplex_of(3), Simplex([Vertex(0, 0), Vertex(1, 1), Vertex(2, 3)])], 2),
    ([simplex_of(2), Simplex([Vertex(0, 0), Vertex(1, 2)])], 3),
    ([simplex_of(2), Simplex([Vertex(1, 2), Vertex(2, 3)])], 3),
], ids=["edge", "triangle", "tetrahedron", "two-triangles", "two-edges", "two-color-sets"])
def test_chr_walk_is_the_per_word_replay(roots, top):
    """Each level of the walk that builds Chr^k holds, in order, every root
    and word of that depth with the cell the word's replay builds."""
    for depth in range(top + 1):
        level = walk_cells(roots, depth, every_schedule)
        words = [(root, word) for root in roots
                 for word in product(ordered_partitions(root.colors()), repeat=depth)]
        assert [(root, word) for root, word, _ in level] == words
        for root, word, cell in level:
            assert cell == reference_cell(root, word) == cell_of_word(root, word)
        assert_views_interned(cell for _, _, cell in level)
    assert Complex(cell for _, _, cell in level) == chr_iterate(Complex(roots), top)


def random_first_round_models(n, count, seed):
    rng = random.Random(seed)
    schedules = ordered_partitions(range(n))
    return [ModelSpec(n=n, name=f"first{n}-{i}", kind="custom",
                      allowed_first_rounds=tuple(rng.sample(schedules, rng.randint(1, len(schedules)))))
            for i in range(count)]


@pytest.mark.parametrize("model", random_first_round_models(2, 20, 5) + random_first_round_models(3, 20, 6),
                         ids=lambda m: m.name)
def test_execution_walk_is_the_per_word_replay(model):
    """The execution walk of a first-round-restricted model is
    `all_executions`, in order, each with the cell its replay builds."""
    inputs = Complex([simplex_of(model.n)])
    for depth in range(4):
        cells = execution_cells(model, inputs.simplexes(), depth)
        executions = [(e.face, e.word) for e in all_executions(model, inputs, depth)]
        assert [(face, word) for face, word, _ in cells] == executions
        for face, word, cell in cells:
            assert cell == reference_cell(face, word)
        assert_views_interned(cell for _, _, cell in cells)


@pytest.mark.parametrize("schedule, error", [
    (((0,), (2,)), KeyError), (((2,),), KeyError), (((0, 1, 2),), KeyError),
    ((), ValueError), (((), (0, 1)), ValueError), (((0,), (), (1,)), ValueError), (((0, 1), ()), ValueError),
    (((0,), (0, 1)), ValueError), (((0, 1), (0,)), ValueError), (((0, 0),), ValueError),
])
def test_a_malformed_schedule_raises(schedule, error):
    """A color the cell lacks raises `KeyError`; an empty schedule or
    block, or a color named twice, `ValueError`, through each entry to the
    subdivision step."""
    edge = simplex_of(2)
    with pytest.raises(error):
        apply_schedule(edge, schedule)
    with pytest.raises(error):
        walk_cells([edge], 1, lambda word, cell: [((0,), (1,)), schedule])
    with pytest.raises(error):
        cell_of_word(edge, (((0, 1),), schedule))
