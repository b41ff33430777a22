"""Chromatic simplicial complexes, simplicial maps, and carrier maps.

Vertices are identified by their (color, label) pair.  Labels are either
plain values (ints or strings, for inputs and outputs) or nested
`Simplex` objects, which is how subdivision vertices carry their full
history.  Complexes store only their maximal simplexes (facets); faces
are enumerated on demand.
"""

from __future__ import annotations

import json
import re
from itertools import chain, combinations
from operator import attrgetter
from typing import Collection, Iterable, Iterator, Mapping

from .errors import IncompleteMap, InvalidCarrier, InvalidVertex, Unsupported


class Record:
    """Base of the records that are checked against a reference's by
    `==`: equal, as a dataclass is, when of one class and with equal
    tuples of fields (`_fields`, all of `__slots__` unless a subclass
    says otherwise)."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented


class Frozen(Record):
    """Base of the value types, read-only and hashed by their compared
    fields, and written `Name(field=value, ...)`, as a frozen dataclass
    is.  `__init__` sets each field once, through `object.__setattr__`."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self.__slots__)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Vertex(Frozen):
    """A colored, labeled vertex, frozen. Equality and hashing are by
    value; the hash is `hash((color, label))`, computed once by the plain
    `__init__`, the one construction every view of a subdivision walk
    goes through, and a nested label's own hash is one level deep, so a
    view's hash costs the same at every depth.  A vertex keeps no sort
    key: vertices order by their ranks (`_rank_vertices`), so a label
    that has no order (a float, say) still makes a vertex.

    Equal vertices may be distinct objects.  `execution_cells` makes
    equal views of one walk one object, so comparing them stops at an
    identity check.  Equal views of two walks compare by color and then
    by `_equal_labels`, which does not recurse, so at any depth."""

    __slots__ = ("color", "label", "_hash")

    def __init__(self, color: int, label: object):
        object.__setattr__(self, "color", color)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", hash((color, label)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Vertex:
            return NotImplemented
        return self.color == other.color and (
            self.label is other.label or _equal_labels(self.label, other.label))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"v({vertex_string(self)})"


def _equal_labels(x, y) -> bool:
    """`x == y` for two vertex labels.  Nested simplexes are compared from
    an explicit stack: their hashes first, then their vertices, each pair
    of distinct simplexes once, so two equal views built apart compare in
    time linear in their history, at any depth."""
    pairs, seen = [(x, y)], set()
    while pairs:
        x, y = pairs.pop()
        if not (isinstance(x, Simplex) and isinstance(y, Simplex)):
            if x != y:
                return False
            continue
        if x._hash != y._hash or len(x._verts) != len(y._verts):
            return False
        for v, w in zip(x._verts, y._verts):
            if v is w:
                continue
            if v.color != w.color:
                return False
            if v.label is not w.label and (id(v.label), id(w.label)) not in seen:
                seen.add((id(v.label), id(w.label)))
                pairs.append((v.label, w.label))
    return True


def label_key(label):
    """Order key of a plain label: ints, then strings, then labels with a
    `_label_key` hook (points).  A `Simplex` label has no key of its own:
    it orders by its carrier's ranks (`_rank_vertices`)."""
    if isinstance(label, int):
        return (0, label)
    if isinstance(label, str):
        return (1, label)
    if hasattr(label, "_label_key"):
        return (3, label._label_key())
    raise TypeError(f"unorderable vertex label: {label!r}")


def vertex_key(v: Vertex):
    """`(color, label_key(label))` of a vertex with a plain label."""
    return (v.color, label_key(v.label))


def label_string(label) -> str:
    """Canonical printable form of a label: a nested simplex is written as
    its vertices' `"color:label"` texts in braces (`label_strings`)."""
    return label_strings([label])[0] if isinstance(label, Simplex) else str(label)


def label_strings(labels: Iterable) -> list[str]:
    """The `label_string` of each label.  The nested simplexes of their
    histories are written level by level, deepest first (`_history_levels`),
    each once, so a label of any depth can be written, and equal labels
    share one text."""
    labels = list(labels)
    text: dict = {}
    levels = _history_levels([v for x in labels if isinstance(x, Simplex) for v in x._verts])
    for s in chain((v.label for level in reversed(levels) for v in level), labels):
        if isinstance(s, Simplex) and s not in text:
            text[s] = "{" + ",".join(
                f"{v.color}:{text[v.label] if isinstance(v.label, Simplex) else v.label}" for v in s._verts
            ) + "}"
    return [text[x] if isinstance(x, Simplex) else str(x) for x in labels]


def vertex_string(v: Vertex) -> str:
    """The `"color:label"` text of a vertex; a view's is its ball id."""
    return f"{v.color}:{label_string(v.label)}"


def vertex_strings(vertices: Iterable[Vertex]) -> list[str]:
    """The `vertex_string` of each vertex, from one `label_strings` call,
    so the texts of a whole subdivision cost what they are long."""
    vertices = tuple(vertices)
    return [f"{v.color}:{text}" for v, text in zip(vertices, label_strings(v.label for v in vertices))]


def vertex_json(v: Vertex) -> dict:
    """The `{"color", "label"}` JSON object of a vertex."""
    return {"color": v.color, "label": label_string(v.label)}


def parse_label(raw):
    """A label read from outside: an int stays an int, a string of ASCII
    digits with or without a leading minus becomes that int, any other
    string stays a string, and anything else (a bool too) is `Unsupported`."""
    if type(raw) is int:  # a bool is an int to Python, not to JSON
        return raw
    if not isinstance(raw, str):
        raise Unsupported(f"a vertex label must be a string or an integer, not {raw!r}")
    return int(raw) if re.fullmatch(r"-?[0-9]+", raw) else raw


class Simplex:
    """An immutable set of vertices kept in rank order (`_rank_vertices`).

    Vertices of distinct colors order by color alone; only when a color
    repeats are the vertices ranked, which orders a nested label by its
    carrier, level by level.  The hash is built from the vertices' cached
    hashes, one level down.  Equality compares the hashes, then the
    vertex tuples: identical vertices match in C, and only distinct ones
    go to `Vertex.__eq__`.
    """

    __slots__ = ("_verts", "_hash")

    def __init__(self, vertices: Iterable[Vertex]):
        verts = sorted(set(vertices), key=attrgetter("color"))
        if not verts:
            raise ValueError("empty simplex")
        # only same-color vertices need ranks or can collide; rendering labels is exponential in depth
        if len({v.color for v in verts}) < len(verts):
            verts = _rank_vertices(verts)[0]
            pairs = {(v.color, label_string(v.label)) for v in verts}
            if len(pairs) != len(verts):
                raise InvalidVertex(f"distinct vertices share a (color, label) identity: {list(verts)}")
        self._verts = tuple(verts)
        self._hash = hash(self._verts)

    @classmethod
    def _chromatic(cls, verts: tuple[Vertex, ...]) -> "Simplex":
        """The simplex of `verts`, which hold one vertex of each color, in
        color order: `__init__` without its set, sort and collision pass."""
        simplex = object.__new__(cls)
        simplex._verts = verts
        simplex._hash = hash(verts)
        return simplex

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._verts)

    def __len__(self):
        return len(self._verts)

    def __contains__(self, v):
        return v in self._verts

    def __eq__(self, other):
        # identical vertices, as an intern table's hits have, match in C;
        # distinct ones compare by `Vertex.__eq__`, which does not recurse
        return self is other or (
            isinstance(other, Simplex) and self._hash == other._hash and self._verts == other._verts
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "s{" + ",".join(repr(v) for v in self._verts) + "}"

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return self._verts

    @property
    def dim(self) -> int:
        return len(self._verts) - 1

    def colors(self) -> frozenset[int]:
        return frozenset(v.color for v in self._verts)

    def is_chromatic(self) -> bool:
        return len(self.colors()) == len(self._verts)

    def issubset(self, other: "Simplex") -> bool:
        return set(self._verts) <= set(other._verts)

    def vertex_of_color(self, color: int) -> Vertex:
        for v in self._verts:
            if v.color == color:
                return v
        raise KeyError(f"no vertex of color {color} in {self!r}")

    def faces(self) -> Iterator["Simplex"]:
        """All nonempty subsets, the simplex itself included."""
        verts = self._verts
        for r in range(1, len(verts) + 1):
            for combo in combinations(verts, r):
                yield Simplex(combo)


def _history_levels(vertices: Iterable[Vertex]) -> list[list[Vertex]]:
    """The levels of the vertices' label history, each without repeats:
    level 0 is the vertices, level j+1 the vertices of the `Simplex`
    labels in level j.  A vertex found in two levels is in each."""
    levels = [list(dict.fromkeys(vertices))]
    while True:
        below = list(dict.fromkeys([
            u for v in levels[-1] if isinstance(v.label, Simplex) for u in v.label._verts
        ]))
        if not below:
            return levels
        levels.append(below)


def _rank_vertices(vertices: list[Vertex]) -> tuple[tuple[Vertex, ...], dict[Vertex, int]]:
    """The vertices in rank order, with the rank of each: its place among
    their distinct order keys, so equal keys get equal ranks.  This is the
    one order on vertices.

    One pass over the label history (`_history_levels`), with no nested
    key built.  Each level, deepest first, is keyed by color and then by
    label: a plain label by `vertex_key`, and a `Simplex` label (after
    ints and strings, before points) by the tuple of its vertices' ranks
    one level down.  So a view orders by its carrier, position by
    position, and two vertices compared j levels down are both in level
    j; a vertex found in two levels is ranked in each."""
    rank: dict[Vertex, int] = {}
    for level in reversed(_history_levels(vertices)):
        keys = [
            (v.color, (2, tuple(map(rank.__getitem__, v.label._verts))))
            if isinstance(v.label, Simplex) else vertex_key(v)
            for v in level
        ]
        place = {key: i for i, key in enumerate(sorted(set(keys)))}
        rank = dict(zip(level, map(place.__getitem__, keys)))
    return tuple(sorted(level, key=rank.__getitem__)), rank


def rank_simplexes(simplexes: Collection[Simplex]) -> tuple[tuple[Vertex, ...], list[Simplex]]:
    """The vertices of `simplexes` in rank order, and the simplexes sorted
    by their tuples of vertex ranks; equal tuples keep their input order."""
    vertices, rank = _rank_vertices([v for s in simplexes for v in s._verts])
    return vertices, sorted(simplexes, key=lambda s: tuple(map(rank.__getitem__, s._verts)))


class Complex:
    """A finite simplicial complex given by its facets, closed under faces.

    Construction ranks the vertices once (`rank_simplexes`) and orders
    `vertices()` and the facets by those integer ranks; `simplexes()`
    sorts the faces by their vertices' positions in `vertices()`, the
    same order."""

    __slots__ = ("facets", "_faces", "_vertices")

    def __init__(self, facets: Iterable[Simplex]):
        # in input order, so which facets are compared does not follow hashes
        kept = list(dict.fromkeys(facets))
        if not kept:
            raise ValueError("a complex needs at least one facet")
        # equal facets are already merged, so a facet can only be a proper
        # face of a strictly larger one, which then holds its first vertex;
        # a pure complex builds no index and is never scanned
        top = max(map(len, kept))
        smaller = [f for f in kept if len(f) < top]
        if smaller:
            by_vertex: dict[Vertex, list[Simplex]] = {}
            for g in kept:
                for v in g:
                    by_vertex.setdefault(v, []).append(g)
            dominated = {
                f for f in smaller
                if any(len(g) > len(f) and f.issubset(g) for g in by_vertex[f.vertices[0]])
            }
            kept = [f for f in kept if f not in dominated]
        self._vertices, facets = rank_simplexes(kept)
        self.facets: tuple[Simplex, ...] = tuple(facets)
        self._faces = None

    # -- queries ------------------------------------------------------

    def _face_set(self) -> frozenset[Simplex]:
        if self._faces is None:
            faces = set()
            for f in self.facets:
                faces.update(f.faces())
            self._faces = frozenset(faces)
        return self._faces

    def simplexes(self) -> list[Simplex]:
        """All nonempty faces in canonical order."""
        position = {v: i for i, v in enumerate(self._vertices)}
        return sorted(self._face_set(), key=lambda s: tuple(map(position.__getitem__, s._verts)))

    def __contains__(self, simplex: Simplex) -> bool:
        return any(simplex.issubset(f) for f in self.facets)

    def __eq__(self, other):
        return isinstance(other, Complex) and self.facets == other.facets

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        return f"Complex({len(self.facets)} facets, {len(self.vertices())} vertices)"

    def vertices(self) -> tuple[Vertex, ...]:
        return self._vertices

    def colors(self) -> frozenset[int]:
        return frozenset(v.color for v in self.vertices())

    @property
    def dim(self) -> int:
        return max(f.dim for f in self.facets)

    def is_pure(self) -> bool:
        return len({f.dim for f in self.facets}) == 1

    def is_chromatic(self) -> bool:
        return all(f.is_chromatic() for f in self.facets)

    def is_subcomplex_of(self, other: "Complex") -> bool:
        return all(f in other for f in self.facets)

    # -- serialization -------------------------------------------------

    def to_json_obj(self) -> dict:
        vertices = self.vertices()
        encoded = {v: {"color": v.color, "label": text}
                   for v, text in zip(vertices, label_strings(v.label for v in vertices))}
        return {
            "n": max(self.colors()) + 1,
            "facets": [[encoded[v] for v in f] for f in self.facets],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Complex":
        """A complex from its facet listing; a color that is not a JSON int
        >= 0, or a label that is not a JSON string or int, is `Unsupported`."""
        facets = []
        for entry in obj["facets"]:
            verts = [Vertex(_parse_color(d["color"]), parse_label(d["label"])) for d in entry]
            if len({(v.color, v.label) for v in verts}) != len(verts):
                raise InvalidVertex(f"duplicate vertex in facet listing: {json.dumps(entry)}")
            facets.append(Simplex(verts))
        return cls(facets)


def _parse_color(raw) -> int:
    if type(raw) is not int or raw < 0:  # a bool is an int to Python, not to JSON
        raise Unsupported(f"a vertex color must be an integer >= 0, not {raw!r}")
    return raw


# -- simplicial maps ----------------------------------------------------


class SimplicialMap:
    """A vertex assignment between two complexes, applied pointwise.
    Looking up a vertex the map lacks raises `IncompleteMap`."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: Mapping[Vertex, Vertex]):
        self.mapping = dict(mapping)

    def __call__(self, v: Vertex) -> Vertex:
        try:
            return self.mapping[v]
        except KeyError:
            raise IncompleteMap(f"map undefined on {v!r}") from None

    def image(self, simplex: Simplex) -> Simplex:
        return Simplex(self(v) for v in simplex)

    def items(self):
        """The pairs in the rank order of their sources (`_rank_vertices`)."""
        return [(v, self.mapping[v]) for v in _rank_vertices(list(self.mapping))[0]]

    def __eq__(self, other):
        return isinstance(other, SimplicialMap) and self.mapping == other.mapping


class MapReport(Record):
    __slots__ = ("simplicial", "chromatic", "witness_simplex", "witness_vertex")

    def __init__(self, simplicial: bool, chromatic: bool, witness_simplex: Simplex | None,
                 witness_vertex: Vertex | None):
        self.simplicial, self.chromatic = simplicial, chromatic
        self.witness_simplex, self.witness_vertex = witness_simplex, witness_vertex

    @property
    def ok(self) -> bool:
        return self.simplicial and self.chromatic


def check_simplicial_chromatic(h: SimplicialMap, K: Complex, L: Complex) -> MapReport:
    """Check that h carries simplexes of K into L and preserves colors.

    h is looked up once per vertex of K, in rank order, so an incomplete
    map raises `IncompleteMap` naming its first unmapped vertex.  The
    witness vertex is the first vertex of K whose color h changes, and
    the witness simplex the first simplex of K, in canonical order, whose
    image is not in L (`_first_outside`)."""
    images = {v: h(v) for v in K.vertices()}
    witness_vertex = next((v for v, w in images.items() if w.color != v.color), None)
    witness_simplex = _first_outside(images, K, L)
    return MapReport(witness_simplex is None, witness_vertex is None, witness_simplex, witness_vertex)


def _first_outside(images: dict[Vertex, Vertex], K: Complex, L: Complex) -> Simplex | None:
    """The first simplex of K, in canonical order, whose image under
    `images` is not in L, or None if there is none; if that simplex's
    image collides, `InvalidVertex` is raised there.

    Each distinct image of a facet of K is tested first: L is closed under
    faces, so if every facet image lies in L, every simplex's does."""
    try:
        if all(image in L for image in {Simplex(images[v] for v in f) for f in K.facets}):
            return None
    except InvalidVertex:
        pass  # the scan raises it again, from the simplex that first meets it
    return next(s for s in K.simplexes() if Simplex(images[v] for v in s) not in L)


# -- carrier maps --------------------------------------------------------


class CarrierMap:
    """An extensional simplex-to-subcomplex assignment."""

    __slots__ = ("images",)

    def __init__(self, images: Mapping[Simplex, Complex]):
        self.images = dict(images)

    def __call__(self, simplex: Simplex) -> Complex:
        try:
            return self.images[simplex]
        except KeyError:
            raise InvalidCarrier(f"carrier map undefined on {simplex!r}") from None

    def domain(self) -> list[Simplex]:
        """The simplexes the map is defined on, in rank order."""
        return rank_simplexes(self.images)[1]

    def to_json_obj(self) -> list:
        return [
            {
                "simplex": [vertex_json(v) for v in s],
                "image": self(s).to_json_obj()["facets"],
            }
            for s in self.domain()
        ]


class CarrierReport:
    __slots__ = ("total", "monotone", "chromatic", "color_inclusion", "witness")

    def __init__(self, total: bool, monotone: bool, chromatic: bool, color_inclusion: bool,
                 witness: tuple[Simplex, Simplex] | None):
        self.total, self.monotone, self.chromatic = total, monotone, chromatic
        self.color_inclusion, self.witness = color_inclusion, witness

    @property
    def ok(self) -> bool:
        return self.total and self.monotone


def check_carrier_map(phi: CarrierMap, K: Complex, L: Complex) -> CarrierReport:
    """Check monotonicity of phi on K, plus chromaticity and color
    inclusion info.

    Monotonicity failures come with a witness pair (tau, tau') with
    tau a subset of tau' whose images are not nested.  Chromaticity is
    informational: many useful carrier maps (output specifications at the
    top simplex, execution maps of restricted models) are monotone
    without being chromatic.
    """
    simplexes = K.simplexes()
    defined = [s for s in simplexes if s in phi.images]
    for s in defined:
        if not phi(s).is_subcomplex_of(L):
            raise InvalidCarrier(f"image of {s!r} is not a subcomplex of the codomain")
    witness = next(((tau, tau2) for tau in defined for tau2 in defined
                    if tau.issubset(tau2) and not phi(tau).is_subcomplex_of(phi(tau2))), None)
    chromatic = all(phi(s).is_pure() and phi(s).dim == s.dim
                    and all(f.colors() == s.colors() for f in phi(s).facets) for s in defined)
    color_inclusion = all(phi(s).colors() <= s.colors() for s in defined)
    return CarrierReport(len(defined) == len(simplexes), witness is None, chromatic, color_inclusion, witness)


class CarriedReport(Record):
    __slots__ = ("carried", "witness")

    def __init__(self, carried: bool, witness: tuple[Simplex, Simplex] | None = None):
        self.carried, self.witness = carried, witness


def carried_by(delta: SimplicialMap, xi: CarrierMap, delta_map: CarrierMap, I: Complex) -> CarriedReport:
    """Check that, for every sigma in I and tau in xi(sigma), the image
    delta[tau] lies in delta_map(sigma).

    The sigmas are taken in canonical order.  delta is looked up once per
    vertex of each xi(sigma), in rank order, so an incomplete map raises
    `IncompleteMap` naming the first unmapped vertex of the first xi(sigma)
    that has one.  The witness is the first sigma that fails, with the
    first tau of xi(sigma), in canonical order, whose image is not in
    delta_map(sigma) (`_first_outside`)."""
    for sigma in I.simplexes():
        allowed, carried = delta_map(sigma), xi(sigma)
        tau = _first_outside({v: delta(v) for v in carried.vertices()}, carried, allowed)
        if tau is not None:
            return CarriedReport(False, (sigma, tau))
    return CarriedReport(True)
