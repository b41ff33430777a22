"""Chromatic simplicial complexes, simplicial maps, and carrier maps.

Vertices are identified by their (color, label) pair.  Labels are either
plain values (ints or strings, for inputs and outputs) or nested
`Simplex` objects, which is how subdivision vertices carry their full
history.  Complexes store only their maximal simplexes (facets); faces
are enumerated on demand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .errors import IncompleteMap, InvalidCarrier, InvalidVertex, NotASimplex


@dataclass(frozen=True)
class Vertex:
    """A colored, labeled vertex. Equality and hashing are by value."""

    color: int
    label: object

    def __repr__(self):
        return f"v({self.color}:{label_string(self.label)})"


def label_key(label):
    """Total order key over all label kinds, so vertices sort deterministically."""
    if isinstance(label, int):
        return (0, label)
    if isinstance(label, str):
        return (1, label)
    if isinstance(label, Simplex):
        return (2, label.key)
    if isinstance(label, tuple):
        return (3, tuple(label_key(x) for x in label))
    if hasattr(label, "_label_key"):
        return (4, label._label_key())
    raise TypeError(f"unorderable vertex label: {label!r}")


def vertex_key(v: Vertex):
    return (v.color, label_key(v.label))


def label_string(label) -> str:
    """Canonical printable form of a label; nested simplexes render recursively."""
    if isinstance(label, Simplex):
        return "{" + ",".join(f"{u.color}:{label_string(u.label)}" for u in label) + "}"
    return str(label)


class Simplex:
    """An immutable set of vertices kept in canonical (color, label) order."""

    __slots__ = ("_verts", "key", "_hash")

    def __init__(self, vertices: Iterable[Vertex]):
        verts = sorted(set(vertices), key=vertex_key)
        if not verts:
            raise ValueError("empty simplex")
        # only same-color vertices can collide; rendering labels is exponential in depth
        if len({v.color for v in verts}) < len(verts):
            pairs = {(v.color, label_string(v.label)) for v in verts}
            if len(pairs) != len(verts):
                raise InvalidVertex(f"distinct vertices share a (color, label) identity: {verts}")
        self._verts = tuple(verts)
        self.key = tuple(vertex_key(v) for v in verts)
        self._hash = hash(self.key)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._verts)

    def __len__(self):
        return len(self._verts)

    def __contains__(self, v):
        return v in self._verts

    def __eq__(self, other):
        return isinstance(other, Simplex) and self.key == other.key

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


class Complex:
    """A finite simplicial complex given by its facets, closed under faces."""

    __slots__ = ("facets", "_faces", "_vertices")

    def __init__(self, facets: Iterable[Simplex]):
        facet_set = set(facets)
        if not facet_set:
            raise ValueError("a complex needs at least one facet")
        # equal facets are already merged, so a facet can only be a proper
        # face of a strictly larger one; a pure complex is never scanned
        top = max(len(f) for f in facet_set)
        dominated = {
            f for f in facet_set
            if len(f) < top and any(len(g) > len(f) and f.issubset(g) for g in facet_set)
        }
        self.facets: tuple[Simplex, ...] = tuple(
            sorted(facet_set - dominated, key=lambda s: s.key)
        )
        self._faces = None
        self._vertices = None

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
        return sorted(self._face_set(), key=lambda s: s.key)

    def __contains__(self, simplex: Simplex) -> bool:
        return any(simplex.issubset(f) for f in self.facets)

    def __eq__(self, other):
        return isinstance(other, Complex) and self.facets == other.facets

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        return f"Complex({len(self.facets)} facets, {len(self.vertices())} vertices)"

    def vertices(self) -> tuple[Vertex, ...]:
        if self._vertices is None:
            seen = set()
            for f in self.facets:
                seen.update(f)
            self._vertices = tuple(sorted(seen, key=vertex_key))
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

    def star(self, simplex: Simplex) -> "Complex":
        """Subcomplex generated by all simplexes containing `simplex`."""
        if simplex not in self:
            raise NotASimplex(f"{simplex!r} is not a simplex of the complex")
        return Complex(f for f in self.facets if simplex.issubset(f))

    # -- serialization -------------------------------------------------

    def to_json_obj(self) -> dict:
        n = max(self.colors()) + 1
        return {
            "n": n,
            "facets": [
                [{"color": v.color, "label": label_string(v.label)} for v in f]
                for f in self.facets
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=False)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Complex":
        facets = []
        for entry in obj["facets"]:
            verts = [Vertex(int(d["color"]), _parse_label(d["label"])) for d in entry]
            if len({(v.color, v.label) for v in verts}) != len(verts):
                raise InvalidVertex(f"duplicate vertex in facet listing: {entry}")
            facets.append(Simplex(verts))
        return cls(facets)

    @classmethod
    def from_json(cls, text: str) -> "Complex":
        return cls.from_json_obj(json.loads(text))


def _parse_label(raw: str):
    """Labels round-trip as strings; bare integers come back as ints."""
    if isinstance(raw, int):
        return raw
    s = str(raw)
    if s.lstrip("-").isdigit():
        return int(s)
    return s


# -- simplicial maps ----------------------------------------------------


class SimplicialMap:
    """A vertex assignment between two complexes, applied pointwise."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: Mapping[Vertex, Vertex]):
        self.mapping = dict(mapping)

    def __call__(self, v: Vertex) -> Vertex:
        try:
            return self.mapping[v]
        except KeyError:
            raise IncompleteMap(f"map undefined on {v!r}") from None

    def defined_on(self, v: Vertex) -> bool:
        return v in self.mapping

    def image(self, simplex: Simplex) -> Simplex:
        return Simplex(self(v) for v in simplex)

    def items(self):
        return sorted(self.mapping.items(), key=lambda kv: vertex_key(kv[0]))

    def __eq__(self, other):
        return isinstance(other, SimplicialMap) and self.mapping == other.mapping

    @classmethod
    def identity(cls, K: Complex) -> "SimplicialMap":
        return cls({v: v for v in K.vertices()})

    def to_json_obj(self) -> list:
        return [
            {
                "from": {"color": v.color, "label": label_string(v.label)},
                "to": {"color": w.color, "label": label_string(w.label)},
            }
            for v, w in self.items()
        ]


@dataclass
class MapReport:
    simplicial: bool
    chromatic: bool
    witness_simplex: Simplex | None = None
    witness_vertex: Vertex | None = None

    @property
    def ok(self) -> bool:
        return self.simplicial and self.chromatic


def check_simplicial_chromatic(h: SimplicialMap, K: Complex, L: Complex) -> MapReport:
    """Check that h carries simplexes of K into L and preserves colors."""
    witness_vertex = None
    chromatic = True
    for v in K.vertices():
        if h(v).color != v.color:
            chromatic = False
            witness_vertex = v
            break
    simplicial = True
    witness_simplex = None
    for s in K.simplexes():
        if h.image(s) not in L:
            simplicial = False
            witness_simplex = s
            break
    return MapReport(simplicial, chromatic, witness_simplex, witness_vertex)


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
        return sorted(self.images, key=lambda s: s.key)

    @classmethod
    def constant(cls, K: Complex, L: Complex) -> "CarrierMap":
        return cls({s: L for s in K.simplexes()})

    def to_json_obj(self) -> list:
        return [
            {
                "simplex": [{"color": v.color, "label": label_string(v.label)} for v in s],
                "image": self(s).to_json_obj()["facets"],
            }
            for s in self.domain()
        ]


@dataclass
class CarrierReport:
    total: bool
    monotone: bool
    rigid: bool
    chromatic: bool
    color_inclusion: bool
    witness: tuple[Simplex, Simplex] | None = None

    @property
    def ok(self) -> bool:
        return self.total and self.monotone


def check_carrier_map(phi: CarrierMap, K: Complex, L: Complex) -> CarrierReport:
    """Check monotonicity of phi on K, plus rigidity and chromaticity info.

    Monotonicity failures come with a witness pair (tau, tau') with
    tau a subset of tau' whose images are not nested.  Rigidity and
    chromaticity are informational: many useful carrier maps (output
    specifications at the top simplex, execution maps of restricted
    models) are monotone without being rigid.
    """
    simplexes = K.simplexes()
    total = True
    for s in simplexes:
        if s not in phi.images:
            total = False
    for s in simplexes:
        if s in phi.images and not phi(s).is_subcomplex_of(L):
            raise InvalidCarrier(f"image of {s!r} is not a subcomplex of the codomain")
    monotone = True
    witness = None
    for tau in simplexes:
        if tau not in phi.images:
            continue
        for tau2 in simplexes:
            if tau2 not in phi.images or not tau.issubset(tau2):
                continue
            if not phi(tau).is_subcomplex_of(phi(tau2)):
                monotone = False
                witness = (tau, tau2)
                break
        if witness:
            break
    rigid = True
    chromatic = True
    color_inclusion = True
    for s in simplexes:
        if s not in phi.images:
            continue
        img = phi(s)
        if not (img.is_pure() and img.dim == s.dim):
            rigid = False
        if not img.colors() <= s.colors():
            color_inclusion = False
        if not (img.is_pure() and img.dim == s.dim
                and all(f.colors() == s.colors() for f in img.facets)):
            chromatic = False
    return CarrierReport(total, monotone, rigid, chromatic, color_inclusion, witness)


@dataclass
class CarriedReport:
    carried: bool
    witness: tuple[Simplex, Simplex] | None = None


def carried_by(delta: SimplicialMap, xi: CarrierMap, delta_map: CarrierMap, I: Complex) -> CarriedReport:
    """Check that, for every sigma in I and tau in xi(sigma), the image
    delta[tau] lies in delta_map(sigma)."""
    for sigma in I.simplexes():
        allowed = delta_map(sigma)
        for tau in xi(sigma).simplexes():
            if delta.image(tau) not in allowed:
                return CarriedReport(False, (sigma, tau))
    return CarriedReport(True)
