"""The DOT and JSON writers of a complex against plain reference copies:
the face poset built from `K.simplexes()` and `Simplex.faces()`, the
vertex texts written one vertex at a time by a recursion with no memo,
and the standard library's indent encoder."""

import io
import json

import pytest

from chrotop.render import render_dot, render_json, render_svg
from chrotop.simplicial import (Complex, Simplex, Vertex, label_string, label_strings, vertex_json,
                                vertex_string, vertex_strings)
from chrotop.subdivision import TerminatingSubdivision, chr_iterate, integer_weights, prefix_policy
from oracles import cell_of_word

R, L, B = ((0,), (1,)), ((1,), (0,)), ((0, 1),)


def standard_simplex(n):
    return Complex([Simplex(Vertex(i, i) for i in range(n))])


def written(writer, *args):
    """The text `writer(*args, out)` writes to a text file."""
    out = io.StringIO()
    writer(*args, out)
    return out.getvalue()


def texts_of(K):
    """The label texts of `K.vertices()`, which the JSON and DOT writers read."""
    return label_strings(v.label for v in K.vertices())


def reference_label(label):
    if isinstance(label, Simplex):
        return "{" + ",".join(f"{v.color}:{reference_label(v.label)}" for v in label) + "}"
    return str(label)


def reference_names(K):
    return {v: f"{v.color}:{reference_label(v.label)}" for v in K.vertices()}


def reference_dot(K):
    simplexes = K.simplexes()
    ids = {s: f"s{i}" for i, s in enumerate(simplexes)}
    names = reference_names(K)
    lines = ["digraph faceposet {", "  rankdir=BT;"]
    for s in simplexes:
        label = "|".join(names[v] for v in s)
        lines.append(f'  {ids[s]} [label="{label}"];')
    for s in simplexes:
        if s.dim == 0:
            continue
        for face in s.faces():
            if face.dim == s.dim - 1:
                lines.append(f"  {ids[face]} -> {ids[s]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_json(K):
    return {
        "n": max(K.colors()) + 1,
        "facets": [[{"color": v.color, "label": reference_label(v.label)} for v in f]
                   for f in K.facets],
    }


def stable_complex():
    policy = prefix_policy({1: [(R,)], 2: [(L, s) for s in (R, B, L)]})
    ts = TerminatingSubdivision(standard_simplex(2), policy)
    ts.materialize(2)
    return ts.stable_complex(2)


def mixed_dimension():
    A, Bv, C, D = (Vertex(i, i) for i in range(4))
    return Complex([Simplex([A, Bv, C]), Simplex([C, D])])


def string_labels():
    return Complex([
        Simplex([Vertex(0, "x"), Vertex(1, "y z"), Vertex(2, 7)]),
        Simplex([Vertex(0, "x"), Vertex(1, "w"), Vertex(2, -3)]),
        Simplex([Vertex(0, "{0:1}"), Vertex(2, -3)]),
    ])


CASES = (
    [(f"edge-k{k}", lambda k=k: chr_iterate(standard_simplex(2), k)) for k in range(5)]
    + [(f"triangle-k{k}", lambda k=k: chr_iterate(standard_simplex(3), k)) for k in range(3)]
    + [("tetrahedron-k1", lambda: chr_iterate(standard_simplex(4), 1)),
       ("mixed-ABC-CD", mixed_dimension),
       ("string-labels", string_labels),
       ("stable-complex", stable_complex)]
)


def assert_same_items(got, want):
    """`got == want` for two sequences, reporting only the first item that
    differs: pytest's diff of two whole large outputs can take minutes."""
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"first difference at item {i}"
    assert len(got) == len(want)


@pytest.mark.parametrize("build", [b for _, b in CASES], ids=[name for name, _ in CASES])
def test_writers_match_reference(build):
    K = build()
    assert_same_items(written(render_dot, K, texts_of(K)).split("\n"), reference_dot(K).split("\n"))
    assert_same_items(json.dumps(K.to_json_obj(), indent=2).split("\n"),
                      json.dumps(reference_json(K), indent=2).split("\n"))
    names = reference_names(K)
    assert_same_items(vertex_strings(K.vertices()), [names[v] for v in K.vertices()])
    for v in K.vertices():
        assert vertex_string(v) == names[v]
        assert vertex_json(v) == {"color": v.color, "label": reference_label(v.label)}
        assert label_string(v.label) == reference_label(v.label)


def test_dot_escapes_quotes_and_backslashes():
    K = Complex([Simplex([Vertex(0, 'a"b'), Vertex(1, "c\\d")])])
    assert written(render_dot, K, texts_of(K)) == "\n".join([
        "digraph faceposet {",
        "  rankdir=BT;",
        '  s0 [label="0:a\\"b"];',
        '  s1 [label="0:a\\"b|1:c\\\\d"];',
        '  s2 [label="1:c\\\\d"];',
        "  s0 -> s1;",
        "  s2 -> s1;",
        "}",
    ]) + "\n"


def test_deep_views_are_written():
    (edge,) = standard_simplex(2).facets
    for v in cell_of_word(edge, (B,) + (L,) * 40):
        assert vertex_string(v) == f"{v.color}:{reference_label(v.label)}"
    # process 1 goes first and alone, so its view nests one level per
    # round; the recursive writer overflowed the stack at about 250 rounds
    view = cell_of_word(edge, (B,) + (L,) * 1200).vertex_of_color(1)
    text = "1:{" * 1200 + "1:{0:0,1:1}" + "}" * 1200
    assert vertex_string(view) == text and vertex_strings([view]) == [text]
    assert label_string(view.label) == text[2:]
    assert vertex_json(view) == {"color": 1, "label": text[2:]}


def escaped_labels():
    # labels that JSON must escape, bare and inside a nested label
    quote, backslash, newline, accent = Vertex(0, 'a"b'), Vertex(1, "c\\d"), Vertex(2, "e\nf"), Vertex(0, "é")
    nested = Vertex(2, Simplex([Vertex(0, 'q"'), Vertex(1, "é\\")]))
    return Complex([Simplex([quote, backslash, newline]), Simplex([accent, backslash, nested])])


JSON_CASES = (
    [(f"edge-k{k}", lambda k=k: chr_iterate(standard_simplex(2), k), 0) for k in range(6)]
    + [(f"triangle-k{k}", lambda k=k: chr_iterate(standard_simplex(3), k), 0) for k in range(3)]
    + [(f"tetrahedron-k{k}", lambda k=k: chr_iterate(standard_simplex(4), k), 0) for k in range(2)]
    + [("mixed-ABC-CD", mixed_dimension, -1),
       ("string-labels", string_labels, 20261018),
       ("escaped-labels", escaped_labels, -7),
       ("stable-complex", stable_complex, 0)]
)


@pytest.mark.parametrize("build,seed", [(b, s) for _, b, s in JSON_CASES], ids=[name for name, _, _ in JSON_CASES])
def test_json_writer_matches_the_indent_encoder(build, seed):
    K = build()
    header = {"schema": 1, "seed": seed, "k": 2, "Dk": "1/9"}
    want = json.dumps({**header, **K.to_json_obj()}, indent=2) + "\n"
    assert_same_items(written(render_json, K, header, texts_of(K)).split("\n"), want.split("\n"))


class RecordingSink(io.StringIO):
    """A text file that records the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("writer", ["json", "svg", "dot"])
def test_writers_write_in_bounded_pieces(writer):
    base = standard_simplex(2)
    K = chr_iterate(base, 7)
    args = {"json": (render_json, K, {"schema": 1}, texts_of(K)),
            "svg": (render_svg, K, base, integer_weights(K.vertices(), base)),
            "dot": (render_dot, K, texts_of(K))}
    write, *rest = args[writer]
    sink = RecordingSink()
    write(*rest, sink)
    # every character went through a recorded write, none of them 64 KiB long
    assert sum(sink.sizes) == len(sink.getvalue())
    assert max(sink.sizes) <= 64 * 1024
    assert len(sink.getvalue()) > {"json": 1_500_000, "svg": 300_000, "dot": 2_000_000}[writer]
