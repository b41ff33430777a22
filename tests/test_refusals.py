"""Refusals of the library's entry points, one case each, asserted by
exception type: negative depths, too many processes, bases of the wrong
shape or coloring, and maps or subdivisions that lack what is asked of
them."""

import io

import pytest

from chrotop.checker import verify_termination_certificate
from chrotop.errors import InvalidCarrier, InvalidTermination, NotChromatic, Unsupported
from chrotop.models import ModelSpec, builtin_model, enumerate_prefixes, iis
from chrotop.protocol import build_time_T, execution_cells
from chrotop.render import render_svg, render_terminating_svg
from chrotop.simplicial import CarrierMap, Complex, Simplex, Vertex
from chrotop.subdivision import (
    TerminatingSubdivision,
    coordinates,
    edge_position,
    facet_volume_fraction,
    partial_chr_step,
    prefix_policy,
)
from chrotop.tasks import inputless_consensus

M1 = builtin_model("m1")
CONS = inputless_consensus(2)
EDGE = CONS.inputs
TRIANGLE = inputless_consensus(3).inputs
TETRAHEDRON = inputless_consensus(4).inputs
TWO_EDGES = Complex([Simplex([Vertex(0, 0), Vertex(1, 1)]), Simplex([Vertex(0, 0), Vertex(1, 2)])])


def never(k, level, tsub):
    return []


REFUSALS = {
    "build_time_T-negative": (Unsupported, lambda: build_time_T(M1, CONS, -1)),
    "execution_cells-negative": (Unsupported, lambda: execution_cells(M1, EDGE.simplexes(), -1)),
    "enumerate_prefixes-negative": (Unsupported, lambda: enumerate_prefixes(M1, -1)),
    "iis-6": (Unsupported, lambda: iis(6)),
    "schedules-6": (Unsupported, lambda: ModelSpec(n=6, name="six", kind="iis").schedules(frozenset(range(6)))),
    "certificate-two-facets": (Unsupported, lambda: verify_termination_certificate(
        TerminatingSubdivision(TWO_EDGES, never), None, M1, CONS, 0)),
    "edge_position-triangle": (Unsupported, lambda: edge_position(
        coordinates(TRIANGLE.vertices()[0], TRIANGLE), TRIANGLE)),
    "volume-of-a-vertex": (Unsupported, lambda: facet_volume_fraction(Simplex([EDGE.vertices()[0]]), EDGE)),
    "render_svg-tetrahedron": (Unsupported, lambda: render_svg(TETRAHEDRON, TETRAHEDRON, {}, io.StringIO())),
    "render_terminating_svg-no-cells": (Unsupported, lambda: render_terminating_svg(
        TerminatingSubdivision(EDGE, never), 1, io.StringIO())),
    "partial_chr_step-not-a-subcomplex": (InvalidTermination, lambda: partial_chr_step(EDGE, TRIANGLE)),
    "prefix_policy-short-word": (InvalidTermination, lambda: TerminatingSubdivision(
        EDGE, prefix_policy({1: [()]})).materialize(1)),
    "tsub-one-color": (NotChromatic, lambda: TerminatingSubdivision(
        Complex([Simplex([Vertex(0, 0), Vertex(0, 1)])]), never)),
    "empty-carrier-map": (InvalidCarrier, lambda: CarrierMap({})(EDGE.facets[0])),
    "vertex_of_color-missing": (KeyError, lambda: EDGE.facets[0].vertex_of_color(2)),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_library_refusal(name):
    error, call = REFUSALS[name]
    with pytest.raises(error):
        call()
