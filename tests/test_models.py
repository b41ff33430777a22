import json

import pytest

from chrotop.errors import Unsupported
from chrotop.models import (
    ExecutionWord,
    builtin_model,
    enumerate_prefixes,
    enumerate_round_schedules,
    iis,
    is_excluded_limit,
    load_model_json_obj,
    parse_schedule,
    schedule_text,
    word,
)
from chrotop.simplicial import Complex, Simplex, Vertex
from chrotop.subdivision import cell_of_word, chr_iterate


def test_schedule_counts():
    assert len(enumerate_round_schedules(1)) == 1
    assert len(enumerate_round_schedules(2)) == 3
    assert len(enumerate_round_schedules(3)) == 13
    with pytest.raises(Unsupported):
        enumerate_round_schedules(6)


def test_arrow_parsing_round_trip():
    for name in ("->", "<-", "<->"):
        s = parse_schedule(name)
        assert schedule_text(s) == name
        assert parse_schedule([list(b) for b in s]) == s


def test_prefix_counts():
    assert len(enumerate_prefixes(builtin_model("iis2"), 2)) == 9
    assert len(enumerate_prefixes(builtin_model("m1"), 1)) == 2
    assert len(enumerate_prefixes(builtin_model("m2"), 3)) == 27


def test_m1_first_round_restriction():
    prefixes = enumerate_prefixes(builtin_model("m1"), 1)
    names = {schedule_text(p[0]) for p in prefixes}
    assert names == {"->", "<-"}


def test_m2_prefixes_match_iis_up_to_depth_four():
    m2 = builtin_model("m2")
    iis2 = builtin_model("iis2")
    for depth in range(5):
        assert enumerate_prefixes(m2, depth) == enumerate_prefixes(iis2, depth)


def test_prefix_closure_and_extendability_to_depth_four():
    for name in ("iis2", "m1", "m2"):
        model = builtin_model(name)
        participants = frozenset(range(model.n))
        by_depth = {d: set(enumerate_prefixes(model, d)) for d in range(5)}
        for d in range(1, 5):
            for prefix in by_depth[d]:
                assert prefix[:-1] in by_depth[d - 1]
        for d in range(4):
            for prefix in by_depth[d]:
                assert any(p[:-1] == prefix for p in by_depth[d + 1])


def test_prefix_chr_correspondence():
    base = Complex([Simplex([Vertex(0, 0), Vertex(1, 1)])])
    facet = base.facets[0]
    for name, onto in (("iis2", True), ("m1", False)):
        model = builtin_model(name)
        for depth in (1, 2):
            prefixes = enumerate_prefixes(model, depth)
            cells = {cell_of_word(facet, p) for p in prefixes}
            assert len(cells) == len(prefixes)
            all_facets = set(chr_iterate(base, depth).facets)
            assert cells <= all_facets
            assert (cells == all_facets) == onto


def test_excluded_limit_normalization():
    m2 = builtin_model("m2")
    direct = ExecutionWord(word("<->"), word("<-"))
    assert is_excluded_limit(m2, direct)
    unrolled = ExecutionWord(word("<->", "<-", "<-"), word("<-", "<-"))
    assert is_excluded_limit(m2, unrolled)
    assert not is_excluded_limit(m2, ExecutionWord((), word("<-")))
    assert not is_excluded_limit(builtin_model("iis2"), direct)


def test_excluded_word_prefixes_allowed():
    m2 = builtin_model("m2")
    e = m2.excluded[0]
    for depth in range(5):
        assert m2.allowed_prefix(frozenset({0, 1}), e.prefix(depth))


def test_ll_alias_is_two_process_iis():
    ll = builtin_model("ll")
    iis2 = builtin_model("iis2")
    for depth in range(4):
        assert enumerate_prefixes(ll, depth) == enumerate_prefixes(iis2, depth)


def test_model_json_round_trip():
    for name in ("iis2", "m1", "m2"):
        model = builtin_model(name)
        loaded = load_model_json_obj(json.loads(json.dumps(model.to_json_obj())))
        assert loaded.n == model.n
        assert loaded.excluded == model.excluded
        for depth in range(4):
            assert enumerate_prefixes(loaded, depth) == enumerate_prefixes(model, depth)


@pytest.mark.parametrize("obj", [
    [{"n": 2}],
    {"n": 0},
    {"n": 9},
    {"n": 2, "kind": "firstRoundRestricted", "allowedFirstRounds": [[[0]]]},
    {"n": 2, "kind": "firstRoundRestricted", "allowedFirstRounds": [[[0], [1]], [[0], [1, 2]]]},
    {"n": 2, "excluded": [{"stem": [], "cycle": [[[0]]]}]},
    {"n": 2, "excluded": [{"stem": [[[0, 1, 2]]], "cycle": ["<-"]}]},
    {"n": [2]},
    {"n": 2, "allowedFirstRounds": 5},
    {"n": 2, "allowedFirstRounds": [[0, 1]]},
    {"n": 2, "excluded": [1]},
    {"n": 2, "excluded": [["<->"]]},
    {"n": 2.7},
    {"n": True},
    {"n": "2"},
    {"n": 2, "name": 5},
    {"n": 2, "kind": [1]},
    {"n": 2, "kind": "firstRoundRestricted", "allowedFirstRounds": [{"0": 1, "1": 2}]},
    {"n": 2, "kind": "firstRoundRestricted", "allowedFirstRounds": [[["0"], ["1"]]]},
    {"n": 2, "excluded": [{"stem": [], "cycle": [[[False], [True]]]}]},
    {"n": 2, "excluded": [{"stem": "<-", "cycle": ["<-"]}]},
    {"n": 2, "excluded": [{"cycle": ["<-"]}]},
    {"n": 2, "allowedFirstRounds": ["0,x"]},
], ids=["array", "n0", "n9", "first-round-short", "first-round-foreign", "cycle-short", "stem-foreign",
        "n-list", "first-rounds-int", "first-round-flat", "excluded-int", "excluded-list",
        "n-float", "n-bool", "n-string", "name-int", "kind-list", "round-object", "round-strings",
        "round-bools", "stem-string", "stem-missing", "round-bad-string"])
def test_load_rejects_malformed_models(obj):
    with pytest.raises(Unsupported):
        load_model_json_obj(obj)


def test_sub_participation_unrestricted():
    m1 = builtin_model("m1")
    solo = frozenset({1})
    assert len(enumerate_prefixes(m1, 3, solo)) == 1


def test_participants_must_be_processes_of_the_model():
    iis3 = builtin_model("iis3")
    assert [schedule_text(s) for s in iis3.schedules(frozenset({0, 2}))] == ["0|2", "0,2", "2|0"]
    assert len(enumerate_prefixes(iis3, 2, frozenset({0, 1}))) == 9
    custom = load_model_json_obj({"n": 2, "kind": "custom", "allowedFirstRounds": ["->", "<-", "<->"]})
    for participants in ({0, 2}, {2}, {-1}):
        with pytest.raises(Unsupported, match="not processes 0..1"):
            custom.schedules(frozenset(participants))
        with pytest.raises(Unsupported):
            enumerate_prefixes(custom, 1, frozenset(participants))


def test_executions_over_foreign_colors_are_refused():
    from chrotop.protocol import all_executions

    inputs = Complex([Simplex([Vertex(0, 0), Vertex(2, 1)])])
    with pytest.raises(Unsupported):
        all_executions(iis(2), inputs, 1)
    assert len(all_executions(iis(3), inputs, 1)) == 1 + 1 + 3
