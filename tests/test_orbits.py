"""Reflection tables: span rules, braid checks, orbit enumeration, serialization."""

import json
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelorbits import (
    CartanSpec,
    EdgeType,
    Orbit,
    ReflectionTable,
    Span,
    build_complex_table,
    build_table,
)
from borelorbits import orbits as orbits_module
from borelorbits.patterns import OpenPatterns, PatternMoves

A1 = CartanSpec.from_label("A1")
D2 = CartanSpec.from_label("D2")
A2 = CartanSpec.from_label("A2")


def rank_one_table(edge, opens, lowers):
    orbits = [Orbit(name, is_open=False, is_max_rank=False) for name in opens + lowers]
    return ReflectionTable(
        orbits=orbits,
        cartan=A1,
        spans=[Span(1, edge, tuple(opens), tuple(lowers))],
    )


@pytest.mark.parametrize("edge", [EdgeType.P, EdgeType.T0, EdgeType.N0])
def test_single_orbit_spans_fix(edge):
    table = rank_one_table(edge, ["O"], [])
    assert table.reflection_permutation(1) == {"O": "O"}


def test_u_span_swaps_open_and_lower():
    table = rank_one_table(EdgeType.U, ["O"], ["O1"])
    assert table.reflection_permutation(1) == {"O": "O1", "O1": "O"}


@pytest.mark.parametrize("edge", [EdgeType.T1, EdgeType.T])
def test_t1_span_swaps_lowers_fixes_open(edge):
    table = rank_one_table(edge, ["O"], ["O1", "O2"])
    assert table.reflection_permutation(1) == {"O": "O", "O1": "O2", "O2": "O1"}


def test_t2_span_swaps_opens_and_lowers():
    table = rank_one_table(EdgeType.T2, ["O", "O'"], ["O1", "O2"])
    assert table.reflection_permutation(1) == {
        "O": "O'",
        "O'": "O",
        "O1": "O2",
        "O2": "O1",
    }


@pytest.mark.parametrize("edge", [EdgeType.N1, EdgeType.N])
def test_n1_span_fixes_everything(edge):
    table = rank_one_table(edge, ["O"], ["O0"])
    assert table.reflection_permutation(1) == {"O": "O", "O0": "O0"}


def test_n2_span_swaps_opens_fixes_lower():
    table = rank_one_table(EdgeType.N2, ["O", "O'"], ["O0"])
    assert table.reflection_permutation(1) == {"O": "O'", "O'": "O", "O0": "O0"}


def test_every_permutation_is_involution():
    table = rank_one_table(EdgeType.T2, ["O", "O'"], ["O1", "O2"])
    perm = table.reflection_permutation(1)
    assert all(perm[perm[x]] == x for x in perm)


def sign_flip_table(cartan):
    """Two sign flips on {+,-}^2 with explicit T2 lower orbits."""
    tuples = ["++", "+-", "-+", "--"]
    orbits = [Orbit(t, is_open=True, is_max_rank=True) for t in tuples]
    spans = []
    for i in (1, 2):
        for t in tuples:
            flip = t[: i - 1] + ("-" if t[i - 1] == "+" else "+") + t[i:]
            if flip < t:
                continue
            lows = (f"{t}a{i}", f"{t}b{i}")
            orbits.extend(Orbit(low) for low in lows)
            spans.append(Span(i, EdgeType.T2, (t, flip), lows))
    covered = {(s.root, name) for s in spans for name in s.members}
    for i in (1, 2):
        for o in list(orbits):
            if (i, o.name) not in covered:
                spans.append(Span(i, EdgeType.P, (o.name,)))
    return ReflectionTable(orbits=orbits, cartan=cartan, spans=spans)


def test_braid_commuting_flips_fail_at_exponent_three():
    report = sign_flip_table(A2).check_braid()
    pair = report.pair(1, 2)
    assert pair.exponent == 3
    assert not pair.holds
    assert pair.witness == "++"  # lexicographically least moved orbit
    assert not report.holds


def test_braid_commuting_flips_hold_at_even_exponent():
    assert sign_flip_table(D2).check_braid().holds
    assert sign_flip_table(CartanSpec.from_label("B2")).check_braid().holds
    assert sign_flip_table(CartanSpec.from_label("G2")).check_braid().holds


def test_braid_restriction_to_fixed_orbit_holds():
    # A singleton subset fixed by every generator passes all pairs, even in a
    # table whose full braid check fails.
    payload = sign_flip_table(A2).to_json()
    payload["orbits"].append({"id": "ZZ", "open": False, "max_rank": False})
    payload["spans"].append({"root": 1, "type": "P", "open": ["ZZ"]})
    payload["spans"].append({"root": 2, "type": "P", "open": ["ZZ"]})
    table = ReflectionTable.from_json(payload)
    assert not table.check_braid().holds
    assert table.check_braid(restrict_to=["ZZ"]).holds


def test_braid_restriction_must_be_invariant():
    table = sign_flip_table(A2)
    with pytest.raises(ValueError, match="not invariant"):
        table.check_braid(restrict_to=["++"])
    with pytest.raises(ValueError, match="unknown orbit"):
        table.check_braid(restrict_to=["nope"])


def test_braid_generator_subset():
    table = sign_flip_table(A2)
    report = table.check_braid(generators=[1])
    assert report.pairs == ()
    assert report.holds
    with pytest.raises(ValueError, match="out of range"):
        table.check_braid(generators=[3])


def test_subgroup_orbits_two_flips():
    table = sign_flip_table(D2)
    opens = table.open_orbit_names
    classes = table.subgroup_orbits((1, 2), opens)
    assert classes == (("++", "+-", "-+", "--"),)


def test_subgroup_orbits_empty_generators():
    table = sign_flip_table(D2)
    classes = table.subgroup_orbits((), table.open_orbit_names)
    assert classes == (("++",), ("+-",), ("-+",), ("--",))


def test_subgroup_orbits_order_independence():
    table = sign_flip_table(D2)
    domain = table.orbit_names
    assert table.subgroup_orbits((1, 2), domain) == table.subgroup_orbits(
        (2, 1), tuple(reversed(domain))
    )


def test_subgroup_orbits_rejects_non_invariant_domain():
    table = sign_flip_table(D2)
    with pytest.raises(ValueError, match="not invariant"):
        table.subgroup_orbits((1,), ["++", "+-"])


def test_real_group_orbit_classes_uses_tn_roots_only():
    # U moves do not merge open orbits; T2/N2 moves do.
    orbits = [
        Orbit("A", is_open=True, is_max_rank=True),
        Orbit("B", is_open=True, is_max_rank=True),
        Orbit("low"),
    ]
    spans = [
        Span(1, EdgeType.N2, ("A", "B"), ("low",)),
    ]
    table = ReflectionTable(orbits=orbits, cartan=A1, spans=spans)
    assert table.real_group_orbit_classes() == (("A", "B"),)

    orbits = [
        Orbit("A", is_open=True, is_max_rank=True),
        Orbit("B", is_open=True, is_max_rank=True),
        Orbit("A1"),
        Orbit("B1"),
    ]
    spans = [
        Span(1, EdgeType.U, ("A",), ("A1",)),
        Span(1, EdgeType.U, ("B",), ("B1",)),
    ]
    table = ReflectionTable(orbits=orbits, cartan=A1, spans=spans)
    assert table.real_group_orbit_classes() == (("A",), ("B",))


def test_real_group_orbit_classes_detects_inconsistency():
    orbits = [
        Orbit("A", is_open=True, is_max_rank=True),
        Orbit("B", is_max_rank=True),  # not open, yet T2-paired with A
        Orbit("x"),
        Orbit("y"),
    ]
    spans = [Span(1, EdgeType.T2, ("A", "B"), ("x", "y"))]
    table = ReflectionTable(orbits=orbits, cartan=A1, spans=spans)
    with pytest.raises(ValueError, match="inconsistent"):
        table.real_group_orbit_classes()


def test_every_source_answers_through_one_path():
    # One body each for the table and both pattern sources.
    for method in ("check_braid", "subgroup_orbits"):
        shared = getattr(orbits_module._Moves, method)
        assert getattr(ReflectionTable, method) is shared
        assert getattr(PatternMoves, method) is shared
        assert getattr(OpenPatterns, method) is shared
    # bench/tracing.py wraps the table's methods as read from ReflectionTable.__dict__.
    for method in ("check_braid", "subgroup_orbits", "real_group_orbit_classes"):
        assert method in ReflectionTable.__dict__


_LONG = "x" * 100_000
_CUT = repr(_LONG)[:60] + "..."  # every long name below is shown as this


def _long_names_table():
    # s_1 swaps the open orbit and a non-open one in the open slots of an N2 span.
    a, b, c = _LONG + "a", _LONG + "b", _LONG + "c"
    orbits = [Orbit(a, True, True), Orbit(b), Orbit(c)]
    return ReflectionTable(orbits, A1, [Span(1, EdgeType.N2, (a, b), (c,))])


_TABLE, _MOVES = _long_names_table(), PatternMoves(3, 2)
_UNKNOWN = f"unknown orbit {_CUT} in restriction"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _TABLE.check_braid(restrict_to=[_LONG]), _UNKNOWN),
        (lambda: _TABLE.subgroup_orbits([1], [_LONG]), _UNKNOWN),
        (lambda: _MOVES.check_braid(restrict_to=[_LONG]), _UNKNOWN),
        (lambda: _MOVES.subgroup_orbits([1], [_LONG]), _UNKNOWN),
        (
            lambda: _TABLE.check_braid(restrict_to=[_LONG + "a"]),
            f"restriction is not invariant: s_1 moves {_CUT} to {_CUT} outside the subset",
        ),
        (
            lambda: _TABLE.real_group_orbit_classes(),
            f"T/N reflection s_1 maps open orbit to non-open within span ({_CUT}, {_CUT}); "
            "table is inconsistent",
        ),
        (lambda: _TABLE.span_of(_LONG, 1), f"no span for orbit {_CUT} at root 1"),
        (
            lambda: ReflectionTable.from_columns(A1, {}, [_LONG + "b", _LONG], b"\0\0", b"\0\0"),
            f"orbits must be in name order, got {_CUT} after {_CUT}",
        ),
        (
            lambda: CartanSpec.from_label("A" + _LONG),
            f"cannot parse Cartan label {repr('A' + _LONG)[:60]}... (expected e.g. 'A2', 'B4')",
        ),
    ],
    ids=["table-braid", "table-subgroup", "moves-braid", "moves-subgroup", "not-invariant",
         "inconsistent", "span-of", "name-order", "cartan-label"],
)
def test_queries_refuse_long_names_with_a_bounded_echo(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message and len(message.encode()) < 1024


def test_an_unknown_orbit_is_a_key_error_with_a_bounded_echo():
    with pytest.raises(KeyError) as refused:
        _TABLE.orbit(_LONG)
    assert refused.value.args == (f"unknown orbit {_CUT}",)


def test_type_census_flags_t2_on_max_rank():
    table = sign_flip_table(A2)
    census = table.type_census()
    assert census.t2_on_max_rank
    assert census.counts[1][EdgeType.T2] == 2
    assert census.counts[1][EdgeType.P] == 4

    trivial = rank_one_table(EdgeType.P, ["O"], [])
    assert not trivial.type_census().t2_on_max_rank


def test_table_construction_errors():
    orbits = [Orbit("O"), Orbit("Q")]
    # wrong slot counts
    with pytest.raises(ValueError, match="slot"):
        ReflectionTable(orbits, A1, [Span(1, EdgeType.T2, ("O",), ("Q",))])
    # orbit in two spans
    with pytest.raises(ValueError, match="two spans"):
        ReflectionTable(
            orbits,
            A1,
            [
                Span(1, EdgeType.P, ("O",)),
                Span(1, EdgeType.U, ("O",), ("Q",)),
            ],
        )
    # missing orbit
    with pytest.raises(ValueError, match="not covered"):
        ReflectionTable(orbits, A1, [Span(1, EdgeType.P, ("O",))])
    # unknown orbit name
    with pytest.raises(ValueError, match="unknown orbit"):
        ReflectionTable(
            orbits, A1, [Span(1, EdgeType.U, ("O",), ("ghost",)), Span(1, EdgeType.P, ("Q",))]
        )
    # bad root index
    with pytest.raises(ValueError, match="out of range"):
        ReflectionTable(orbits, A1, [Span(2, EdgeType.P, ("O",)), Span(1, EdgeType.P, ("Q",))])
    # duplicate names
    with pytest.raises(ValueError, match="unique"):
        ReflectionTable([Orbit("O"), Orbit("O")], A1, [Span(1, EdgeType.P, ("O",))])
    # open orbit must be maximal rank
    with pytest.raises(ValueError, match="maximal rank"):
        ReflectionTable(
            [Orbit("O", is_open=True, is_max_rank=False)],
            A1,
            [Span(1, EdgeType.P, ("O",))],
        )
    # open orbit in a lower slot
    with pytest.raises(ValueError, match="lower slot"):
        ReflectionTable(
            [Orbit("O", is_open=True, is_max_rank=True), Orbit("Q", is_open=True, is_max_rank=True)],
            A1,
            [Span(1, EdgeType.U, ("Q",), ("O",))],
        )
    # span members must be distinct
    with pytest.raises(ValueError, match="distinct"):
        ReflectionTable(orbits, A1, [Span(1, EdgeType.U, ("O",), ("O",))])


@pytest.mark.parametrize(
    "spans,message",
    [
        (
            [(EdgeType.P, ("a",), ()), (EdgeType.U, ("b",), ("b",)), (EdgeType.P, ("a",), ())],
            "span members must be distinct, got ('b', 'b')",
        ),
        (
            [(EdgeType.U, ("b",), ("c",)), (EdgeType.P, ("b",), ()), (EdgeType.U, ("a",), ("a",))],
            "orbit 'b' appears in two spans at root 1",
        ),
    ],
    ids=["distinct-before-repeat", "repeat-before-distinct"],
)
def test_refusal_names_the_first_faulty_span_in_input_order(spans, message):
    # Each table has two faults; grouping the spans by shape would name the later one.
    orbits = [Orbit(name) for name in "abc"]
    with pytest.raises(ValueError) as refused:
        ReflectionTable(orbits, A1, [Span(1, edge, oo, lo) for edge, oo, lo in spans])
    assert str(refused.value) == message


def test_index_columns_enter_the_same_checks():
    orbits = ("O", "Q"), b"\0\0", b"\0\0"
    table = ReflectionTable.from_columns(A1, {1: [(EdgeType.U, 1, 1, [1, 0])]}, *orbits)
    assert table.reflection_permutation(1) == {"O": "Q", "Q": "O"}
    assert table.span_of("O", 1) == Span(1, EdgeType.U, ("Q",), ("O",))
    cases = [
        ({1: [(EdgeType.P, 1, 0, [0, 0])]}, "orbit 'O' appears in two spans at root 1"),
        ({1: [(EdgeType.P, 1, 0, [0])]}, r"orbits not covered by any span at root 1: \['Q'\]"),
        ({1: [(EdgeType.U, 1, 1, [0, 5])]}, "span at root 1 names unknown orbit '#5'"),
        ({1: [(EdgeType.P, 1, 0, [-1, 1])]}, "span at root 1 names unknown orbit '#-1'"),
        ({1: [(EdgeType.T2, 1, 1, [0, 1])]}, "span of type T2 at root 1 has wrong slot counts"),
        ({2: [(EdgeType.P, 1, 0, [0, 1])]}, "span root 2 out of range 1..1"),
    ]
    for columns, message in cases:
        with pytest.raises(ValueError, match=message):
            ReflectionTable.from_columns(A1, columns, *orbits)


def test_index_runs_with_a_partial_span_are_refused():
    # A U run of three members would end in a U span of one orbit, ('c'; 'c'), and a
    # T1 run of two members in Python's own slice-assignment error.
    orbits = ("a", "b", "c"), b"\1\0\1", b"\1\0\1"
    for run in ((EdgeType.U, 1, 1, [0, 1, 2]), (EdgeType.T1, 1, 2, [1, 0])):
        message = f"span of type {run[0].value} at root 1 has wrong slot counts"
        with pytest.raises(ValueError, match=message):
            ReflectionTable.from_columns(A1, {1: [run]}, *orbits)


def test_index_columns_take_orbits_in_name_order():
    # Orbit k is the k-th given; re-sorting them would silently pair 'a' with 'm'.
    columns = {1: [(EdgeType.U, 1, 1, [0, 1]), (EdgeType.P, 1, 0, [2])]}
    with pytest.raises(ValueError, match="orbits must be in name order, got 'a' after 'z'"):
        ReflectionTable.from_columns(A1, columns, ("z", "a", "m"), bytes(3), bytes(3))
    with pytest.raises(ValueError, match="orbit names must be unique"):
        ReflectionTable.from_columns(A1, {}, ("a", "a"), bytes(2), bytes(2))
    # The name-form constructor sorts its orbits first.
    with pytest.raises(ValueError, match="orbit names must be unique"):
        ReflectionTable([Orbit("b"), Orbit("a"), Orbit("b")], A1, [])
    with pytest.raises(ValueError, match="orbit name must be nonempty"):
        ReflectionTable([Orbit("b"), Orbit("")], A1, [])


@pytest.mark.parametrize(
    "names, is_open, max_rank, dims, message",
    [
        (("a", "c", "b"), bytes(3), bytes(3), None, "orbits must be in name order, got 'b' after 'c'"),
        (("a", "b", "b"), bytes(3), bytes(3), None, "orbit names must be unique"),
        (("", "a"), bytes(2), bytes(2), None, "orbit name must be nonempty"),
        (("a", "b"), b"\0\1", b"\1\0", None, "open orbit 'b' must be of maximal rank"),
        (("a", "b"), bytes(1), bytes(2), None, "orbit columns must have one entry per orbit name"),
        (("a", "b"), bytes(2), bytes(2), (1,), "orbit columns must have one entry per orbit name"),
    ],
    ids=["order", "duplicate", "empty", "open-not-max-rank", "short-flags", "short-dims"],
)
def test_orbit_columns_are_refused_like_orbit_records(names, is_open, max_rank, dims, message):
    # The columns enter unsorted and uncovered by spans: the orbit checks come first.
    with pytest.raises(ValueError) as refused:
        ReflectionTable.from_columns(A1, {}, names, is_open, max_rank, dims)
    assert str(refused.value) == message


def test_core_runs_may_be_arrays_and_are_consumed():
    # A build hands its runs over as arrays; a finished root's runs leave the dict.
    from array import array

    names = tuple(f"o{k:03d}" for k in range(600))
    swaps = array("I", (k ^ 1 for k in range(600)))  # U spans (o001; o000), (o003; o002), ...
    columns = {1: [(EdgeType.U, 1, 1, swaps)], 2: [(EdgeType.P, 1, 0, array("I", range(600)))]}
    table = ReflectionTable.from_columns(A2, columns, names, bytes(600), bytes(600))
    assert columns == {}
    assert table.span_of("o000", 1) == Span(1, EdgeType.U, ("o001",), ("o000",))
    assert table.reflection_permutation(1)["o598"] == "o599"
    # Indices read from an array share one int object per orbit across the columns.
    reflections = table._reflections.values()
    assert len({id(k) for perm in reflections for k in perm}) == 600


def test_uncovered_orbits_are_named_ten_at_most():
    names = [f"o{k:02d}" for k in range(12)]
    with pytest.raises(ValueError) as refused:
        ReflectionTable([Orbit(name) for name in names], A1, [])
    assert str(refused.value) == (
        f"orbits not covered by any span at root 1: {names[:10]} (10 of 12)"
    )


def test_table_json_over_the_orbit_limit_is_refused(monkeypatch):
    monkeypatch.setattr(orbits_module, "MAX_ORBITS", 2)
    obj = {"orbits": [{"id": name} for name in "abc"], "cartan": {"type": "A", "rank": 1}}
    with pytest.raises(ValueError, match="reflection table: 3 orbits is over the orbit limit 2"):
        ReflectionTable.from_json({**obj, "spans": []})


def test_u_span_dimension_check():
    orbits = [Orbit("O", dim=5), Orbit("Q", dim=3)]
    with pytest.raises(ValueError, match="dimension"):
        ReflectionTable(orbits, A1, [Span(1, EdgeType.U, ("O",), ("Q",))])
    # consistent dims pass
    orbits = [Orbit("O", dim=5), Orbit("Q", dim=4)]
    ReflectionTable(orbits, A1, [Span(1, EdgeType.U, ("O",), ("Q",))])
    # missing dims are not checked
    orbits = [Orbit("O", dim=5), Orbit("Q")]
    ReflectionTable(orbits, A1, [Span(1, EdgeType.U, ("O",), ("Q",))])


def test_span_slot_order_is_canonical():
    table = rank_one_table(EdgeType.T2, ["Ob", "Oa"], ["Oz", "Oy"])
    span = table.span_of("Ob", 1)
    assert span.open_orbits == ("Oa", "Ob")
    assert span.lower_orbits == ("Oy", "Oz")


def test_json_round_trip():
    table = sign_flip_table(A2)
    again = ReflectionTable.from_json(table.to_json())
    assert again.orbits == table.orbits
    assert again.spans == table.spans
    for i in (1, 2):
        assert again.reflection_permutation(i) == table.reflection_permutation(i)
    assert again.to_json() == table.to_json()


def test_json_validation_errors():
    with pytest.raises(ValueError, match="missing"):
        ReflectionTable.from_json({"orbits": []})
    bad = sign_flip_table(A2).to_json()
    bad["spans"][0]["type"] = "Z9"
    with pytest.raises(ValueError, match="unknown edge type"):
        ReflectionTable.from_json(bad)


@pytest.mark.parametrize("value", ["Q", 5, None, [1], {"a": 1}], ids=repr)
def test_json_refuses_every_other_edge_type_value(value):
    # Unhashable values are refused as unknown too, not with a TypeError.
    bad = sign_flip_table(A2).to_json()
    bad["spans"][0]["type"] = value
    with pytest.raises(ValueError) as raised:
        ReflectionTable.from_json(bad)
    assert str(raised.value) == f"unknown edge type {value!r}"


def test_dot_output_is_deterministic_and_complete():
    table = rank_one_table(EdgeType.N2, ["O", "O'"], ["O0"])
    dot = table.to_dot()
    assert dot == table.to_dot()
    assert dot.startswith("graph orbits {")
    assert '"O" [shape=doublecircle];' not in dot  # these orbits are not open
    assert '"O" -- "O\'" [label="s1:N2"];' in dot
    assert "O0" in dot and "--" in dot
    # loops suppressed: the fixed lower orbit contributes no edge
    assert dot.count("--") == 1


def test_dot_marks_open_orbits():
    orbits = [Orbit("A", is_open=True, is_max_rank=True), Orbit("B")]
    table = ReflectionTable(orbits, A1, [Span(1, EdgeType.U, ("A",), ("B",))])
    dot = table.to_dot()
    assert '"A" [shape=doublecircle];' in dot
    assert '"B" [shape=circle];' in dot


# -- differential check of the braid verdicts against a brute-force oracle ----

_RANDOM_EDGES = (EdgeType.P, EdgeType.U, EdgeType.T1, EdgeType.T2, EdgeType.N1, EdgeType.N2)
# Open and lower slots of each type drawn, as in the table in the orbits module docstring.
_SLOT_COUNTS = {
    EdgeType.P: (1, 0),
    EdgeType.U: (1, 1),
    EdgeType.T1: (1, 2),
    EdgeType.T2: (2, 2),
    EdgeType.N1: (1, 1),
    EdgeType.N2: (2, 1),
}
_RANDOM_CARTANS = ("A1", "A2", "A3", "A4", "B2", "B3", "D3", "D4", "G2")


@st.composite
def random_tables(draw, alphabet="ab+-"):
    """Small tables with random span decompositions on A/B/D/G Cartan types."""
    cartan = CartanSpec.from_label(draw(st.sampled_from(_RANDOM_CARTANS)))
    names = draw(
        st.lists(st.text(alphabet, min_size=1, max_size=3), min_size=1, max_size=12, unique=True)
    )
    open_names = set(draw(st.lists(st.sampled_from(names), unique=True)))
    orbits = [Orbit(name, name in open_names, name in open_names) for name in names]
    spans = []
    for root in range(1, cartan.rank + 1):
        rest = draw(st.permutations(names))
        while rest:
            edge = draw(st.sampled_from(_RANDOM_EDGES))
            open_slots, lower_slots = _SLOT_COUNTS[edge]
            lowers = [name for name in rest if name not in open_names][:lower_slots]
            opens = [name for name in rest if name not in lowers][:open_slots]
            if len(lowers) < lower_slots or len(opens) < open_slots:
                edge, opens, lowers = EdgeType.P, rest[:1], []
            spans.append(Span(root, edge, tuple(opens), tuple(lowers)))
            rest = [name for name in rest if name not in opens and name not in lowers]
    return ReflectionTable(orbits=orbits, cartan=cartan, spans=spans)


def braid_oracle(table, restrict_to=None, generators=None):
    """(s_i s_j)^m applied m times over the whole domain, pair by pair."""
    if generators is None:
        generators = range(1, table.cartan.rank + 1)
    gens = sorted(set(generators))
    perms = {g: table.reflection_permutation(g) for g in gens}
    if restrict_to is None:
        domain = list(table.orbit_names)
    else:
        domain = sorted(set(restrict_to))
        for g in gens:
            for name in domain:
                image = perms[g][name]
                if image not in domain:
                    raise ValueError(
                        f"restriction is not invariant: s_{g} moves {name!r} to "
                        f"{image!r} outside the subset"
                    )
    verdicts = []
    for x, i in enumerate(gens):
        for j in gens[x + 1 :]:
            m = table.cartan.coxeter_exponent(i, j)
            step = {name: perms[i][perms[j][name]] for name in domain}
            word = {name: name for name in domain}
            for _ in range(m):
                word = {name: step[word[name]] for name in domain}
            moved = sorted(name for name in domain if word[name] != name)
            verdicts.append((i, j, m, not moved, moved[0] if moved else None))
    return verdicts


def _verdicts(report):
    return [(p.i, p.j, p.exponent, p.holds, p.witness) for p in report.pairs]


@settings(max_examples=300, deadline=None)
@given(table=random_tables(), data=st.data())
def test_braid_check_matches_brute_force_oracle(table, data):
    gens = data.draw(
        st.none() | st.lists(st.integers(1, table.cartan.rank), unique=True), label="generators"
    )
    expected = braid_oracle(table, generators=gens)
    assert _verdicts(table.check_braid(generators=gens)) == expected
    # A union of orbits of the whole group is invariant under every generator.
    blocks = table.subgroup_orbits(range(1, table.cartan.rank + 1), table.orbit_names)
    subset = [name for block in data.draw(st.sets(st.sampled_from(blocks))) for name in block]
    expected = braid_oracle(table, restrict_to=subset, generators=gens)
    assert _verdicts(table.check_braid(restrict_to=subset, generators=gens)) == expected
    opens = table.open_orbit_names
    try:
        expected = braid_oracle(table, restrict_to=opens, generators=gens)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            table.check_braid(restrict_to=opens, generators=gens)
        assert str(raised.value) == str(exc)
    else:
        assert _verdicts(table.check_braid(restrict_to=opens, generators=gens)) == expected


def _components(perms, members):
    """Sorted components of the names ``members`` under the name dicts ``perms``, breadth first."""
    seen, classes = set(), []
    for start in sorted(members):
        if start in seen:
            continue
        seen.add(start)
        block, queue = [start], deque([start])
        while queue:
            name = queue.popleft()
            for perm in perms:
                image = perm[name]
                if image in members and image not in seen:
                    seen.add(image)
                    block.append(image)
                    queue.append(image)
        classes.append(tuple(sorted(block)))
    return tuple(sorted(classes))


def subgroup_orbits_oracle(table, generators, domain):
    """Orbits of ⟨s_g⟩ on ``domain``, refused as the table refuses an unknown or escaping name."""
    gens = sorted(set(generators))
    perms = {g: table.reflection_permutation(g) for g in gens}
    members = set(domain)
    unknown = members - set(table.orbit_names)
    if unknown:
        raise ValueError(f"unknown orbit {min(unknown)!r} in restriction")
    for g in gens:
        for name in sorted(members):
            image = perms[g][name]
            if image not in members:
                raise ValueError(
                    f"restriction is not invariant: s_{g} moves {name!r} to "
                    f"{image!r} outside the subset"
                )
    return _components(perms.values(), members)


def real_classes_oracle(table):
    """Components of the open orbits under the moves between open orbits, T2/N2 checked first."""
    roots = range(1, table.cartan.rank + 1)
    perms = {root: table.reflection_permutation(root) for root in roots}
    opens = {o.name for o in table.orbits if o.is_open}
    for root in roots:
        for name in sorted(opens):
            span = table.span_of(name, root)
            if span.type in (EdgeType.T2, EdgeType.N2) and perms[root][name] not in opens:
                raise ValueError(
                    f"T/N reflection s_{root} maps open orbit to non-open "
                    f"within span {span.open_orbits}; table is inconsistent"
                )
    return _components(perms.values(), opens)


def _outcome(compute):
    try:
        return compute()
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None)
@given(table=random_tables(), data=st.data())
def test_orbit_classes_match_breadth_first_oracle(table, data):
    gens = data.draw(st.lists(st.integers(1, table.cartan.rank)), label="generators")
    names = table.orbit_names
    blocks = subgroup_orbits_oracle(table, gens, names)
    union = [name for block in data.draw(st.sets(st.sampled_from(blocks))) for name in block]
    arbitrary = data.draw(st.lists(st.sampled_from(names)), label="subset")
    strangers = data.draw(st.lists(st.text("abc+-", min_size=1, max_size=4)), label="strangers")
    mixed = data.draw(st.permutations(arbitrary + arbitrary + strangers), label="mixed")
    for domain in (names, list(reversed(names)), union, arbitrary, mixed):
        assert _outcome(lambda: table.subgroup_orbits(gens, domain)) == _outcome(
            lambda: subgroup_orbits_oracle(table, gens, domain)
        )
    # No domain means every orbit.
    assert table.subgroup_orbits(gens) == table.subgroup_orbits(gens, None) == blocks
    assert _outcome(table.real_group_orbit_classes) == _outcome(
        lambda: real_classes_oracle(table)
    )


# -- the streamed JSON text against an independent dict writer ---------------

# Names that json must escape or pass through: quote, backslash, control
# characters, DEL, non-ASCII letters, a line separator and an astral symbol.
_AWKWARD_NAMES = 'a+"\\\x00\x1f\x7f\u00e9\u2028\U0001d11e'


def reference_json(table):
    """The table JSON format as a dict, written from the public orbits and spans."""
    orbits = []
    for o in table.orbits:
        entry = {"id": o.name, "open": o.is_open, "max_rank": o.is_max_rank}
        if o.dim is not None:
            entry["dim"] = o.dim
        orbits.append(entry)
    spans = []
    for by_root in table.spans.values():
        for span in by_root:
            entry = {"root": span.root, "type": span.type.value, "open": list(span.open_orbits)}
            if span.lower_orbits:
                entry["lower"] = list(span.lower_orbits)
            spans.append(entry)
    return {"orbits": orbits, "cartan": table.cartan.to_json(), "spans": spans}


def assert_streamed_json_matches(table):
    expected = reference_json(table)
    parts = list(table.iter_json())
    assert "".join(parts) == json.dumps(expected, indent=2, ensure_ascii=False)
    assert table.to_json() == expected
    # The orbits and Cartan data, one part per root, the close.
    assert len(parts) == (table.cartan.rank + 2 if table.orbits else 2)


@settings(max_examples=300, deadline=None)
@given(table=random_tables(alphabet=_AWKWARD_NAMES), data=st.data())
def test_streamed_json_matches_json_dumps(table, data):
    dims = data.draw(st.lists(st.none() | st.integers(-1, 3), min_size=len(table.orbits),
                              max_size=len(table.orbits)), label="dims")
    spans = [span for by_root in table.spans.values() for span in by_root]
    try:
        orbits = [orbit._replace(dim=dim) for orbit, dim in zip(table.orbits, dims)]
        table = ReflectionTable(orbits, table.cartan, spans)
    except ValueError:  # a U-span whose dimensions do not step down by one
        pass
    assert_streamed_json_matches(table)


@pytest.mark.parametrize("signed", [True, False], ids=["signed", "complex"])
@pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 7) for r in range(n + 1)])
def test_streamed_json_of_pattern_tables(n, r, signed):
    table = build_table(n, r) if signed else build_complex_table(n, r)
    assert_streamed_json_matches(table)


def test_streamed_json_of_a_table_without_orbits():
    table = ReflectionTable([], A2, [])
    assert table.to_json()["spans"] == []
    assert_streamed_json_matches(table)


def test_dot_is_streamed_one_part_per_root():
    table = build_table(4, 2)
    parts = list(table.iter_dot())
    assert len(parts) == table.cartan.rank + 2
    assert "".join(parts) == table.to_dot()
    assert parts[0].startswith("graph orbits {\n") and parts[-1] == "}\n"


# -- the two name-form readers: records and table JSON ----------------------------

_FAULTS = ("unknown", "repeat", "slots", "root", "uncovered")


def _seeded_fault(kind, span, rank):
    """The spans that stand in for ``span`` once the fault ``kind`` is put into it."""
    root, edge, oo, lo = span
    if kind == "unknown":  # no random name has a letter outside "ab+-"
        return [span._replace(open_orbits=oo[:-1] + ("ghost",))]
    if kind == "repeat":  # a member twice in the span, or in a second span at the root
        if lo:
            return [span._replace(lower_orbits=lo[:-1] + oo[:1])]
        return [span, Span(root, EdgeType.P, oo[:1])]
    if kind == "slots":
        return [span._replace(type=EdgeType.U if (len(oo), len(lo)) == (1, 0) else EdgeType.P)]
    if kind == "root":
        return [span._replace(root=rank + 1)]
    return []  # uncovered: the span's cells are left without a span


def _table_payload(orbits, cartan, spans):
    """The table JSON object of name-form records, faulty ones included."""
    entries = []
    for name, is_open, max_rank, dim in orbits:
        entries.append({"id": name, "open": is_open, "max_rank": max_rank})
        if dim is not None:
            entries[-1]["dim"] = dim
    objs = []
    for root, edge, oo, lo in spans:
        objs.append({"root": root, "type": edge.value, "open": list(oo)})
        if lo:
            objs[-1]["lower"] = list(lo)
    return {"orbits": entries, "cartan": cartan.to_json(), "spans": objs}


@settings(max_examples=300, deadline=None)
@given(table=random_tables(), data=st.data())
def test_records_and_table_json_are_read_alike(table, data):
    # Both readers give the same table text or the same refusal, faults in any order.
    cartan, orbits = table.cartan, list(table.orbits)
    if data.draw(st.booleans(), label="with dims"):
        dims = st.lists(st.none() | st.integers(0, 3), min_size=len(orbits), max_size=len(orbits))
        orbits = [o._replace(dim=dim) for o, dim in zip(orbits, data.draw(dims, label="dims"))]
    spans = [span for by_root in table.spans.values() for span in by_root]
    at = st.integers(0, len(spans) - 1)
    faults = data.draw(st.lists(st.tuples(st.sampled_from(_FAULTS), at), max_size=2))
    if data.draw(st.booleans(), label="two faults at one root"):
        root = data.draw(st.integers(1, cartan.rank), label="root")
        there = st.sampled_from([k for k, span in enumerate(spans) if span.root == root])
        faults += data.draw(st.lists(st.tuples(st.sampled_from(_FAULTS), there), min_size=2,
                                     max_size=2), label="faults at the root")
    slots = [[span] for span in spans]
    for kind, k in faults:
        if slots[k]:
            slots[k] = _seeded_fault(kind, slots[k][0], cartan.rank) + slots[k][1:]
    spans = data.draw(st.permutations([span for slot in slots for span in slot]), label="order")
    payload = _table_payload(orbits, cartan, spans)
    from_records = _outcome(lambda: "".join(ReflectionTable(orbits, cartan, spans).iter_json()))
    from_json = _outcome(lambda: "".join(ReflectionTable.from_json(payload).iter_json()))
    assert from_records == from_json


def test_table_json_is_read_without_records(monkeypatch):
    # from_json hands the reader plain tuples, and iter_json writes from the columns.
    from borelorbits.catalog import build_ordered_pairs

    payload = build_ordered_pairs(3)[1].to_json()  # with dims, open orbits and T1/U spans

    def refuse(*args, **kwargs):
        raise AssertionError("a record was made")

    monkeypatch.setattr(orbits_module, "Orbit", refuse)
    monkeypatch.setattr(orbits_module, "Span", refuse)
    table = ReflectionTable.from_json(payload)
    assert "".join(table.iter_json()) == json.dumps(payload, indent=2, ensure_ascii=False)
