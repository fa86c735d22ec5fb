"""Signed patterns: enumeration, the type table, the symmetric-group action."""

import itertools
import math
import random
import sys
import tracemalloc

import pytest

from borelorbits import (
    EdgeType,
    SignedPattern,
    build_complex_table,
    build_table,
    count_open_real_orbits,
    enumerate_patterns,
    pattern_count,
    sylvester_classes,
)
from borelorbits import orbits as orbits_module
from borelorbits import patterns as patterns_module
from borelorbits.cli import main
from borelorbits.patterns import DOT, PLUS


def closed_form_count(n, r, signed):
    # independent restatement of the counting formula
    total = 0
    for k in range(r // 2 + 1):
        matchings = 1
        for odd in range(1, 2 * k, 2):
            matchings *= odd
        term = math.comb(r, 2 * k) * matchings
        if signed:
            term *= 2 ** (r - 2 * k)
        total += term
    return math.comb(n, r) * total


@pytest.mark.parametrize("signed", [True, False])
def test_counts_match_closed_form(signed):
    for n in range(1, 8):
        for r in range(n + 1):
            pats = enumerate_patterns(n, r, signed=signed)
            assert len(pats) == closed_form_count(n, r, signed)
            assert len(pats) == pattern_count(n, r, signed)
            assert len(set(pats)) == len(pats)
            assert all(p.rank == r for p in pats)


def test_enumeration_examples():
    assert [p.to_text() for p in enumerate_patterns(2, 2, signed=False)] == [
        "••",
        "•• [1,2]",
    ]
    assert [p.to_text() for p in enumerate_patterns(2, 2, signed=True)] == [
        "++",
        "+-",
        "-+",
        "--",
        "•• [1,2]",
    ]
    assert [p.to_text() for p in enumerate_patterns(1, 0)] == ["0"]


def test_enumeration_is_lexicographic():
    # Name order: the texts' own order, so "+" < "-" < "0" < "•" and "+0" comes before "0+".
    texts = [p.to_text() for p in enumerate_patterns(4, 3)]
    assert texts == sorted(texts)
    assert [p.to_text() for p in enumerate_patterns(2, 1)] == ["+0", "-0", "0+", "0-"]


@pytest.mark.parametrize("n, r", [(1, 0), (4, 3), (6, 6), (10, 4), (11, 4)])
@pytest.mark.parametrize("signed", [True, False])
def test_pattern_texts_are_the_enumeration_in_its_order(n, r, signed):
    # From n = 10 on, arcs such as [1,10] sort as text, before [1,2], as in every table.
    texts = patterns_module.pattern_texts(n, r, signed=signed)
    assert [p.to_text() for p in enumerate_patterns(n, r, signed=signed)] == texts
    assert texts == sorted(set(texts)) and len(texts) == pattern_count(n, r, signed)


@pytest.mark.parametrize("n", range(1, 8))
def test_pattern_texts_are_every_tables_orbit_names(n):
    texts = patterns_module.pattern_texts
    for r in range(n + 1):
        assert texts(n, r, True) == list(build_table(n, r).orbit_names)
        assert texts(n, r, False) == list(build_complex_table(n, r).orbit_names)
    for shape in [(10, 4), (11, 4)]:
        for signed in (True, False):
            names = patterns_module._records(*shape, signed)[0]
            assert patterns_module.pattern_texts(*shape, signed) == list(names)


@pytest.mark.parametrize(
    "signed, bad, message",
    [
        (True, "•+", "bare dot at 1 in a signed pattern"),
        (False, "+• [1,2]", "arc endpoint 1 must be a dot entry"),
    ],
    ids=["bare-dot", "arc-on-a-sign"],
)
def test_enumeration_is_checked_by_the_model(monkeypatch, signed, bad, message):
    parts = patterns_module._pattern_parts

    def with_a_bad_part(n, r, signed):
        yield from parts(n, r, signed)
        yield bad

    monkeypatch.setattr(patterns_module, "_pattern_parts", with_a_bad_part)
    with pytest.raises(ValueError, match=message):
        enumerate_patterns(2, 2, signed=signed)

    def no_objects(*args, **kwargs):
        raise AssertionError("a pattern object was made")

    monkeypatch.setattr(patterns_module, "SignedPattern", no_objects)
    texts = patterns_module.pattern_texts(2, 2, signed=signed)
    assert bad in texts and len(texts) == pattern_count(2, 2, signed) + 1


def test_enumeration_rejects_bad_shapes():
    with pytest.raises(ValueError):
        enumerate_patterns(2, 3)
    with pytest.raises(ValueError):
        enumerate_patterns(3, -1)
    with pytest.raises(ValueError):
        enumerate_patterns(0, 0)


def test_orbit_limit_admits_n10_and_refuses_n12():
    assert pattern_count(10, 10, True) <= orbits_module.MAX_ORBITS < pattern_count(12, 12, True)


def test_enumeration_refuses_shapes_over_the_orbit_limit(monkeypatch, capsys):
    monkeypatch.setattr(orbits_module, "MAX_ORBITS", 100)
    assert len(enumerate_patterns(4, 2)) == pattern_count(4, 2, True) == 30
    assert len(enumerate_patterns(5, 3, signed=False)) == 40
    with pytest.raises(ValueError, match="140 orbits is over the orbit limit 100"):
        enumerate_patterns(5, 3)
    assert main(["patterns", "--n", "5", "--r", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "over the orbit limit" in captured.err


def test_pattern_validation():
    with pytest.raises(ValueError):
        SignedPattern(("x",))
    with pytest.raises(ValueError):
        SignedPattern((DOT, DOT, DOT, DOT), arcs=((1, 2), (2, 3)))  # overlap
    with pytest.raises(ValueError):
        SignedPattern((PLUS, DOT), arcs=((1, 2),))  # endpoint not a dot
    with pytest.raises(ValueError):
        SignedPattern((PLUS, DOT))  # bare dot next to a sign
    with pytest.raises(ValueError):
        SignedPattern((DOT, DOT), arcs=((1, 1),))
    with pytest.raises(ValueError):
        SignedPattern((DOT, DOT), arcs=((1, 3),))


def test_maximal_rank_is_arc_freeness():
    assert SignedPattern.from_text("+-0").is_maximal_rank
    assert not SignedPattern.from_text("•• [1,2]").is_maximal_rank
    assert SignedPattern.from_text("000").is_maximal_rank


def test_classify_edge_table_rows():
    assert SignedPattern.from_text("+-0").classify_edge(1) == (EdgeType.N2, True)
    assert SignedPattern.from_text("-+0").classify_edge(1) == (EdgeType.N2, True)
    assert SignedPattern.from_text("00+").classify_edge(1) == (EdgeType.P, True)
    assert SignedPattern.from_text("+0-").classify_edge(1) == (EdgeType.U, True)
    assert SignedPattern.from_text("++0").classify_edge(1) == (EdgeType.N0, True)
    assert SignedPattern.from_text("--0").classify_edge(1) == (EdgeType.N0, True)
    arc = SignedPattern.from_text("••0 [1,2]")
    assert arc.classify_edge(1) == (EdgeType.N2, False)
    assert SignedPattern.from_text("0+-").classify_edge(1) == (EdgeType.U, False)
    # complex patterns: a bare-dot pair is N2, projected to N in their table
    assert SignedPattern.from_text("••0").classify_edge(1) == (EdgeType.N2, True)
    assert SignedPattern.from_text("••0").classify_edge(2) == (EdgeType.U, True)


@pytest.mark.parametrize("signed", [True, False])
def test_classify_edge_agrees_with_tables(signed):
    # Every cell of every table up to n = 6: the span holding a pattern has
    # the classifier's type (projected for complex tables), and the pattern
    # sits in an open slot exactly when the classifier calls it open.
    for n in range(1, 7):
        for r in range(n + 1):
            table = build_table(n, r) if signed else build_complex_table(n, r)
            for p in enumerate_patterns(n, r, signed=signed):
                name = p.to_text()
                for i in range(1, n):
                    edge, open_here = p.classify_edge(i)
                    span = table.span_of(name, i)
                    assert span.type is (edge if signed else edge.complex_type), (name, i)
                    assert open_here == (name in span.open_orbits), (name, i)


def test_classify_type_invariant_under_distant_transpositions():
    rng = random.Random(7)
    pool = enumerate_patterns(6, 4) + enumerate_patterns(6, 6)
    for p in rng.sample(pool, 80):
        for i in range(1, 6):
            edge, _ = p.classify_edge(i)
            for j in range(1, 6):
                if abs(j - i) >= 2:
                    moved = p.apply_transposition(j)
                    assert moved.classify_edge(i)[0] == edge


def test_apply_transposition_examples():
    assert SignedPattern.from_text("+-0").apply_transposition(1).to_text() == "-+0"
    assert SignedPattern.from_text("++0").apply_transposition(1).to_text() == "++0"
    arc = SignedPattern.from_text("••0 [1,2]")
    assert arc.apply_transposition(2).to_text() == "•0• [1,3]"
    with pytest.raises(ValueError):
        SignedPattern.from_text("+-0").apply_transposition(3)


def test_apply_transposition_properties():
    rng = random.Random(19)
    for p in rng.sample(enumerate_patterns(6, 5), 60):
        for i in range(1, 6):
            q = p.apply_transposition(i)
            assert q.apply_transposition(i) == p
            assert q.rank == p.rank
            assert len(q.arcs) == len(p.arcs)


def test_text_round_trip():
    rng = random.Random(31)
    for p in rng.sample(enumerate_patterns(7, 5), 50):
        assert SignedPattern.from_text(p.to_text()) == p
    two_arcs = SignedPattern.from_text("+•••• [2,4][3,5]")
    assert two_arcs.arcs == ((2, 4), (3, 5))
    assert two_arcs.to_text() == "+•••• [2,4][3,5]"
    for text in ("•• []", "•• [1]", "•• [a,b]", "•• [1,2,3]", "•• [1,2]["):
        with pytest.raises(ValueError, match="malformed arc list"):
            SignedPattern.from_text(text)


def test_pattern_text_refusals_echo_a_bounded_prefix():
    long = "x" * 100_000
    cut = repr(long)[:60] + "..."
    for text, message in [
        (f"•• {long}", f"malformed arc list {cut}"),
        (f"•• [{long}]", f"malformed arc list {repr('[' + long)[:60]}..."),
        (f"•• [1,{'9' * 4000}]", f"arc endpoint {'9' * 60}... out of range 1..2"),
    ]:
        with pytest.raises(ValueError) as refused:
            SignedPattern.from_text(text)
        assert str(refused.value) == message
    with pytest.raises(ValueError, match=f"^invalid pattern entry {cut}$"):
        SignedPattern((long,))


def corner_rank_matrix(p):
    return tuple(
        tuple(p.corner_rank(a, b) for b in range(1, p.n + 1)) for a in range(1, p.n + 1)
    )


def test_corner_rank_values():
    p = SignedPattern.from_text("+0-")
    assert p.corner_rank(1, 1) == 1
    assert p.corner_rank(2, 2) == 1
    assert p.corner_rank(3, 3) == 2
    arc = SignedPattern.from_text("•0• [1,3]")
    assert arc.corner_rank(1, 2) == 0
    assert arc.corner_rank(1, 3) == 1
    assert arc.corner_rank(3, 3) == 2


def test_u_openness_matches_full_corner_dominance():
    # Oracle: the open member of a U-pair must dominate the other at every
    # corner of the matrix (orbit closure only lowers corner ranks).
    for n in range(2, 6):
        for r in range(n + 1):
            for p in enumerate_patterns(n, r):
                for i in range(1, n):
                    edge, open_here = p.classify_edge(i)
                    if edge is not EdgeType.U:
                        continue
                    q = p.apply_transposition(i)
                    mine, theirs = corner_rank_matrix(p), corner_rank_matrix(q)
                    ge = all(
                        mine[a][b] >= theirs[a][b] for a in range(n) for b in range(n)
                    )
                    le = all(
                        mine[a][b] <= theirs[a][b] for a in range(n) for b in range(n)
                    )
                    assert ge != le, (p.to_text(), i)
                    assert open_here == ge


def test_table_permutation_equals_transposition():
    # Oracle: each pattern's own transposition, and its own classifier for
    # the type of the span that holds it (projected for complex tables).
    for n, r, signed in itertools.product(range(1, 8), range(8), (True, False)):
        if r > n:
            continue
        table = build_table(n, r) if signed else build_complex_table(n, r)
        patterns = enumerate_patterns(n, r, signed=signed)
        for i in range(1, n):
            perm = table.reflection_permutation(i)
            for p in patterns:
                name = p.to_text()
                assert perm[name] == p.apply_transposition(i).to_text(), (name, i)
                edge = p.classify_edge(i)[0]
                assert table.span_of(name, i).type is (edge if signed else edge.complex_type)


def test_bulk_tables_agree_with_validating_constructor():
    # The pattern builds enter the validating core in index form; their
    # spans fed back through the name boundary, as Span objects or as table
    # JSON, must be accepted and give the same table.
    from borelorbits import ReflectionTable

    cases = [(n, r) for n in range(1, 6) for r in range(n + 1)] + [(6, 4), (6, 6)]
    for n, r in cases:
        for table in (build_table(n, r), build_complex_table(n, r)):
            flat = [span for root in table.spans for span in table.spans[root]]
            revalidated = ReflectionTable(
                orbits=table.orbits, cartan=table.cartan, spans=flat
            )
            assert revalidated.orbits == table.orbits
            assert revalidated.spans == table.spans
            for i in range(1, n):
                assert revalidated.reflection_permutation(
                    i
                ) == table.reflection_permutation(i)
    json_cases = [(7, r) for r in range(8)] + [(8, 6), (8, 8)]
    for n, r in json_cases:
        for table in (build_table(n, r), build_complex_table(n, r)):
            again = ReflectionTable.from_json(table.to_json())
            for i in range(1, n):
                assert again.reflection_permutation(i) == table.reflection_permutation(i)
            assert again.spans == table.spans
            assert again.to_json() == table.to_json()
            assert again.to_dot() == table.to_dot()
            assert again.real_group_orbit_classes() == table.real_group_orbit_classes()


def test_a_built_table_holds_its_orbits_as_columns():
    """Traced memory the finished n = 8, r = 6 table holds: 3.6-3.9 MB, and 5.2-5.6 MB when
    each orbit was also kept as an ``Orbit`` record and in a name -> index dict."""
    tracemalloc.start()
    try:
        table = build_table(8, 6)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(table.orbit_names) == 13972
    assert held < 4.5 * 2**20


def _held_size(table) -> int:
    """``sys.getsizeof`` summed over the unique objects a table holds, through its containers."""
    seen, total, todo = set(), 0, list(vars(table).values())
    while todo:
        obj = todo.pop()
        if id(obj) not in seen:
            seen.add(id(obj))
            total += sys.getsizeof(obj)
            if isinstance(obj, dict):
                todo += [*obj.keys(), *obj.values()]
            elif isinstance(obj, (list, tuple)):
                todo += obj
    return total


def test_the_largest_admitted_pattern_table_holds_at_most_35_mb():
    """The finished n = r = 10 table holds 32.6 MB, and 39.5 MB when it kept the build's ints
    beside its own and its links were lists.  Sizes are summed, not traced: tracing the build
    makes it some 40 times slower."""
    table = build_table(10, 10)
    assert len(table.orbit_names) == 123109
    assert _held_size(table) < 35 * 2**20


@pytest.mark.parametrize("n, r, signed", [(5, 3, True), (6, 4, False), (7, 7, True)])
def test_subgroup_orbits_default_to_every_orbit(n, r, signed):
    table = build_table(n, r) if signed else build_complex_table(n, r)
    for gens in ([], [1], [1, 3], range(1, n)):
        assert table.subgroup_orbits(gens) == table.subgroup_orbits(gens, table.orbit_names)
        assert table.subgroup_orbits(gens, None) == table.subgroup_orbits(gens, table.orbit_names)


def test_table_spans_follow_type_table():
    table = build_table(3, 2)
    assert table.span_of("+-0", 1).type is EdgeType.N2
    assert table.span_of("+-0", 2).type is EdgeType.U
    assert table.span_of("++0", 1).type is EdgeType.N0
    n2 = table.span_of("+-0", 1)
    assert n2.open_orbits == ("+-0", "-+0")
    assert n2.lower_orbits == ("••0 [1,2]",)
    # Spans are made on demand: the lower orbit's span equals the opens' span.
    assert table.span_of("••0 [1,2]", 1) == n2

    rank_one = build_table(3, 1)
    assert rank_one.span_of("00+", 1).type is EdgeType.P
    assert rank_one.span_of("+00", 1).type is EdgeType.U
    assert rank_one.span_of("+00", 1).open_orbits == ("+00",)
    assert rank_one.span_of("+00", 1).lower_orbits == ("0+0",)


def test_braid_relations_hold_small():
    for n in range(1, 6):
        for r in range(n + 1):
            assert build_table(n, r).check_braid().holds


def test_build_table_smallest_cases():
    table = build_table(1, 1)
    assert table.orbit_names == ("+", "-")
    assert table.spans == {}
    table = build_table(1, 0)
    assert table.orbit_names == ("0",)


def test_open_pattern_count_is_two_to_the_r():
    for n in range(1, 7):
        for r in range(n + 1):
            opens = build_table(n, r).open_orbit_names
            assert len(opens) == 2**r
            if r >= 1:
                assert count_open_real_orbits((2,) * r) == 2**r


def test_sylvester_examples():
    classes = sylvester_classes(2, 2)
    assert [(c.plus, c.minus) for c in classes] == [(2, 0), (1, 1), (0, 2)]
    assert [c.orbits for c in classes] == [("++",), ("+-", "-+"), ("--",)]

    assert len(sylvester_classes(5, 4)) == 5

    zero = sylvester_classes(3, 0)
    assert len(zero) == 1
    assert (zero[0].plus, zero[0].minus, zero[0].orbits) == (0, 0, ("000",))


def test_sylvester_partition_matches_sign_count_grouping():
    for n in range(1, 7):
        for r in range(n + 1):
            classes = sylvester_classes(n, r)
            assert len(classes) == r + 1
            # classes are separated by the number of pluses alone
            by_plus = {}
            for name in build_table(n, r).open_orbit_names:
                plus, minus = SignedPattern.from_text(name).sign_counts()
                assert plus + minus == r
                by_plus.setdefault(plus, set()).add(name)
            for c in classes:
                assert set(c.orbits) == by_plus[c.plus]
                assert c.plus + c.minus == r


def test_complex_projection_reproduces_complex_rules():
    # Collapsing the sign data and the real types onto the complex table:
    # the entry transposition commutes with forgetting signs, and the complex
    # table carries only P/U/N spans acting by the complex rules.
    for n in range(2, 5):
        for r in range(n + 1):
            real = build_table(n, r)
            cplx = build_complex_table(n, r)
            for t in cplx.spans.values():
                for span in t:
                    assert span.type in (EdgeType.P, EdgeType.U, EdgeType.N)
            for p in enumerate_patterns(n, r):
                shadow = p.unsign()
                for i in range(1, n):
                    real_image = real.reflection_permutation(i)[p.to_text()]
                    cplx_image = cplx.reflection_permutation(i)[shadow.to_text()]
                    assert (
                        SignedPattern.from_text(real_image).unsign().to_text()
                        == cplx_image
                    )
                    # real types refine complex types span by span
                    real_type = real.span_of(p.to_text(), i).type
                    cplx_type = cplx.span_of(shadow.to_text(), i).type
                    assert real_type.complex_type is cplx_type


def test_complex_table_counts():
    for n in range(2, 6):
        for r in range(n + 1):
            table = build_complex_table(n, r)
            assert len(table.orbit_names) == closed_form_count(n, r, signed=False)
            assert table.check_braid().holds
