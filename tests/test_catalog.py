"""Catalog families: isotropic-pair spaces and the torus sign-flip actions."""

import pytest

from borelorbits import (
    CartanSpec,
    EdgeType,
    IntegerMatrix,
    ReflectionTable,
    Span,
    SphericalDatum,
    build_example,
    build_g2_case,
    build_ordered_pairs,
    build_torus_counterexample,
    build_unordered_pairs,
    count_open_real_orbits,
    elementary_divisors,
)
from borelorbits import catalog as catalog_module
from borelorbits import orbits as orbits_module
from borelorbits.cli import main


def compose(table, word):
    """Apply the reflections in ``word`` left to right, returning a name map."""
    mapping = {name: name for name in table.orbit_names}
    for root in word:
        perm = table.reflection_permutation(root)
        mapping = {name: perm[image] for name, image in mapping.items()}
    return mapping


def assert_involutions(table):
    for root in range(1, table.cartan.rank + 1):
        perm = table.reflection_permutation(root)
        assert all(perm[perm[x]] == x for x in perm)


# -- ordered pairs -----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ordered_pairs_diagram(n):
    datum, table = build_ordered_pairs(n)
    assert_involutions(table)

    perm_n = table.reflection_permutation(n)
    assert perm_n["O"] == "O'"
    assert perm_n["O'"] == "O"
    for i in range(1, n):
        perm_i = table.reflection_permutation(i)
        assert perm_i["O"] == f"O_{i}"
        assert perm_i["O'"] == f"O'_{i}"
        assert table.reflection_permutation(i + 1)[f"O_{i}"] == f"O_{i}"
        # r_gamma_i = s_i s_{i+1} s_i fixes both open orbits
        word = compose(table, [i, i + 1, i])
        assert word["O"] == "O"
        assert word["O'"] == "O'"
    assert table.real_group_orbit_classes() == (("O", "O'"),)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_ordered_pairs_span_types(n):
    _, table = build_ordered_pairs(n)
    assert table.span_of("O", n).type is EdgeType.T2
    for i in range(1, n):
        assert table.span_of("O", i).type is EdgeType.U
        assert table.span_of(f"O_{i}", i + 1).type is EdgeType.T1
    census = table.type_census()
    assert census.t2_on_max_rank


def test_ordered_pairs_lattice_data():
    for n in range(2, 7):
        datum, table = build_ordered_pairs(n)
        divisors = list(elementary_divisors(datum.weight_sublattice))
        assert sorted(divisors) == [1] * (n - 1) + [2]
        # open orbits computed from the divisor list, not assumed
        assert count_open_real_orbits(divisors) == len(table.open_orbit_names) == 2
        assert datum.very_little_generators() == frozenset({n})
        assert not datum.has_adjacent_equal_length_simple_spherical_roots()


def test_ordered_pairs_rejects_small_n():
    with pytest.raises(ValueError):
        build_ordered_pairs(1)


# -- unordered pairs -----------------------------------------------------------


EXPECTED_DIVISORS = {
    0: [2, 2],
    3: [2, 2],
    1: [4],
    2: [4],
}


@pytest.mark.parametrize("n", list(range(2, 11)))
def test_unordered_pairs_divisors(n):
    datum, table = build_unordered_pairs(n)
    divisors = list(elementary_divisors(datum.weight_sublattice))
    expected = [1] * (n - len(EXPECTED_DIVISORS[n % 4])) + EXPECTED_DIVISORS[n % 4]
    assert sorted(divisors) == sorted(expected)
    product = 1
    for d in divisors:
        product *= d
    assert product == 4  # index of the weight lattice in the character lattice
    opens = count_open_real_orbits(divisors)
    assert opens == len(table.open_orbit_names)
    assert opens == (4 if n % 4 in (0, 3) else 2)


@pytest.mark.parametrize("n", list(range(2, 11)))
def test_unordered_pairs_two_real_orbit_classes(n):
    _, table = build_unordered_pairs(n)
    assert_involutions(table)
    classes = table.real_group_orbit_classes()
    assert len(classes) == 2
    if n % 4 in (0, 3):
        assert classes == (("O", "O'"), ("O''", "O'''"))
    else:
        assert classes == (("O",), ("O''",))


def test_unordered_pairs_short_root_types():
    # quartet variant: N2 on the open pairs, N1 on the last ladder orbits
    _, table = build_unordered_pairs(4)
    assert table.span_of("O", 4).type is EdgeType.N2
    assert table.span_of("O''", 4).type is EdgeType.N2
    assert table.span_of("O_3", 4).type is EdgeType.N1
    assert table.span_of("O'''_3", 4).type is EdgeType.N1
    assert table.span_of("O", 1).type is EdgeType.U
    assert table.span_of("O_1", 2).type is EdgeType.T1
    assert not table.type_census().t2_on_max_rank

    # identified variant: the former open pair collapses to a single orbit
    _, table = build_unordered_pairs(5)
    assert table.span_of("O", 5).type is EdgeType.N1
    assert table.span_of("O''", 5).type is EdgeType.N1
    assert table.span_of("O_4", 5).type is EdgeType.N1


def test_unordered_pairs_generators():
    for n in (3, 5, 6, 8):
        datum, _ = build_unordered_pairs(n)
        assert datum.very_little_generators() == frozenset({n})
        assert not datum.has_adjacent_equal_length_simple_spherical_roots()


# -- torus counterexample and the G2 case ---------------------------------------


def test_torus_counterexample_a2_breaks_braid():
    table = build_torus_counterexample(CartanSpec.from_label("A2"))
    report = table.check_braid()
    pair = report.pair(1, 2)
    assert pair.exponent == 3 and not pair.holds
    assert not report.holds


@pytest.mark.parametrize("label", ["D2", "B2", "G2"])
def test_torus_counterexample_even_exponents_hold(label):
    table = build_torus_counterexample(CartanSpec.from_label(label))
    assert table.check_braid().holds


@pytest.mark.parametrize("label", ["A2", "A3", "B3", "C3", "D4", "G2"])
def test_torus_braid_fails_exactly_at_exponent_three(label):
    cartan = CartanSpec.from_label(label)
    table = build_torus_counterexample(cartan)
    for pair in table.check_braid().pairs:
        assert pair.holds == (pair.exponent != 3), (label, pair)
        # exponent 3 means adjacent roots of equal length
        adjacent_equal = cartan.adjacent(pair.i, pair.j) and cartan.equal_length(
            pair.i, pair.j
        )
        assert (pair.exponent == 3) == adjacent_equal


def test_torus_counterexample_structure():
    table = build_torus_counterexample(CartanSpec.from_label("A2"))
    assert sorted(table.open_orbit_names) == ["++", "+-", "-+", "--"]
    census = table.type_census()
    assert census.t2_on_max_rank
    for root in (1, 2):
        assert census.counts[root][EdgeType.T2] == 2
    for name in table.open_orbit_names:
        assert table.span_of(name, 1).type is EdgeType.T2
        assert table.span_of(name, 2).type is EdgeType.T2
    # the auxiliary lower orbits are not open
    assert all(
        table.orbit(name).is_open == (":" not in name) for name in table.orbit_names
    )
    assert_involutions(table)


def test_torus_counterexample_refuses_sizes_over_the_orbit_limit(monkeypatch, capsys):
    monkeypatch.setattr(orbits_module, "MAX_ORBITS", 100)
    assert len(build_torus_counterexample(CartanSpec.from_label("A4")).orbits) == 80
    with pytest.raises(ValueError, match="192 orbits is over the orbit limit 100"):
        build_torus_counterexample(CartanSpec.from_label("A5"))
    assert main(["braid-check", "--example", "torus", "--cartan", "A5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "over the orbit limit" in captured.err


def test_g2_case():
    table = build_g2_case()
    assert table.check_braid().holds
    assert table.check_braid().pair(1, 2).exponent == 6
    assert table.subgroup_orbits((1, 2), table.open_orbit_names) == (
        ("++", "+-", "-+", "--"),
    )
    for i in (1, 2):
        perm = table.reflection_permutation(i)
        for name in table.open_orbit_names:
            image = perm[name]
            flips = [a != b for a, b in zip(name, image)]
            assert sum(flips) == 1 and flips[i - 1]


def test_torus_real_classes_single():
    table = build_torus_counterexample(CartanSpec.from_label("B2"))
    classes = table.real_group_orbit_classes()
    assert classes == (("++", "+-", "-+", "--"),)


def test_torus_rank_one():
    table = build_torus_counterexample(CartanSpec.from_label("A1"))
    assert table.open_orbit_names == ("+", "-")
    assert table.check_braid().pairs == ()  # no pairs to check
    assert table.real_group_orbit_classes() == (("+", "-"),)


# -- cross-cutting invariants ----------------------------------------------------


def torus_datum(cartan):
    """Spherical datum with all simple roots spherical, for invariant tests."""
    rank = cartan.rank
    roots = tuple(
        tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
    )
    doubled = IntegerMatrix.from_rows([[2 * x for x in row] for row in roots])
    return SphericalDatum(cartan=cartan, spherical_roots=roots, weight_sublattice=doubled)


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "B3", "D2", "G2"])
def test_braid_on_open_orbits_matches_adjacency_hypothesis(label):
    # The braid check over the very-little generators on the open orbits
    # holds exactly when there is no adjacent equal-length generator pair.
    cartan = CartanSpec.from_label(label)
    datum = torus_datum(cartan)
    table = build_torus_counterexample(cartan)
    gens = sorted(datum.very_little_generators())
    report = table.check_braid(restrict_to=table.open_orbit_names, generators=gens)
    assert report.holds == (not datum.has_adjacent_equal_length_simple_spherical_roots())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pairs_braid_invariant_and_refinement(n):
    for build in (build_ordered_pairs, build_unordered_pairs):
        datum, table = build(n)
        gens = sorted(datum.very_little_generators())
        report = table.check_braid(restrict_to=table.open_orbit_names, generators=gens)
        assert report.holds == (
            not datum.has_adjacent_equal_length_simple_spherical_roots()
        )
        # real-group classes refine the subgroup orbits of the generators
        subgroup = table.subgroup_orbits(gens, table.open_orbit_names)
        blocks = {name: block for block in subgroup for name in block}
        for cls in table.real_group_orbit_classes():
            assert set(cls) <= set(blocks[cls[0]])


# -- dispatch and serialization -----------------------------------------------


def test_build_example_dispatch():
    example = build_example("ordered", n=3)
    assert example.name == "ordered_pairs"
    assert example.datum is not None

    example = build_example("torus", cartan=CartanSpec.from_label("A2"))
    assert example.datum is None
    assert len(example.table.open_orbit_names) == 4

    example = build_example("g2_case")
    assert example.table.cartan == CartanSpec.from_label("G2")

    with pytest.raises(ValueError, match="unknown example"):
        build_example("mystery")
    with pytest.raises(ValueError, match="needs"):
        build_example("ordered_pairs")
    with pytest.raises(ValueError, match="needs"):
        build_example("torus_counterexample")


@pytest.mark.parametrize(
    "spec,message",
    [
        (dict(name="g2", cartan=CartanSpec.from_label("A5")), "g2_case does not take a Cartan"),
        (dict(name="g2_case", n=3), "g2_case does not take the size parameter n"),
        (dict(name="ordered", n=3, cartan=CartanSpec.from_label("A9")), "does not take a Cartan"),
        (dict(name="unordered_pairs", n=4, cartan=CartanSpec.from_label("B4")), "a Cartan"),
        (dict(name="torus", n=7, cartan=CartanSpec.from_label("A3")), "the size parameter n"),
    ],
)
def test_example_refuses_parameters_its_family_does_not_take(spec, message):
    with pytest.raises(ValueError, match=message):
        build_example(**spec)


def test_catalog_tables_round_trip_through_json():
    for example in (
        build_example("ordered", n=4),
        build_example("unordered", n=5),
        build_example("g2_case"),
        build_example("torus", cartan=CartanSpec.from_label("B3")),
    ):
        table = example.table
        again = ReflectionTable.from_json(table.to_json())
        assert again.orbits == table.orbits
        assert again.spans == table.spans
        for root in range(1, table.cartan.rank + 1):
            assert again.reflection_permutation(root) == table.reflection_permutation(root)
        if example.datum is not None:
            parsed = SphericalDatum.from_json(example.datum.to_json())
            assert parsed.spherical_roots == example.datum.spherical_roots


# -- differential check against the name-form constructor ----------------------


_TORUS_LABELS = [f"A{l}" for l in range(1, 10)] + [f"B{l}" for l in range(2, 8)] + ["D4", "D5"]
_CATALOG_KEYS = (
    [f"{family} {n}" for n in range(2, 41) for family in ("ordered_pairs", "unordered_pairs")]
    + [f"torus {label}" for label in _TORUS_LABELS]
    + ["g2_case"]
)


def _catalog_table(key):
    family, _, arg = key.partition(" ")
    if family == "torus":
        return build_torus_counterexample(CartanSpec.from_label(arg))
    if family == "g2_case":
        return build_g2_case()
    build = build_ordered_pairs if family == "ordered_pairs" else build_unordered_pairs
    return build(int(arg))[1]


@pytest.mark.parametrize("key", _CATALOG_KEYS)
def test_catalog_table_equals_its_name_form_rebuild(key):
    """Rebuilt from its own spans, P singletons included, by the name-form constructor."""
    table = _catalog_table(key)
    spans = [span for by_root in table.spans.values() for span in by_root]
    again = ReflectionTable(table.orbits, table.cartan, spans)
    assert again.orbits == table.orbits
    assert again._reflections == table._reflections
    assert again._kinds == table._kinds
    assert again._links == table._links
    assert again.to_json() == table.to_json()
    assert "".join(again.iter_json()) == "".join(table.iter_json())
    assert again.to_dot() == table.to_dot()
    assert again.type_census() == table.type_census()
    assert again.real_group_orbit_classes() == table.real_group_orbit_classes()


def test_catalog_builder_naming_an_unknown_orbit_is_refused(monkeypatch):
    """A span naming no orbit of the table reaches the core and is refused there."""
    real = catalog_module._table

    def with_stray_span(orbits, cartan, spans):
        return real(orbits, cartan, [*spans, Span(1, EdgeType.P, ("stray",))])

    monkeypatch.setattr(catalog_module, "_table", with_stray_span)
    with pytest.raises(ValueError, match="span at root 1 names unknown orbit '#"):
        build_ordered_pairs(3)
