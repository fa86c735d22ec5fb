"""The quadratic commands against the full pattern table.

``sylvester``, ``braid-check --example quadratic --open-only`` and ``orbits
--example quadratic`` (without ``--generators``, or with ``--domain open``)
read only the 2^r open patterns of their shape
(:class:`borelorbits.patterns.OpenPatterns`).  ``braid-check`` and ``orbits
--generators`` on all orbits read every pattern's transpositions
(:class:`borelorbits.patterns.PatternMoves`).  Neither builds the table.
Their stdout, stderr and exit status must be those of the same command on
the full table, read back here through ``--table`` from the JSON that
:func:`build_table` emits.
"""

import functools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from borelorbits import cli, orbits, patterns, rootdata
from borelorbits.patterns import (
    OpenPatterns,
    PatternMoves,
    SignedPattern,
    build_table,
    sylvester_classes,
)

SHAPES = [(n, r) for n in range(1, 9) for r in range(n + 1)]


def run_cli(capsys, argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def generator_lists(n: int, r: int) -> list[str]:
    """A few ``--generators`` values: all roots, small sets, sets around root r, and
    sets with a root out of range (below 1, or n past the last root n - 1)."""
    picks = [range(1, n), [1], [1, 2], [r - 1, r + 1], [r], [n - 1, n], [0, 2]]
    return sorted({",".join(map(str, pick)) for pick in picks if pick})


def pattern_commands(n: int, r: int):
    """The open- and full-domain commands of a shape, without their table source."""
    yield "braid-check", "--open-only"
    yield "braid-check", "--open-only", "--strict", "--format", "json"
    yield ("braid-check",)
    yield "braid-check", "--strict", "--format", "json"
    yield ("orbits",)
    yield "orbits", "--format", "json"
    for generators in generator_lists(n, r):
        yield "braid-check", "--open-only", f"--generators={generators}", "--strict"
        yield "braid-check", f"--generators={generators}", "--format", "json"
        yield "orbits", f"--generators={generators}", "--domain", "open", "--format", "json"
        yield "orbits", f"--generators={generators}"
        yield "orbits", f"--generators={generators}", "--domain", "all", "--format", "json"


@pytest.fixture(scope="module")
def table_files(tmp_path_factory):
    """The full table JSON of every shape, one file each."""
    folder = tmp_path_factory.mktemp("tables")
    files = {}
    for n, r in SHAPES:
        files[n, r] = folder / f"signed-{n}-{r}.json"
        files[n, r].write_text("".join(build_table(n, r).iter_json()), encoding="utf-8")
    return files


@pytest.fixture
def read_once(monkeypatch):
    """Each ``--table`` file is read and validated once; later commands reuse that table.

    A shape has up to 41 commands, and reading all 44 files once takes about 1.2 s.
    """
    read_json = functools.lru_cache(maxsize=None)(cli._read_json)
    from_json = orbits.ReflectionTable.from_json
    tables = {}

    def load(cls, obj):
        if id(obj) not in tables:
            tables[id(obj)] = from_json(obj)
        return tables[id(obj)]

    monkeypatch.setattr(cli, "_read_json", read_json)
    monkeypatch.setattr(orbits.ReflectionTable, "from_json", classmethod(load))


@pytest.mark.parametrize("n", range(1, 9))
def test_open_commands_match_the_full_table(n, table_files, read_once, capsys):
    for r in range(n + 1):
        example = ("--example", "quadratic", "--n", str(n), "--r", str(r))
        table = ("--table", str(table_files[n, r]))
        for command in pattern_commands(n, r):
            argv = (*command[:1], *example, *command[1:])
            expected = run_cli(capsys, (*command[:1], *table, *command[1:]))
            assert run_cli(capsys, argv) == expected, " ".join(argv)


@pytest.mark.parametrize("n", [9, 10])
def test_open_moves_past_the_differential_are_the_models_transpositions(n):
    """Past n = 8, where the ``--table`` differential stops: each open pattern's image at
    root i is its transposition in the model, the lower names are exactly the images that
    are not open, and the n + 1 classes of n signs hold C(n, k) patterns each."""
    for r in range(n + 1):
        opens = OpenPatterns(n, r)
        images = set()
        for i, perm in opens._reflections.items():
            for text, k in zip(opens.open_orbit_names, perm):
                image = SignedPattern.from_text(text).apply_transposition(i).to_text()
                assert opens._names[k] == image, (r, i, text)
                images.add(image)
        lower = opens._names[len(opens.open_orbit_names) :]
        assert sorted(lower) == sorted(images - set(opens.open_orbit_names))
    sizes = [(c.plus, c.minus, len(c.orbits)) for c in sylvester_classes(n, n)]
    assert sizes == [(n - k, k, math.comb(n, k)) for k in range(n + 1)]


def test_the_compared_commands_include_each_refusal(capsys):
    # Answers, roots out of range and open patterns that a generator carries out.
    seen = set()
    for command in pattern_commands(4, 2):
        argv = (*command[:1], "--example", "quadratic", "--n", "4", "--r", "2", *command[1:])
        code, _, err = run_cli(capsys, argv)
        seen.add("answer" if code == 0 else json.loads(err)["error"]["message"].split()[0])
    assert seen == {"answer", "root", "restriction"}


def example_argvs(n: int, r: int):
    """``sylvester`` and the pattern commands of shape (3, 2), on the shape (n, r)."""
    yield "sylvester", "--n", str(n), "--r", str(r)
    for command in pattern_commands(3, 2):
        yield (*command[:1], "--example", "quadratic", "--n", str(n), "--r", str(r), *command[1:])


@pytest.mark.parametrize("n, r", [(0, 0), (3, 4), (3, -1), (-2, 0)])
def test_open_commands_refuse_a_bad_shape_as_the_table_build_does(n, r, capsys):
    with pytest.raises(ValueError) as refusal:
        build_table(n, r)
    expected = {"error": {"type": "ValueError", "message": str(refusal.value)}}
    for argv in example_argvs(n, r):
        code, out, err = run_cli(capsys, argv)
        assert (code, out, json.loads(err)) == (1, "", expected), " ".join(argv)


def reads_open_patterns(argv) -> bool:
    """Whether a command of :func:`example_argvs` reads :class:`OpenPatterns`, not
    :class:`PatternMoves`: ``sylvester``, ``--open-only``, and ``orbits`` on the open domain."""
    if argv[0] == "sylvester" or "--open-only" in argv:
        return True
    return argv[0] == "orbits" and ("open" in argv or not any("--generators" in a for a in argv))


@pytest.mark.parametrize(
    "module, limit, value, messages",
    [
        (rootdata, "MAX_RANK", 2, ["Cartan rank 3 is over the rank limit 2"] * 2),
        (
            orbits,
            "MAX_ORBITS",
            20,
            [
                "open patterns n=4 r=4: 48 cells is over the orbit limit 20",
                "patterns n=4 r=4: 43 orbits is over the orbit limit 20",
            ],
        ),
    ],
    ids=["rank", "orbits"],
)
def test_open_commands_keep_the_full_tables_guards(
    module, limit, value, messages, capsys, monkeypatch
):
    # The rank guard is the table's.  The orbit guard counts each route's own work: 16 open
    # patterns at 3 roots are 48 cells, and all orbits are the table's 43 patterns.
    monkeypatch.setattr(module, limit, value)
    for argv in example_argvs(4, 4):
        code, out, err = run_cli(capsys, argv)
        message = messages[0] if reads_open_patterns(argv) else messages[1]
        assert (code, out, json.loads(err)["error"]["message"]) == (1, "", message), " ".join(argv)


def test_open_commands_answer_past_the_tables_orbit_limit(capsys):
    # n = r = 11 has 538,078 patterns but 2^11 open ones at 10 roots; n = r = 16 has 983,040 cells.
    code, out, _ = run_cli(capsys, ("sylvester", "--n", "11", "--r", "11", "--format", "json"))
    assert code == 0 and len(json.loads(out)["classes"]) == 12
    example = ("--example", "quadratic", "--n", "11", "--r", "11")
    assert run_cli(capsys, ("braid-check", *example, "--open-only", "--strict"))[0] == 0
    for n, r in [(15, 15), (16, 15)]:
        assert len(OpenPatterns(n, r).real_group_orbit_classes()) == r + 1
    with pytest.raises(ValueError, match="^open patterns n=16 r=16: 983040 cells is over the"):
        OpenPatterns(16, 16)
    with pytest.raises(ValueError, match="^patterns n=11 r=11: 538078 orbits is over the"):
        PatternMoves(11, 11)


def _outcome(call):
    try:
        return "answer", call()
    except ValueError as exc:
        return "refusal", str(exc)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_open_patterns_answer_as_the_table_does(data):
    n = data.draw(st.integers(1, 7), label="n")
    r = data.draw(st.integers(0, n), label="r")
    gens = data.draw(st.none() | st.lists(st.integers(0, n), max_size=4), label="generators")
    opens, table = OpenPatterns(n, r), build_table(n, r)
    assert opens.open_orbit_names == table.open_orbit_names
    domain = table.open_orbit_names
    for name, args in (("check_braid", (domain, gens)), ("subgroup_orbits", (gens or [1], domain))):
        expected = _outcome(lambda: getattr(table, name)(*args))
        assert _outcome(lambda: getattr(opens, name)(*args)) == expected
    assert opens.real_group_orbit_classes() == table.real_group_orbit_classes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pattern_moves_answer_as_the_table_does(data):
    n = data.draw(st.integers(1, 7), label="n")
    r = data.draw(st.integers(0, n), label="r")
    gens = data.draw(st.none() | st.lists(st.integers(0, n), max_size=4), label="generators")
    moves, table = PatternMoves(n, r), build_table(n, r)
    assert moves._reflections == table._reflections
    names = table.orbit_names
    # A few names: a generator that moves one of them out refuses the subset.
    subset = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=4), label="subset")
    for domain in (None, names, table.open_orbit_names, subset, [*subset, "unknown"]):
        queries = ("check_braid", (domain, gens)), ("subgroup_orbits", (gens or [1], domain))
        for name, args in queries:
            expected = _outcome(lambda: getattr(table, name)(*args))
            assert _outcome(lambda: getattr(moves, name)(*args)) == expected


def test_pattern_moves_refuse_a_reflection_that_is_no_involution(monkeypatch):
    images = patterns._images

    def rotated(blob, index, n, i):
        image = images(blob, index, n, i)
        return image[1:] + image[:1] if i == 2 else image

    monkeypatch.setattr(patterns, "_images", rotated)
    with pytest.raises(ValueError, match="^the transposition at root 2 is not an involution$"):
        PatternMoves(4, 2)


def test_pattern_moves_refuse_records_that_repeat(monkeypatch):
    parts = patterns._pattern_parts

    def twice(n, r, signed):
        yield from parts(n, r, signed)
        yield from parts(n, r, signed)

    monkeypatch.setattr(patterns, "_pattern_parts", twice)
    with pytest.raises(ValueError, match="^pattern records must be distinct$"):
        PatternMoves(3, 2)


def test_open_patterns_refuse_a_domain_other_than_all_open_patterns():
    opens = OpenPatterns(3, 3)
    with pytest.raises(ValueError, match="all open patterns"):
        opens.check_braid(restrict_to=opens.open_orbit_names[:2])
    assert opens.check_braid() == opens.check_braid(restrict_to=opens.open_orbit_names)


def test_open_commands_build_no_pattern_table(capsys, monkeypatch):
    # No quadratic command builds the table: on all orbits they read the patterns' moves.
    def build(*args):
        raise AssertionError("the pattern table was built")

    monkeypatch.setattr(patterns, "_build", build)
    classes = sylvester_classes(9, 9)
    assert [(c.plus, c.minus) for c in classes] == [(9 - k, k) for k in range(10)]
    example = ("--example", "quadratic", "--n", "9", "--r", "9")
    for argv in [
        ("sylvester", "--n", "9", "--r", "9", "--format", "json"),
        ("braid-check", *example, "--open-only", "--strict"),
        ("braid-check", *example, "--strict", "--format", "json"),
        ("orbits", *example),
        ("orbits", *example, "--generators", "1,3,5", "--domain", "open"),
        ("orbits", *example, "--generators", "1,3,5"),
        ("orbits", *example, "--generators", "1,3,5", "--domain", "all"),
    ]:
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "") and out, " ".join(argv)
