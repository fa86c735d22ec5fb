"""Command-line interface: subcommands, formats, exit codes, determinism."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_orbits import random_tables

from borelorbits import (
    EdgeType,
    IntegerMatrix,
    ReflectionTable,
    SignedPattern,
    catalog,
    patterns,
    rootdata,
)
from borelorbits import orbits as orbits_module
from borelorbits.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_snf_round_trip(tmp_path, capsys):
    matrix = {"rows": 2, "cols": 2, "entries": [[1, 2], [3, 4]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix))
    code, out, err = run_cli(capsys, "snf", "--matrix", str(path), "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["d"] == [1, 2]
    u = IntegerMatrix.from_json(payload["u"])
    v = IntegerMatrix.from_json(payload["v"])
    m = IntegerMatrix.from_json(matrix)
    product = u @ m @ v
    assert product.entries == ((1, 0), (0, 2))


def test_snf_text_format(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"entries": [[4, 0], [0, 2]]}))
    code, out, _ = run_cli(capsys, "snf", "--matrix", str(path))
    assert code == 0
    assert out.splitlines()[0] == "d: 2 4"


def test_snf_text_prints_all_or_nothing(capsys, monkeypatch):
    # The transforms of this matrix grow past the interpreter's int-to-str
    # digit limit; whichever way the command ends, no partial text is left.
    rng = random.Random(48)
    rows = [[rng.randint(-50, 50) for _ in range(48)] for _ in range(48)]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"entries": rows})))
    code, out, err = run_cli(capsys, "snf", "--matrix", "-")
    if code == 0:
        lines = out.splitlines()
        assert err == "" and len(lines) == 3 + 48 + 48
        assert lines[0].startswith("d: ") and lines[1] == "u:" and lines[50] == "v:"
    else:
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert isinstance(json.loads(err)["error"]["message"], str)


def _seeded_dense_matrix(seed: int, k: int) -> list[list[int]]:
    """The benchmark's seeded dense k x k input: entries in [-50, 50], nonsingular."""
    rng = random.Random(f"{seed}:dense:{k}")
    while True:
        rows = [[rng.randint(-50, 50) for _ in range(k)] for _ in range(k)]
        if IntegerMatrix.from_rows(rows).det():
            return rows


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_snf_of_the_dense_48x48_input_prints(capsys, monkeypatch, fmt):
    # Its transforms once outgrew the interpreter's int-to-str digit limit.
    limit = sys.get_int_max_str_digits()
    rows = _seeded_dense_matrix(1, 48)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"entries": rows})))
    code, out, err = run_cli(capsys, "snf", "--matrix", "-", "--format", fmt)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    if fmt == "json":
        payload = json.loads(out)
    else:
        lines = out.splitlines()
        assert lines[1] == "u:" and lines[50] == "v:" and len(lines) == 99
        matrix = [[int(x) for x in line.split()] for line in lines[2:50] + lines[51:]]
        payload = {"d": [int(x) for x in lines[0][3:].split()],
                   "u": {"entries": matrix[:48]}, "v": {"entries": matrix[48:]}}
    u, v = (IntegerMatrix.from_json(payload[key]) for key in ("u", "v"))
    d = payload["d"]
    diagonal = [[d[i] if i == j else 0 for j in range(48)] for i in range(48)]
    assert (u @ IntegerMatrix.from_rows(rows) @ v).entries == tuple(map(tuple, diagonal))


def test_lattice_commands_refuse_unprintable_integers_whole(capsys, monkeypatch):
    """An integer over the int-to-str digit limit: empty stdout, exit 1, one JSON error line."""
    a, b = 10**399 + 7, 10**399 + 9  # odd, two apart, so coprime: diag(a, b) has d = (1, ab)
    matrix = json.dumps({"entries": [[a, 0], [0, b]]})
    divisors = ",".join(["2"] * 2200)  # 2**2200 open orbits, a count of 663 digits
    runs = [
        (matrix, ["snf", "--matrix", "-"]),
        (matrix, ["snf", "--matrix", "-", "--format", "json"]),
        (matrix, ["divisors", "--matrix", "-", "--format", "json"]),
        ("", ["count-open", "--divisors", divisors]),
        ("", ["count-open", "--divisors", divisors, "--format", "json"]),
    ]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for stdin, argv in runs:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err.count("\n")) == (1, "", 1), argv
            assert json.loads(err)["error"]["type"] == "ValueError"
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "obj",
    [
        {"rows": True, "entries": [[1]]},
        {"cols": 1.0, "entries": [[1]]},
        {"entries": [[1]] * 201},
        {"entries": [[0] * 201]},
    ],
)
def test_matrix_readers_refuse_misread_sizes(capsys, monkeypatch, obj):
    for command in ("snf", "divisors"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
        code, out, err = run_cli(capsys, command, "--matrix", "-")
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"


def test_matrix_readers_take_the_largest_size(capsys, monkeypatch):
    rows = [[int(i == j) for j in range(200)] for i in range(200)]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"entries": rows})))
    code, out, err = run_cli(capsys, "divisors", "--matrix", "-")
    assert (code, out, err) == (0, " ".join(["1"] * 200) + "\n", "")


def test_divisors_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(
        sys, "stdin", io.StringIO(json.dumps({"entries": [[2, 0], [0, 3]]}))
    )
    code, out, _ = run_cli(capsys, "divisors", "--matrix", "-", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"divisors": [1, 6]}


def test_snf_rejects_entries_that_are_not_rows(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"entries": 5})))
    code, out, err = run_cli(capsys, "snf", "--matrix", "-")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "ValueError"
    assert "list of lists" in payload["error"]["message"]


def test_count_open(capsys):
    code, out, _ = run_cli(capsys, "count-open", "--divisors", "2,2,1,1")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run_cli(
        capsys, "count-open", "--divisors", "2,2,1,1", "--format", "json"
    )
    payload = json.loads(out)
    assert payload == {"divisors": [2, 2, 1, 1], "count": 4, "sign_coordinates": [1, 2]}


def test_patterns_listing(capsys):
    code, out, _ = run_cli(capsys, "patterns", "--n", "2", "--r", "2")
    assert code == 0
    assert out.splitlines() == ["++", "+-", "-+", "--", "•• [1,2]"]
    code, out, _ = run_cli(
        capsys, "patterns", "--n", "2", "--r", "2", "--complex", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["patterns"] == ["••", "•• [1,2]"]


def test_sylvester_json(capsys):
    code, out, _ = run_cli(
        capsys, "sylvester", "--n", "5", "--r", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 5
    assert payload["classes"][0]["plus"] == 4
    assert payload["classes"][0]["minus"] == 0


def test_braid_check_torus_failure(capsys):
    code, out, _ = run_cli(capsys, "braid-check", "--example", "torus", "--cartan", "A2")
    assert code == 0
    assert "s1,s2: m=3 FAIL" in out
    assert "braid relations fail" in out

    code, out, _ = run_cli(
        capsys, "braid-check", "--example", "torus", "--cartan", "A2", "--strict"
    )
    assert code == 2

    code, out, _ = run_cli(
        capsys,
        "braid-check",
        "--example",
        "torus",
        "--cartan",
        "A2",
        "--format",
        "json",
    )
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["pairs"][0] == {
        "i": 1,
        "j": 2,
        "exponent": 3,
        "holds": False,
        "witness": "++",
    }


def test_braid_check_quadratic_and_g2(capsys):
    code, out, _ = run_cli(
        capsys, "braid-check", "--example", "quadratic", "--n", "4", "--r", "3",
        "--strict",
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "braid-check", "--example", "g2", "--strict")
    assert code == 0


def test_braid_check_open_only_with_generators(capsys):
    code, out, _ = run_cli(
        capsys,
        "braid-check",
        "--example",
        "ordered_pairs",
        "--n",
        "4",
        "--open-only",
        "--generators",
        "4",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out) == {"holds": True, "pairs": []}


def test_orbits_real_classes(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--example", "ordered_pairs", "--n", "4")
    assert code == 0
    assert out.splitlines() == ["O O'"]

    code, out, _ = run_cli(
        capsys, "orbits", "--example", "unordered_pairs", "--n", "5", "--format", "json"
    )
    assert json.loads(out) == {"classes": [["O"], ["O''"]]}


def test_orbits_subgroup(capsys):
    code, out, _ = run_cli(
        capsys,
        "orbits",
        "--example",
        "g2",
        "--generators",
        "1,2",
        "--domain",
        "open",
        "--format",
        "json",
    )
    assert code == 0
    assert json.loads(out) == {"classes": [["++", "+-", "-+", "--"]]}


@pytest.mark.parametrize("domain", ["open", "all"])
def test_orbits_refuses_a_domain_without_generators(capsys, domain):
    argv = ("orbits", "--example", "quadratic", "--n", "3", "--r", "2", "--domain", domain)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["message"] == "--domain needs --generators"


def test_example_json_parses_back(capsys):
    code, out, _ = run_cli(capsys, "example", "unordered_pairs", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "unordered_pairs"
    table = ReflectionTable.from_json(payload["table"])
    assert len(table.open_orbit_names) == 4
    assert payload["datum"]["spherical_roots"][-1] == [0, 0, 0, 2]


def test_example_dot_output(capsys):
    code, first, _ = run_cli(capsys, "example", "g2_case", "--emit", "dot")
    code2, second, _ = run_cli(capsys, "example", "g2_case", "--emit", "dot")
    assert code == code2 == 0
    assert first == second
    assert first.startswith("graph orbits {")
    assert '"++" -- "-+" [label="s1:T2"];' in first


def test_validation_errors_are_machine_readable(capsys):
    code, out, err = run_cli(capsys, "example", "mystery")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "ValueError"
    assert "unknown example" in payload["error"]["message"]

    code, _, err = run_cli(capsys, "divisors", "--matrix", "does-not-exist.json")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "FileNotFoundError"

    code, _, err = run_cli(capsys, "count-open", "--divisors", "2,x")
    assert code == 1
    assert "integer" in json.loads(err)["error"]["message"]

    code, _, err = run_cli(capsys, "braid-check", "--example", "torus")
    assert code == 1  # torus needs a Cartan matrix

    code, _, err = run_cli(capsys, "braid-check")
    assert code == 1  # no table source at all


@pytest.mark.parametrize("label, letter", [("Z3", "Z"), ("h4", "H")])
def test_label_shaped_cartan_with_an_unknown_letter_is_refused_as_a_label(
    tmp_path, monkeypatch, capsys, label, letter
):
    monkeypatch.chdir(tmp_path)  # read as a path, the label would name a missing file
    code, out, err = run_cli(capsys, "example", "torus", "--cartan", label)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "type": "ValueError",
        "message": f"unsupported root-system type '{letter}' (expected A, B, C, D or G)",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("braid-check", "--example", "quadratic", "--n", "4", "--r", "4", "--generators", ","),
        ("orbits", "--example", "quadratic", "--n", "4", "--r", "4", "--generators", ","),
        ("count-open", "--divisors", " "),
        ("count-open", "--divisors", ",,"),
        ("count-open", "--divisors=--"),
        ("orbits", "--example", "quadratic", "--n", "4", "--r", "4", "--generators", ""),
    ],
    ids=["braid-check", "orbits", "count-open-blank", "count-open-commas", "dashes", "empty"],
)
def test_integer_lists_naming_no_integer_are_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    message = json.loads(err)["error"]["message"]
    assert message.startswith("expected a comma-separated integer list")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("braid-check", "--example", "torus", "--cartan", "A3", "--strict", "--format", "yaml"),
            "argument --format: invalid choice: 'yaml' (choose from 'text', 'json')",
        ),
        ((), "the following arguments are required: command"),
        (("patterns", "--n", "3"), "the following arguments are required: --r"),
    ],
    ids=["choice", "no-command", "missing-option"],
)
def test_usage_errors_are_json_errors_with_exit_status_1(capsys, argv, message):
    # Status 2 is left to a braid relation that fails under --strict.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert json.loads(err) == {"error": {"type": "ValueError", "message": message}}


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["patterns", "--help"])
    assert exited.value.code == 0 and "--complex" in capsys.readouterr().out


def test_integer_list_errors_echo_a_bounded_prefix(capsys):
    code, out, err = run_cli(capsys, "count-open", "--divisors", "7" * 5000)
    assert code == 1 and out == ""
    message = json.loads(err)["error"]["message"]
    assert message == f"expected a comma-separated integer list, got {_cut('7' * 5000)}"
    assert len(err) < 200


def test_outputs_are_byte_identical_across_runs(capsys):
    for argv in (
        ["sylvester", "--n", "4", "--r", "3", "--format", "json"],
        ["example", "ordered_pairs", "--n", "3"],
        ["patterns", "--n", "3", "--r", "2"],
    ):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "borelorbits.cli", "count-open", "--divisors", "2,1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "2"


def test_cartan_json_file_input(tmp_path, capsys):
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps({"cartan": [[2, 0], [0, 2]]}))
    code, out, _ = run_cli(
        capsys, "braid-check", "--example", "torus", "--cartan", str(path), "--strict"
    )
    assert code == 0


def test_table_from_file(tmp_path, capsys):
    from borelorbits import build_g2_case

    path = tmp_path / "table.json"
    path.write_text(json.dumps(build_g2_case().to_json()))
    code, out, _ = run_cli(capsys, "braid-check", "--table", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["holds"] is True


def _table_json(orbits, span):
    return {
        "orbits": orbits,
        "cartan": {"type": "A", "rank": 1},
        "spans": list(span) if isinstance(span, tuple) else [span],  # a tuple holds several
    }


_N2_SPAN = {"root": 1, "type": "N2", "open": ["a", "b"], "lower": ["c"]}
_ABC = [{"id": "a"}, {"id": "b"}, {"id": "c"}]


@pytest.mark.parametrize(
    "table, message",
    [
        (_table_json(["idx"], _N2_SPAN), "orbit entry must be an object"),
        (
            _table_json([{"id": "a", "open": "false", "max_rank": "false"}] + _ABC[1:], _N2_SPAN),
            "orbit 'open' must be true or false",
        ),
        (_table_json(_ABC, dict(_N2_SPAN, root=[1])), "span 'root' must be an integer"),
        (_table_json(_ABC, dict(_N2_SPAN, open="ab")), "span 'open' must be a list"),
        (
            _table_json(_ABC[:2], {"root": 1, "type": "U", "open": "a", "lower": "b"}),
            "span 'open' must be a list",
        ),
        (_table_json([{"id": 5}] + _ABC[1:], _N2_SPAN), "orbit 'id' must be a nonempty string"),
    ],
    ids=[
        "orbit-string",
        "orbit-flag-string",
        "root-list",
        "open-string",
        "open-lower-strings",
        "orbit-id-int",
    ],
)
def test_table_json_shape_errors(tmp_path, capsys, table, message):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out, err = run_cli(capsys, "braid-check", "--table", str(path))
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "ValueError"
    assert message in payload["error"]["message"]


def _cut(value) -> str:
    return repr(value)[:60] + "..."


_LONG = "x" * 100_000
_TRUES = [[True] * 150] * 150


@pytest.mark.parametrize(
    "argv, obj, message",
    [
        (
            ("braid-check", "--example", "torus", "--cartan"),
            {"cartan": _TRUES},
            f"Cartan 'cartan' must be a list of lists of integers, got {_cut(_TRUES)}",
        ),
        (
            ("divisors", "--matrix"),
            {"entries": [[1, _LONG]]},
            f"matrix entries must be exact integers, got {_cut(_LONG)}",
        ),
        (
            ("divisors", "--matrix"),
            {"rows": _LONG, "entries": [[1]]},
            f"matrix sizes must be exact integers, got {_cut(_LONG)}",
        ),
        (
            ("braid-check", "--example", "torus", "--cartan"),
            {"type": _LONG, "rank": 2},
            f"unsupported root-system type {_cut(_LONG.upper())} (expected A, B, C, D or G)",
        ),
        (
            # The example name is refused before the Cartan file is read.
            ("braid-check", "--example", _LONG, "--cartan"),
            {"type": "A", "rank": 2},
            f"unknown example {_cut(_LONG)}; expected one of {', '.join(catalog.EXAMPLE_NAMES)}",
        ),
    ],
    ids=["cartan-of-true", "matrix-string-entry", "matrix-string-size", "cartan-type",
         "example-name"],
)
def test_refusals_echo_a_bounded_prefix_of_the_value(tmp_path, capsys, argv, obj, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and len(err.encode()) < 1024
    assert json.loads(err)["error"]["message"] == message


_LONG_LIST = list(range(100))


@pytest.mark.parametrize(
    "orbits, span, message",
    [
        ([_LONG_LIST], _N2_SPAN, f"orbit entry must be an object, got {_cut(_LONG_LIST)}"),
        (
            [{"id": _LONG_LIST}],
            _N2_SPAN,
            f"orbit 'id' must be a nonempty string, got {_cut(_LONG_LIST)}",
        ),
        (
            [{"id": "a", "open": _LONG}],
            _N2_SPAN,
            f"orbit 'open' must be true or false, got {_cut(_LONG)}",
        ),
        (
            [{"id": "a", "dim": _LONG}],
            _N2_SPAN,
            f"orbit 'dim' must be an integer, got {_cut(_LONG)}",
        ),
        (_ABC, _LONG_LIST, f"span entry must be an object, got {_cut(_LONG_LIST)}"),
        (
            _ABC,
            {"open": _LONG_LIST},
            f"span entry needs 'root' and 'type': {_cut({'open': _LONG_LIST})}",
        ),
        (_ABC, dict(_N2_SPAN, type=_LONG), f"unknown edge type {_cut(_LONG)}"),
        (_ABC, dict(_N2_SPAN, root=_LONG), f"span 'root' must be an integer, got {_cut(_LONG)}"),
        (
            _ABC,
            dict(_N2_SPAN, lower=_LONG_LIST),
            f"span 'lower' must be a list of orbit names, got {_cut(_LONG_LIST)}",
        ),
        (
            [*_ABC, {"id": _LONG, "open": True}],
            _N2_SPAN,
            f"open orbit {_cut(_LONG)} must be of maximal rank",
        ),
        (
            _ABC,
            dict(_N2_SPAN, lower=[_LONG]),
            f"span at root 1 names unknown orbit {_cut(_LONG)}",
        ),
        (
            [*_ABC, {"id": _LONG}],
            dict(_N2_SPAN, open=[_LONG, _LONG]),
            f"span members must be distinct, got ({_cut(_LONG)}, {_cut(_LONG)}, 'c')",
        ),
        (
            _ABC,
            {"root": 1, "type": "P", "open": ["a"] * 100_000},
            f"span members must be distinct, got ({', '.join([repr('a')] * 10)}) (10 of 100000)",
        ),
        (
            [*_ABC, {"id": _LONG}],
            (
                {"root": 1, "type": "P", "open": [_LONG]},
                {"root": 1, "type": "U", "open": ["a"], "lower": [_LONG]},
            ),
            f"orbit {_cut(_LONG)} appears in two spans at root 1",
        ),
        (
            [*_ABC, {"id": _LONG, "open": True, "max_rank": True}],
            dict(_N2_SPAN, lower=[_LONG]),
            f"globally open orbit {_cut(_LONG)} sits in a lower slot at root 1",
        ),
        (
            [*_ABC, {"id": _LONG}],
            _N2_SPAN,
            f"orbits not covered by any span at root 1: [{_cut(_LONG)}]",
        ),
    ],
    ids=["orbit-entry", "orbit-id", "orbit-flag", "orbit-dim", "span-entry", "span-keys",
         "span-type", "span-root", "span-names", "open-not-max-rank", "unknown-orbit",
         "distinct-members", "many-members", "two-spans", "lower-slot", "not-covered"],
)
def test_table_refusals_echo_a_bounded_prefix(capsys, monkeypatch, orbits, span, message):
    table = _table_json(orbits, span)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(table)))
    code, out, err = run_cli(capsys, "braid-check", "--table", "-")
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["message"] == message


def test_a_path_that_cannot_be_opened_is_echoed_cut(capsys, monkeypatch, tmp_path):
    # The OS bounds no echo: a path of 100,000 characters is named in 60 and "...".
    monkeypatch.chdir(tmp_path)
    for path in ("missing-cartan.json", "Q" + _LONG):
        with pytest.raises(OSError) as opened:
            open(path, encoding="utf-8")
        exc = opened.value
        cut = f"[Errno {exc.errno}] {exc.strerror}: {_cut(path)}"
        expected = str(exc) if len(path) <= 60 else cut
        code, out, err = run_cli(capsys, "braid-check", "--example", "torus", "--cartan", path)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and len(err.encode()) < 1024
        assert json.loads(err)["error"] == {"type": type(exc).__name__, "message": expected}


@pytest.mark.parametrize(
    "cartan, message",
    [
        ({"cartan": 5}, "'cartan' must be a list of lists of integers"),
        ({"cartan": [[2, 0], 5]}, "'cartan' must be a list of lists of integers"),
        ({"cartan": [[2, "0"], [0, 2]]}, "'cartan' must be a list of lists of integers"),
        ({"cartan": [[2, False], [False, 2]]}, "'cartan' must be a list of lists of integers"),
        ({"type": "A", "rank": [1]}, "'rank' must be an integer"),
        ({"type": "A", "rank": "1"}, "'rank' must be an integer"),
        ({"type": "A", "rank": True}, "'rank' must be an integer"),
        ({"type": 1, "rank": 1}, "'type' must be a string"),
    ],
    ids=[
        "cartan-int",
        "cartan-row-int",
        "cartan-entry-string",
        "cartan-entry-bool",
        "rank-list",
        "rank-string",
        "rank-bool",
        "type-int",
    ],
)
def test_table_cartan_errors(capsys, monkeypatch, cartan, message):
    table = dict(_table_json(_ABC, _N2_SPAN), cartan=cartan)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(table)))
    code, out, err = run_cli(capsys, "orbits", "--table", "-", "--generators", "1")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "ValueError"
    assert message in payload["error"]["message"]


@pytest.mark.parametrize(
    "cartan",
    [{"type": "A", "rank": 3}, {"cartan": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]}],
    ids=["type-rank", "explicit"],
)
def test_table_cartan_over_the_rank_limit(capsys, monkeypatch, cartan):
    monkeypatch.setattr(rootdata, "MAX_RANK", 2)
    table = dict(_table_json(_ABC, _N2_SPAN), cartan=cartan)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(table)))
    code, out, err = run_cli(capsys, "orbits", "--table", "-")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == {
        "type": "ValueError",
        "message": "Cartan rank 3 is over the rank limit 2",
    }


def test_table_over_the_orbit_limit(capsys, monkeypatch):
    monkeypatch.setattr(orbits_module, "MAX_ORBITS", 2)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(_table_json(_ABC, _N2_SPAN))))
    code, out, err = run_cli(capsys, "orbits", "--table", "-")
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == {
        "type": "ValueError",
        "message": "reflection table: 3 orbits is over the orbit limit 2",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("braid-check", "--example", "torus", "--cartan", "A3"),
        ("example", "ordered_pairs", "--n", "3"),
        ("patterns", "--n", "4", "--r", "0"),
    ],
    ids=["cartan-label", "catalog-n", "patterns-n"],
)
def test_cli_refuses_ranks_over_the_limit(capsys, monkeypatch, argv):
    monkeypatch.setattr(rootdata, "MAX_RANK", 2)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["message"] == "Cartan rank 3 is over the rank limit 2"


def test_sylvester_refuses_an_oversized_rank_before_building(capsys, monkeypatch):
    def build(*args):
        raise AssertionError("the table build started")

    monkeypatch.setattr(patterns, "_build", build)
    code, out, err = run_cli(capsys, "sylvester", "--n", "10000000", "--r", "0")
    assert code == 1 and out == ""
    message = json.loads(err)["error"]["message"]
    assert message == "Cartan rank 9999999 is over the rank limit 200"


@pytest.mark.parametrize(
    "argv",
    [
        ("patterns", "--n", "5000", "--r", "2500"),
        ("sylvester", "--n", "5000", "--r", "2500"),
        ("braid-check", "--example", "quadratic", "--n", "5000", "--r", "2500"),
    ],
    ids=["patterns", "sylvester", "braid-check"],
)
def test_pattern_shapes_over_the_rank_limit_are_refused_before_counting(capsys, monkeypatch, argv):
    # The exact count of this shape has over 4,300 digits: counted first, it
    # could not be worded, and a larger shape takes seconds to count.
    def count(*args):
        raise AssertionError("the patterns were counted")

    monkeypatch.setattr(patterns, "pattern_count", count)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == {
        "type": "ValueError",
        "message": "Cartan rank 4999 is over the rank limit 200",
    }


def test_outputs_conform_to_published_schemas(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    from pathlib import Path

    schema_dir = Path(__file__).resolve().parent.parent / "docs" / "schemas"

    def load(name):
        return json.loads((schema_dir / name).read_text())

    referencing = pytest.importorskip("referencing")
    schemas = [load(p.name) for p in schema_dir.glob("*.schema.json")]
    registry = referencing.Registry().with_resources(
        (schema["$id"], referencing.Resource.from_contents(schema))
        for schema in schemas
    )

    def validate(payload, schema_name):
        validator = jsonschema.Draft202012Validator(load(schema_name), registry=registry)
        validator.validate(payload)

    matrix_path = tmp_path / "m.json"
    matrix_path.write_text(json.dumps({"entries": [[1, 2], [3, 4]]}))
    _, out, _ = run_cli(capsys, "snf", "--matrix", str(matrix_path), "--format", "json")
    validate(json.loads(out), "snf-result.schema.json")

    _, out, _ = run_cli(
        capsys, "braid-check", "--example", "torus", "--cartan", "A2", "--format", "json"
    )
    validate(json.loads(out), "braid-report.schema.json")

    _, out, _ = run_cli(capsys, "example", "unordered_pairs", "--n", "4")
    payload = json.loads(out)
    validate(payload["table"], "reflection-table.schema.json")
    validate(payload["datum"], "spherical-datum.schema.json")

    code, _, err = run_cli(capsys, "example", "mystery")
    assert code == 1
    validate(json.loads(err), "error.schema.json")


@pytest.mark.parametrize("argv", [("orbits", "--table", "-"), ("snf", "--matrix", "-")])
def test_deeply_nested_json_is_a_json_error(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 100000))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith("invalid JSON in '-'")


# -- fuzzing the table readers -------------------------------------------------

_FUZZ_NAMES = ("a", "b", "c", "d", "e")
_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.sampled_from(_FUZZ_NAMES)
    | st.text(max_size=2)
)
_names = st.lists(st.sampled_from(_FUZZ_NAMES), max_size=4)
_orbit_entries = (
    st.fixed_dictionaries(
        {"id": st.sampled_from(_FUZZ_NAMES) | _leaves},
        optional={
            "open": st.booleans() | _leaves,
            "max_rank": st.booleans() | _leaves,
            "dim": st.integers(0, 3) | _leaves,
        },
    )
    | _leaves
)
_span_entries = (
    st.fixed_dictionaries(
        {
            "root": st.integers(0, 5) | _leaves,
            "type": st.sampled_from([e.value for e in EdgeType] + ["Z"]) | _leaves,
        },
        optional={"open": _names | _leaves, "lower": _names | _leaves},
    )
    | _leaves
)
# Ranks stay at most 4: a Cartan type is expanded into its matrix before any
# size check.
_cartans = (
    st.fixed_dictionaries(
        {"type": st.sampled_from("ABCDGZ") | _leaves, "rank": st.integers(0, 4) | _leaves}
    )
    | st.fixed_dictionaries(
        {"cartan": st.lists(st.lists(st.integers(-3, 2), max_size=4), max_size=4) | _leaves}
    )
    | _leaves
)
_shaped_tables = st.fixed_dictionaries(
    {
        "orbits": st.lists(_orbit_entries, max_size=6) | _leaves,
        "cartan": _cartans,
        "spans": st.lists(_span_entries, max_size=12) | _leaves,
    }
) | _leaves


@st.composite
def _mutated_tables(draw):
    """Valid table JSON, sometimes with one entry changed in one field or dropped."""
    obj = draw(random_tables()).to_json()
    if draw(st.booleans()):
        key = draw(st.sampled_from(("orbits", "spans")))
        if obj[key]:
            index = draw(st.integers(0, len(obj[key]) - 1))
            entry = dict(obj[key][index])
            entry[draw(st.sampled_from(sorted(entry) + ["dim"]))] = draw(_leaves | _names)
            obj[key][index] = entry
            if draw(st.booleans()):
                del obj[key][index]
    return obj


def _run_on_stdin(argv, text):
    stdin, out, err = sys.stdin, io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(code, out, err):
    if code == 1:
        assert out == ""
        assert err.count("\n") == 1
        assert isinstance(json.loads(err)["error"]["message"], str)
    else:
        assert code == 0 and err == ""


@settings(max_examples=300, deadline=None)
@given(obj=_shaped_tables | _mutated_tables())
def test_table_readers_accept_or_refuse_cleanly(obj):
    text = json.dumps(obj)
    for argv in (["orbits", "--table", "-"], ["braid-check", "--table", "-"]):
        code, out, err = _run_on_stdin(argv, text)
        _assert_clean_exit(code, out, err)
    if code == 0:
        table = ReflectionTable.from_json(obj)
        assert ReflectionTable.from_json(table.to_json()).to_json() == table.to_json()
        for root in range(1, table.cartan.rank + 1):
            perm = table.reflection_permutation(root)
            assert all(perm[perm[name]] == name for name in table.orbit_names)


# Matrices stay at 6x6 or smaller, so every accepted one prints quickly.
_small_ints = st.integers(-(10**6), 10**6)
_matrix_rows = st.integers(1, 6).flatmap(
    lambda width: st.lists(st.lists(_small_ints, min_size=width, max_size=width), max_size=6)
)
_ragged_rows = st.lists(st.lists(_small_ints | _leaves, max_size=6), max_size=6)
_shaped_matrices = (
    st.fixed_dictionaries(
        {"entries": _matrix_rows | _ragged_rows | _leaves},
        optional={"rows": st.integers(0, 7) | _leaves, "cols": st.integers(0, 7) | _leaves},
    )
    | _leaves
)


@st.composite
def _mutated_matrices(draw):
    """Valid matrix JSON, sometimes with one entry, row or field changed."""
    rows = draw(_matrix_rows)
    obj = {"rows": len(rows), "cols": len(rows[0]) if rows else 0, "entries": rows}
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(_leaves)
        else:
            rows[i] = draw(st.lists(_small_ints, max_size=7) | _leaves)
    if draw(st.booleans()):
        obj[draw(st.sampled_from(("rows", "cols", "entries")))] = draw(_leaves | st.integers(0, 7))
    return obj


@settings(max_examples=300, deadline=None)
@given(obj=_shaped_matrices | _mutated_matrices())
def test_matrix_readers_accept_or_refuse_cleanly(obj):
    text = json.dumps(obj)
    for command in ("snf", "divisors"):
        for fmt in ("text", "json"):
            _assert_clean_exit(*_run_on_stdin([command, "--matrix", "-", "--format", fmt], text))


@st.composite
def _mutated_cartans(draw):
    """Valid Cartan JSON, by type or explicit matrix, sometimes with one value changed."""
    spec = rootdata.CartanSpec.from_label(draw(st.sampled_from(("A1", "A3", "B2", "C3", "D4", "G2"))))
    obj = spec.to_json()
    if draw(st.booleans()):
        obj = {"cartan": [list(row) for row in spec.matrix]}
        if draw(st.booleans()):
            row = draw(st.integers(0, spec.rank - 1))
            obj["cartan"][row][draw(st.integers(0, spec.rank - 1))] = draw(_leaves)
    elif draw(st.booleans()):
        obj[draw(st.sampled_from(sorted(obj) + ["cartan"]))] = draw(_leaves)
    return obj


@settings(max_examples=300, deadline=None)
@given(obj=_cartans | _mutated_cartans())
def test_cartan_reader_accepts_or_refuses_cleanly(obj):
    argv = ["braid-check", "--example", "torus", "--cartan", "-", "--format", "json"]
    _assert_clean_exit(*_run_on_stdin(argv, json.dumps(obj)))


@settings(max_examples=500, deadline=None)
@given(text=st.text() | st.text("0+-• [],123456789", max_size=16))
def test_pattern_text_reader_accepts_or_refuses_cleanly(text):
    try:
        pattern = SignedPattern.from_text(text)
    except ValueError:
        return
    assert SignedPattern.from_text(pattern.to_text()) == pattern


_integer_lists = st.text() | st.text("0123456789,- x", max_size=12)


@settings(max_examples=300, deadline=None)
@given(text=_integer_lists)
def test_integer_list_options_accept_or_refuse_cleanly(text):
    # "--option=text" keeps argparse from reading a leading "-" as an option.
    table = ["--example", "quadratic", "--n", "4", "--r", "3"]
    for argv in (
        ["braid-check", *table, f"--generators={text}"],
        ["orbits", *table, f"--generators={text}"],
        ["count-open", f"--divisors={text}"],
    ):
        _assert_clean_exit(*_run_on_stdin(argv, ""))


_vectors = st.lists(st.lists(st.integers(-3, 3) | _leaves, max_size=4), max_size=4)
_shaped_data = st.fixed_dictionaries(
    {},
    optional={
        "type": st.sampled_from("ABCDG") | _leaves,
        "rank": st.integers(0, 4) | _leaves,
        "cartan": st.lists(st.lists(st.integers(-3, 2), max_size=4), max_size=4) | _leaves,
        "spherical_roots": _vectors | _leaves,
        "weight_sublattice": _shaped_matrices | _leaves,
    },
) | _leaves


@st.composite
def _mutated_data(draw):
    """Valid datum JSON of a catalog family, sometimes with one field changed."""
    build = draw(st.sampled_from((catalog.build_ordered_pairs, catalog.build_unordered_pairs)))
    obj = build(draw(st.integers(2, 4)))[0].to_json()
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(obj) + ["cartan"]))
        obj[key] = draw(_leaves | _vectors | _shaped_matrices)
    return obj


@settings(max_examples=300, deadline=None)
@given(obj=_shaped_data | _mutated_data())
def test_datum_reader_accepts_or_refuses_cleanly(obj):
    try:
        datum = rootdata.SphericalDatum.from_json(json.loads(json.dumps(obj)))
    except ValueError:
        return
    assert rootdata.SphericalDatum.from_json(datum.to_json()) == datum


# -- one property over every reader's refusals -----------------------------------

# An oversized value: a short text repeated into a long string or name, or a number
# of up to 4,300 digits, the most that ``int`` reads from text.
_oversized = st.builds(
    lambda unit, k: unit * k, st.text(min_size=1, max_size=3), st.integers(300, 5000)
) | st.builds(
    lambda digits, sign: sign * int("9" * digits), st.integers(300, 4300), st.sampled_from((1, -1))
)


def _with_table(part: str, key: str, value) -> dict:
    """The table of three orbits and one N2 span, with ``value`` at ``key`` of its first
    orbit, its span or its Cartan entry: a slot where every value is refused."""
    table = _table_json([dict(o) for o in _ABC], dict(_N2_SPAN))
    (table[part] if part == "cartan" else table[part][0])[key] = value
    return table


def _long_path(length: int) -> str:
    """This file's path, stretched by "/." steps to about ``length`` characters (at most
    about 3,000, under the OS path limit): it opens, and its text is not JSON."""
    folder, name = os.path.split(os.path.abspath(__file__))
    return folder + "/." * min(length // 2, 1500) + "/" + name


# Each reader: (argv, stdin) from the oversized value.  The value lands where every
# value is refused: a number in an integer list is negated, or a text is prefixed.
_READERS = {
    "table-orbit-id": lambda v: (
        ("orbits", "--table", "-"), _table_json([*_ABC, {"id": v, "open": True}], _N2_SPAN)
    ),
    "table-orbit-flag": lambda v: (("orbits", "--table", "-"), _with_table("orbits", "open", v)),
    "table-span-name": lambda v: (("orbits", "--table", "-"), _with_table("spans", "lower", [v])),
    "table-span-type": lambda v: (("orbits", "--table", "-"), _with_table("spans", "type", v)),
    "table-span-root": lambda v: (("orbits", "--table", "-"), _with_table("spans", "root", v)),
    "table-cartan-type": lambda v: (("orbits", "--table", "-"), _with_table("cartan", "type", v)),
    "table-cartan-rank": lambda v: (("orbits", "--table", "-"), _with_table("cartan", "rank", v)),
    "table-path": lambda v: (("orbits", "--table", _long_path(len(str(v)))), None),
    "matrix-entry": lambda v: (("snf", "--matrix", "-"), {"entries": [[1, str(v)]]}),
    "matrix-rows": lambda v: (("divisors", "--matrix", "-"), {"rows": v, "entries": [[1]]}),
    "cartan-label": lambda v: (("braid-check", "--example", "torus", f"--cartan={str(v)}"), None),
    "cartan-number-label": lambda v: (
        ("braid-check", "--example", "torus", f"--cartan=A{str(v).lstrip('-')}"), None
    ),
    "cartan-file-entry": lambda v: (
        ("braid-check", "--example", "torus", "--cartan", "-"), {"cartan": [[v]]}
    ),
    "cartan-file-rank": lambda v: (
        ("braid-check", "--example", "torus", "--cartan", "-"), {"type": "B", "rank": v}
    ),
    "example": lambda v: (("braid-check", f"--example={str(v)}"), None),
    "divisors": lambda v: (
        ("count-open", f"--divisors={-abs(v) if isinstance(v, int) else 'x' + v}"), None
    ),
    "generators": lambda v: (
        ("orbits", "--example", "quadratic", "--n", "4", "--r", "3",
         f"--generators={v if isinstance(v, int) else 'x' + v}"),
        None,
    ),
    "patterns-n": lambda v: (("patterns", f"--n={str(v)}", "--r", "2"), None),
    "sylvester-n": lambda v: (("sylvester", f"--n={str(v)}", "--r", "2"), None),
    "example-n": lambda v: (("example", "unordered_pairs", f"--n={str(v)}"), None),
}


@settings(max_examples=300, deadline=None)
@given(reader=st.sampled_from(sorted(_READERS)), value=_oversized)
def test_every_reader_refuses_an_oversized_value_in_one_short_json_line(reader, value):
    jsonschema = pytest.importorskip("jsonschema")
    from pathlib import Path

    schema = json.loads((Path(__file__).resolve().parent.parent / "docs" / "schemas" /
                         "error.schema.json").read_text())
    argv, stdin = _READERS[reader](value)
    code, out, err = _run_on_stdin(list(argv), "" if stdin is None else json.dumps(stdin))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    jsonschema.Draft202012Validator(schema).validate(json.loads(err))
    assert len(err.encode("utf-8", "backslashreplace")) < 1024


# -- options a table source would ignore ---------------------------------------


@pytest.mark.parametrize(
    "argv,message",
    [
        (("example", "g2", "--cartan", "A5"), "g2_case does not take a Cartan matrix"),
        (("braid-check", "--example", "ordered_pairs", "--n", "3", "--cartan", "A9"),
         "ordered_pairs does not take a Cartan matrix"),
        (("braid-check", "--example", "torus", "--cartan", "A3", "--n", "7"),
         "torus_counterexample does not take the size parameter n"),
        (("braid-check", "--example", "quadratic", "--n", "3", "--r", "2", "--cartan", "B7"),
         "example 'quadratic' does not take --cartan"),
        (("orbits", "--example", "torus", "--cartan", "A3", "--r", "2"),
         "example 'torus_counterexample' does not take --r"),
        (("example", "torus", "--cartan", "A2", "--n", "3"),
         "torus_counterexample does not take the size parameter n"),
    ],
)
def test_example_options_the_family_ignores_are_refused(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert json.loads(err)["error"]["message"] == message


@pytest.mark.parametrize(
    "extra,message",
    [
        (("--n", "3"), "--table does not take --n"),
        (("--r", "2", "--cartan", "A1"), "--table does not take --r, --cartan"),
        (("--example", "g2"), "provide a table via --table FILE or --example NAME, not both"),
    ],
)
def test_table_file_refuses_example_options(tmp_path, capsys, extra, message):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(catalog.build_g2_case().to_json()))
    code, out, err = run_cli(capsys, "braid-check", "--table", str(path), *extra)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["message"] == message


def test_example_output_is_written_as_it_is_made(monkeypatch):
    """Peak traced memory of a large emit: 20.4 MB when the whole text and dict were built."""
    with open(os.devnull, "w", encoding="utf-8") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["example", "unordered_pairs", "--n", "40"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 5 * 2**20


def test_quadratic_orbits_json_is_written_as_it_is_made(monkeypatch):
    """Peak traced memory of the n = 8, r = 6 subgroup orbits, read from the patterns' moves:
    4.19 MB, and 6.8 MB when the command built the full table."""
    argv = "orbits --example quadratic --n 8 --r 6 --generators 1,2,3,4,5,6,7 --format json"
    with open(os.devnull, "w", encoding="utf-8") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(argv.split())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 5 * 2**20


def test_largest_quadratic_benchmark_command_peaks_under_12_5_mb(monkeypatch):
    """Peak traced memory of the n = 9, r = 6 subgroup orbits (41,916 orbits), read from the
    patterns' moves: 10.55 MB, and 13.8 MB when the command built the full table."""
    argv = "orbits --example quadratic --n 9 --r 6 --generators 1,2,3,4,5,6,7,8 --format json"
    with open(os.devnull, "w", encoding="utf-8") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(argv.split())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 12.5 * 2**20
