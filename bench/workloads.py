"""The benchmark's workloads: CLI command lists with independent output checks.

Each workload is a fixed list of ``borelorbits`` commands run one after
another.  Every command carries the exit status it must give and a check of
its standard output against references from :mod:`reference`.

* ``quadratic``: the signed-pattern pipeline, the paper's headline example.
  Most of its time is pattern enumeration, table assembly, and braid checks
  over few generator pairs on a large orbit set.  It never calls the
  validating table constructor or the lattice layer.
* ``catalog``: the worked families.  Braid checks over many generator pairs
  on small orbit sets (the opposite shape to ``quadratic``), the validating
  table constructor, the spherical-datum rank checks and large JSON/DOT
  emits.
* ``lattice``: Smith normal form and elementary divisors only.  Dense seeded
  matrices stress big-integer transform growth; the sparse weight-sublattice
  bases stay small-valued and stress the pivot scans.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

WORKLOADS = ("quadratic", "catalog", "lattice")

DENSE_SIZES = (10, 20, 30, 40, 48)
SPARSE_SIZES = (100, 200)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its arguments, its expected exit status and a stdout check.

    ``check`` raises when the output is wrong.  A command expected to exit 1
    is an expected refusal and has no stdout check.
    """

    argv: tuple[str, ...]
    check: Callable[[str], None] | None = None
    exit_code: int = 0

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _expect_equal(actual, expected, what: str) -> None:
    _expect(actual == expected, f"{what} differs from the reference")


def is_json_error(stderr: str) -> bool:
    """Whether stderr is exactly the CLI's one-line JSON error object."""
    try:
        error = json.loads(stderr)["error"]
        return isinstance(error["type"], str) and isinstance(error["message"], str)
    except (ValueError, KeyError, TypeError):
        return False


# -- quadratic -------------------------------------------------------------------


def _check_patterns(n: int, r: int, out: str) -> None:
    lines = out.splitlines()
    _expect_equal(len(lines), ref.pattern_count(n, r), "pattern count")
    _expect(len(set(lines)) == len(lines), "patterns repeat")
    for line in lines:
        ref.pattern_invariant(line, n, r)


def _check_sylvester(n: int, r: int, out: str) -> None:
    obj = ref.loads(out)
    _expect_equal((obj["n"], obj["r"]), (n, r), "shape")
    classes = obj["classes"]
    _expect_equal(len(classes), r + 1, "number of inertia classes")
    _expect_equal(sorted(c["minus"] for c in classes), list(range(r + 1)), "class labels")
    for c in classes:
        _expect(c["plus"] + c["minus"] == r, "plus + minus != r")
        _expect_equal(len(set(c["orbits"])), math.comb(r, c["plus"]), "class size")
        for name in c["orbits"]:
            _expect(ref.pattern_invariant(name, n, r) == (c["plus"], c["minus"], 0),
                    f"{name!r} is not in class ({c['plus']},{c['minus']})")
            _expect(set(name[r:]) <= {"0"}, f"{name!r} is not open")


def _check_orbit_classes(n: int, r: int, out: str) -> None:
    classes = ref.loads(out)["classes"]
    _expect_equal(len(classes), ref.orbit_class_count(r), "number of orbit classes")
    names = [name for block in classes for name in block]
    _expect_equal(len(set(names)), ref.pattern_count(n, r), "patterns covered")
    _expect(len(names) == len(set(names)), "classes overlap")
    invariants = []
    for block in classes:
        kinds = {ref.pattern_invariant(name, n, r) for name in block}
        _expect(len(kinds) == 1, "a class mixes inertia or arc counts")
        invariants.append(kinds.pop())
    _expect(len(set(invariants)) == len(invariants), "two classes share an invariant")


def _all_hold(letter: str, rank: int):
    return [(i, j, m, None) for i, j, m in ref.braid_pairs(letter, rank)]


def quadratic_commands() -> list[Command]:
    gens = ",".join(str(i) for i in range(1, 9))
    return [
        Command(("patterns", "--n", "9", "--r", "9"),
                functools.partial(_check_patterns, 9, 9)),
        Command(("sylvester", "--n", "9", "--r", "9", "--format", "json"),
                functools.partial(_check_sylvester, 9, 9)),
        # Positions are permuted by the symmetric group, so every relation holds.
        Command(("braid-check", "--example", "quadratic", "--n", "9", "--r", "9",
                 "--format", "json"),
                lambda out: _expect_equal(ref.loads(out), ref.braid_json(_all_hold("A", 8)),
                                          "braid report")),
        # r < n: zeros bring in P and U spans.
        Command(("orbits", "--example", "quadratic", "--n", "9", "--r", "6",
                 "--generators", gens, "--format", "json"),
                functools.partial(_check_orbit_classes, 9, 6)),
        Command(("braid-check", "--example", "quadratic", "--n", "8", "--r", "8",
                 "--open-only"),
                lambda out: _expect_equal(out, ref.braid_text(_all_hold("A", 7)),
                                          "braid report")),
        # For r < n the open orbits are not closed under the reflections.
        Command(("braid-check", "--example", "quadratic", "--n", "8", "--r", "6",
                 "--open-only"), exit_code=1),
    ]


# -- catalog ------------------------------------------------------------------------


def _check_pairs_braid(n: int, out: str) -> None:
    _, edges = ref.pairs_model(n, ordered=False)
    verdicts = ref.model_verdicts(ref.model_moves(edges, n), "B", n)
    _expect_equal(ref.loads(out), ref.braid_json(verdicts), "braid report")


def _real_classes_text(n: int, ordered: bool) -> str:
    """Open orbits joined by T2/N2 swaps, one sorted class per line."""
    orbits, edges = ref.pairs_model(n, ordered)
    block_of = {name: {name} for name, is_open in orbits.items() if is_open}
    for _, a, b, kind in edges:
        if kind in ("T2", "N2") and a in block_of:
            merged = block_of[a] | block_of[b]
            for name in merged:
                block_of[name] = merged
    blocks = sorted({tuple(sorted(block)) for block in block_of.values()})
    return "".join(" ".join(block) + "\n" for block in blocks)


def _check_pairs_example(n: int, out: str) -> None:
    obj = ref.loads(out)
    _expect_equal(obj["name"], "unordered_pairs", "example name")
    table = obj["table"]
    _expect_equal(table["cartan"], {"type": "B", "rank": n}, "Cartan type")
    orbits, edges = ref.table_edges(table, n)
    model_orbits, model_edges = ref.pairs_model(n, ordered=False)
    _expect_equal(orbits, model_orbits, "orbits")
    _expect_equal(ref.edge_set(edges), ref.edge_set(model_edges), "reflection swaps")
    _expect_equal(sum(orbits.values()), 4 if n % 4 in (0, 3) else 2, "open orbit count")
    datum = obj["datum"]
    _expect_equal((datum["type"], datum["rank"]), ("B", n), "datum Cartan type")
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    roots = [[a + b for a, b in zip(unit[i], unit[i + 1])] for i in range(n - 1)]
    _expect_equal(datum["spherical_roots"], roots + [[2 * x for x in unit[-1]]],
                  "spherical roots")
    _expect_equal(datum["weight_sublattice"]["entries"], ref.unordered_pairs_sublattice(n),
                  "weight sublattice")


def _check_pairs_dot(n: int, out: str) -> None:
    _expect_equal(out, ref.dot_text(*ref.pairs_model(n, ordered=True)), "DOT output")


def catalog_commands() -> list[Command]:
    def torus_json(letter, rank):
        expected = ref.braid_json(ref.torus_verdicts(letter, rank))
        return lambda out: _expect_equal(ref.loads(out), expected, "braid report")

    def torus_text(letter, rank):
        expected = ref.braid_text(ref.torus_verdicts(letter, rank))
        return lambda out: _expect_equal(out, expected, "braid report")

    return [
        Command(("braid-check", "--example", "unordered_pairs", "--n", "100",
                 "--format", "json"), functools.partial(_check_pairs_braid, 100)),
        Command(("orbits", "--example", "ordered_pairs", "--n", "100"),
                lambda out: _expect_equal(out, _real_classes_text(100, ordered=True),
                                          "real-group classes")),
        Command(("example", "unordered_pairs", "--n", "60", "--emit", "json"),
                functools.partial(_check_pairs_example, 60)),
        Command(("example", "ordered_pairs", "--n", "40", "--emit", "dot"),
                functools.partial(_check_pairs_dot, 40)),
        Command(("braid-check", "--example", "torus", "--cartan", "A10", "--format", "json"),
                torus_json("A", 10)),
        Command(("braid-check", "--example", "torus", "--cartan", "B10", "--open-only"),
                torus_text("B", 10)),
        Command(("braid-check", "--example", "g2"), torus_text("G", 2)),
    ]


# -- lattice ------------------------------------------------------------------------


def _check_chain(divisors: list[int], k: int, det: int) -> None:
    _expect_equal(len(divisors), k, "number of divisors")
    _expect(all(d >= 1 for d in divisors), "divisors must be positive")
    _expect(all(b % a == 0 for a, b in zip(divisors, divisors[1:])), "divisor chain broken")
    _expect_equal(math.prod(divisors), abs(det), "product of divisors vs |det|")


def _check_divisors(rows, det, out: str) -> None:
    _check_chain([int(x) for x in out.split()], len(rows), det())


def _check_snf(rows, det, out: str) -> None:
    obj = ref.loads(out)
    d = obj["d"]
    k = len(rows)
    _check_chain(d, k, det())
    u, v = obj["u"]["entries"], obj["v"]["entries"]
    _expect(len(u) == len(v) == k and all(len(x) == k for x in u + v), "transform shape")
    diagonal = [[d[i] if i == j else 0 for j in range(k)] for i in range(k)]
    # With u M v = diag(d) and prod(d) = |det M| != 0, det(u) det(v) = +-1,
    # so both integer transforms are unimodular.
    _expect_equal(ref.matmul(u, ref.matmul(rows, v)), diagonal, "u M v")


def lattice_inputs(seed: int) -> dict[str, list[list[int]]]:
    inputs = {f"dense{k}": ref.dense_matrix(seed, k) for k in DENSE_SIZES}
    for n in SPARSE_SIZES:
        inputs[f"sparse{n}"] = ref.unordered_pairs_sublattice(n)
    return inputs


def lattice_commands(seed: int, input_dir: Path) -> list[Command]:
    """Write the seeded matrices to ``input_dir``; the 48x48 ``snf`` is a known failure.

    Its transforms outgrow the interpreter's int/str conversion limit, so the
    CLI refuses to print them; the benchmark counts that as a failed command.
    """
    input_dir.mkdir(parents=True, exist_ok=True)
    commands = []
    for name, rows in lattice_inputs(seed).items():
        path = input_dir / f"{name}.json"
        path.write_text(json.dumps({"entries": rows}))
        det = functools.cache(functools.partial(ref.det, rows))
        commands.append(Command(("divisors", "--matrix", str(path)),
                                functools.partial(_check_divisors, rows, det)))
        commands.append(Command(("snf", "--matrix", str(path), "--format", "json"),
                                functools.partial(_check_snf, rows, det)))
    return commands


def commands_for(workload: str, seed: int, work_dir: Path) -> list[Command]:
    if workload == "quadratic":
        return quadratic_commands()
    if workload == "catalog":
        return catalog_commands()
    return lattice_commands(seed, work_dir / "inputs")


SETUP_COMMAND = Command(("count-open", "--divisors", "1"),
                        lambda out: _expect_equal(out, "1\n", "count-open output"))


@dataclass(frozen=True)
class Verdict:
    ok: bool
    wrong: bool  # a wrong answer or a crash, as opposed to a clean refusal
    reason: str = ""


def judge(command: Command, exit_code: int, out: str, err: str) -> Verdict:
    """Compare one run of a command with its expected status and output.

    A command that should succeed but exits 1 with the CLI's JSON error and
    no output is a clean refusal: it fails without giving a wrong answer.
    """
    refused = exit_code == 1 and out == "" and is_json_error(err)
    if command.exit_code == 1:
        if refused:
            return Verdict(True, False)
        return Verdict(False, True, f"expected a JSON refusal, got exit {exit_code}")
    if exit_code != 0:
        return Verdict(False, not refused, f"exit {exit_code}: {err.strip()[:300]}")
    try:
        command.check(out)
    except Exception as exc:  # any malformed output is a wrong answer, never a crash
        return Verdict(False, True, f"{type(exc).__name__}: {exc}"[:300])
    return Verdict(True, False)
