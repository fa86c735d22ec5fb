"""Golden outputs: CLI stdout and pattern tables must stay byte-identical.

Each digest is the sha256 of the stdout of one in-process ``cli.main`` run,
or of a pattern table's canonical JSON.  They were recorded from the code
before the span-type classifier was unified, and pin the rule that
refactors leave CLI output unchanged.  The runs with a nonzero exit status,
the catalog commands and the reflection digest were recorded before the
table moved to integer orbit indices.  The ``divisors`` digests were
recorded before the elimination made its transforms optional.  The ``snf``
digests pin u and v byte for byte; they were recorded when the elimination
became reduced Hermite passes, which changed u and v but not d, and each of
their inputs also has its decomposition checked directly.  The four-open
``unordered_pairs`` JSON, the ``unordered_pairs`` DOT and the torus and G2
JSON were recorded before the catalog builders handed their spans over as
one flat list.  The benchmark-scale runs (``quadratic`` n = 8) and the
(8, 6) signed and (8, 8) complex table JSON were recorded before the
pattern tables were built in index form.  The large catalog emits
(``unordered_pairs`` n = 60 and the two-open n = 61, torus A6, the
``ordered_pairs`` n = 40 DOT, the torus B10 open-orbit braid check) were
recorded before the catalog builders stopped making one span per P cell
and the table JSON and DOT were streamed.  The largest quadratic runs
(``orbits`` n = 9, r = 6 over eight generators and ``sylvester`` n = r = 9,
both JSON) were recorded before the pattern build freed its scaffolding
before validation, orbit domains became byte masks and the command JSON was
written as it is made.  The two signed ``patterns`` runs were re-recorded
when ``patterns`` began to list each shape in name order, the order of
every table's orbits.  A deliberate output change
updates the digest here and says why in the change log.
"""

import hashlib
import io
import json
import random
import sys

import pytest

from borelorbits import (
    CartanSpec,
    IntegerMatrix,
    build_complex_table,
    build_g2_case,
    build_ordered_pairs,
    build_table,
    build_torus_counterexample,
    build_unordered_pairs,
)
from borelorbits.cli import main

GOLDEN_CLI = {
    "patterns --n 6 --r 4": "b1dd886d84075837c279dc3f6f827e7abaaa13f57110dff70c7d8564b8cc685e",
    "patterns --n 5 --r 3 --format json": "ced3ab84e38dac6aa3e6c8f034ac189192c015b8f3d88e775a4087de50f6cb28",
    "patterns --n 6 --r 5 --complex": "8fc385f54c3878d8ad9a75511582c55e8df1139ccd7197efbd8e7ba1fe384eb6",
    "patterns --n 6 --r 6 --complex --format json": "650fc2618df87a715d34536398fced8712b53014e0864d6a680a30c6e463a029",
    "sylvester --n 6 --r 4": "984ceef9e6427f61d4dfc13e09c29a1ea1f34827069e7f131577308b782ca0f0",
    "sylvester --n 5 --r 5 --format json": "03e6d8877e47b3973bd371838354f6dd78fd8f22a715b17af718a7966bc342e4",
    "orbits --example quadratic --n 5 --r 4": "c3da9ab81b638276c751f23e5d1be942af5b2e09635e4d84c7ff83bd5e629576",
    "orbits --example quadratic --n 6 --r 4 --generators 1,3 --format json": "d8aec19bc46c61f436e8710745342f99a9aeab5f86b889b43fb2f60fed9b6418",
    "orbits --example quadratic --n 5 --r 3 --generators 2,4 --domain open": "e73d3f9a1e73be76b265ff0689d06a6401b870bcbe90c302fc83de58d81d5272",
    "braid-check --example quadratic --n 6 --r 5": "f5417c6ca898cd2b9bbd455152769a6735c46d996295747737c644c6facb9851",
    "braid-check --example quadratic --n 6 --r 6 --open-only --format json": "3641f22704cdb8daf02f92fbfecbd56d3976bcdca43d204a99632810901c4a9a",
    "braid-check --example quadratic --n 5 --r 4 --open-only --generators 1,3": "aecb4c5162251d14723eeb987d03f711a158a3c0dfa7dc12e20543f4df7e7e58",
    "example ordered_pairs --n 4 --emit dot": "774ce357484f73e973157fba23a62689bc39b102f9bac37895c7e4eedae3de70",
    "example ordered_pairs --n 4": "e578c68b959da3b73827f2a4bbbdc0642c9f91de2c865962ded82d2629d8fa4b",
    "example unordered_pairs --n 5": "df1b82b104f7e0e61f5a1bdd9053ff18149b4c0064b175834a8cd5734f69c2e5",
    "orbits --example ordered_pairs --n 6": "38017475959b85ebcde01e0944dd6688a60e5c599f99a2e6ffcb2e42a7d6b871",
    "braid-check --example g2 --format json": "0373dcaafc3eaf2571ca20b727dbdca1af6e7de68e032e2655a1d41d6e7ab5da",
    "example unordered_pairs --n 4": "675ca3984f28e98a31aa235ff1f59ffed2d3bd7dbd03c5bcd60e2e1b724d0d8e",
    "example unordered_pairs --n 7 --emit dot": "2788fbb4682079be605d3359ded3751f3553851046cc403d6490ce853e94749a",
    "example torus_counterexample --cartan B3": "e403f39181f6779ad3d5fa313f07f78c45d8bd658fe12cb716c81c11c87545e9",
    "example g2": "3cea23582f129763b375c692ff3cbd0c84ef781bfc516844fdd2285893dfbb0f",
    "orbits --example quadratic --n 8 --r 6 --generators 1,2,3,4,5,6,7 --format json": "a6097f17edc1f1641ec42598a8f156c813e404de3909f790f6a9dc775275cdf7",
    "braid-check --example quadratic --n 8 --r 8 --open-only": "9240722cd5adef9e2ec1285ebc035e4bbc8d239f1db45492d25b2a081b8a8f5f",
    "example unordered_pairs --n 60": "20536ea39aa268948cf3d02b78921f0c87cbebe657a70f9610fd662dad0acaa5",
    "example unordered_pairs --n 61": "eee3a027297405ce66c58fee236ecf201533cf563fa06331872707571f3c7e95",
    "example torus_counterexample --cartan A6": "44ef4278acc7e7a64c4f009ebba56a3c78a02496bb2e2a5dab5ab1f00cb97a58",
    "example ordered_pairs --n 40 --emit dot": "0cb5a6378e53393deb5c2db4ea4997e14db1580cedfab2fac6f8505b92f957b0",
    "braid-check --example torus --cartan B10 --open-only": "35edca448fbc97d8b60ef85ecd8d42b906c0e8fbf14d3aa93cd1696ed000da70",
    "orbits --example quadratic --n 9 --r 6 --generators 1,2,3,4,5,6,7,8 --format json": "d5c39d3aea6cf89acaaf32f9821ff2812b7b01c7789b26ae1d0b22dc2d52818b",
    "sylvester --n 9 --r 9 --format json": "8fe1e1a3b21779933fa550a2f9d674c02e6468291558dbc373cb404c8fe0e55e",
}

_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # sha256 of no output

# Runs that end with a nonzero status: (status, stdout digest, stderr digest).
GOLDEN_CLI_STATUS = {
    "braid-check --example torus --cartan A4 --strict": (
        2,
        "3a8060d35bca7ea2d3c63e4bc525b87f48ef85d232ae60866dbb29b823a749d5",
        _EMPTY,
    ),
    "braid-check --example quadratic --n 5 --r 3 --open-only": (
        1,
        _EMPTY,
        "49b4af0ef9ac06b04551bf5c482694c006df7f13156f64b7793fe39ffbe9969a",
    ),
    # "restriction is not invariant: s_6 moves '++++++00' to '+++++0+0' outside the subset"
    "braid-check --example quadratic --n 8 --r 6 --open-only": (
        1,
        _EMPTY,
        "9d9aecdc7ce91f04e3c3c6094bb3cd1eec8060a13507880fda22c64c68fe786d",
    ),
}

# Every reflection, braid verdict, real-group class and adjacent-pair subgroup
# orbit of the small pattern tables and catalog families, as canonical JSON.
GOLDEN_REFLECTIONS = "b8c70099a9f222166c07b6d087725ea45a82866dd47aad5fe40d090c7c3515f3"

GOLDEN_TABLES = {
    "signed 4 2": "5e3e1d942cdc429b5d3e0b3e7a2653f5863e9b4dfcf73ce2c908704e338af9d3",
    "signed 5 3": "3c55eceec09e107438e071ac6f47d92cb7836189d4bf511166180dfa6cdcd3e9",
    "signed 6 4": "78bbefa293a84ef4b82b9d10806f46a01c75cf1ae8550c54b716d3f24c0e2fa3",
    "signed 6 5": "028ec3eea7f2f329305c99771155cbb2a77f113447a1edaeffc14b65530a65ea",
    "signed 6 6": "cca8734d1d8ece452404a9c375e1fa3e70def82fc9233dc293128a7865a9957b",
    "complex 4 2": "73781fd3afed51c30dea25a9676c38fa0afee7e7801f5577982c5eba29ea8af5",
    "complex 5 3": "98c667509b4c3cdabf4e670cd8c87f47b22987e4b20ae6dd704453b71e52fa61",
    "complex 6 4": "2b2a636bf2d03362f4b65adfe696bca48c9954dffdee1f3e8ce8156eae9ed4c8",
    "complex 6 5": "a61ead9a09ff9589b0de1eeca60e1c4c839b5da977063ee5818d8103fb2b52fc",
    "complex 6 6": "56af11c32c140d7718681642f72ce5182bf52b8ab858eda8ca5e389c7bea294d",
    "signed 8 6": "1c1f1912dbc4ba3912dab56ff38fe8a853e6ec0c1a1ddfd7776a2bd20c50cb3d",
    "complex 8 8": "a12d37848b65e02644900819e6a13fc26cd4a686b7a66e3b09bebe32095dbe5b",
}


_LATTICE_COMMANDS = ("snf --matrix - --format json", "snf --matrix -", "divisors --matrix -")


def _lattice_inputs() -> dict[str, list[list[int]]]:
    rng = random.Random(12)
    return {
        "dense12": [[rng.randint(-50, 50) for _ in range(12)] for _ in range(12)],
        "rect3x5": [[2, 4, 6, 8, 10], [3, -1, 4, 1, 5], [0, 7, -2, 9, 6]],
        "deficient4": [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, -1, 2], [1, 3, 2, 6]],
        "unordered20": [list(r) for r in build_unordered_pairs(20)[0].weight_sublattice.entries],
        "empty": [],
    }


_RANK_DEFICIENT = "69c53ffa80e46d218ecfa00c83ce77c3cc090d7db96a2b568bca3b39824ddcc6"
_NONEMPTY = "76687fdd188f30330181ba1b6519aa2572f2fce9b521c03736d93119939b6b5a"

# (input, command) -> (status, stdout digest, stderr digest), matrix read from stdin.
GOLDEN_LATTICE = {
    ("dense12", "snf --matrix - --format json"): (
        0, "3e66e5810e4cd252439ff13d186ad2570e7a1cfbb5072b3612a1b459fdc6f942", _EMPTY),
    ("dense12", "snf --matrix -"): (
        0, "5185a043fef3142c581053ac89ad287dd00c873d30533c9abeab50d79ad6c03c", _EMPTY),
    ("dense12", "divisors --matrix -"): (
        0, "976bbcdc6554d52e4bcd08d7a7c0fbbcde91e76f78d55e5e8d4eb762270e1d83", _EMPTY),
    ("rect3x5", "snf --matrix - --format json"): (
        0, "53011c5887c2e1ae51412bb45e6ed0a631da901b86f6c9a3b324e6dbff57e7ae", _EMPTY),
    ("rect3x5", "snf --matrix -"): (
        0, "58147953cad28e77f506120bc3b79a31c7eb9024772bbd42f33789b75e656e7b", _EMPTY),
    ("rect3x5", "divisors --matrix -"): (
        0, "6e3efc811d40b03baab295f398ccc5f3a0b8c8c98c77fcd857540eea09e69f33", _EMPTY),
    ("deficient4", "snf --matrix - --format json"): (
        0, "9dda672de418b008fdf71ade3e5617ab7cdb4330ba2a88db11ec4a50c5338381", _EMPTY),
    ("deficient4", "snf --matrix -"): (
        0, "9ad7cea864ed4a55ac7f07a0478e577870203344920ee28b6ad045ed24619094", _EMPTY),
    # "sublattice basis is rank-deficient: 4 rows but rank 2"
    ("deficient4", "divisors --matrix -"): (1, _EMPTY, _RANK_DEFICIENT),
    ("unordered20", "snf --matrix - --format json"): (
        0, "4f573d2a48bf73db5dddf979ee62c115d87c3a4c05aceb0fedb7bc4082a16968", _EMPTY),
    ("unordered20", "snf --matrix -"): (
        0, "c883ae381027d23fbf93abded92b116510df3b6d17e2de12a9fbfaa2b29f1be3", _EMPTY),
    ("unordered20", "divisors --matrix -"): (
        0, "1258867c4a83ddc03b35b4375fd39b286b0872d538091cb88af7b29a049e2089", _EMPTY),
    # "smith_normal_form requires a nonempty matrix", for divisors too
    ("empty", "snf --matrix - --format json"): (1, _EMPTY, _NONEMPTY),
    ("empty", "snf --matrix -"): (1, _EMPTY, _NONEMPTY),
    ("empty", "divisors --matrix -"): (1, _EMPTY, _NONEMPTY),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN_CLI))
def test_cli_stdout_matches_golden_digest(capsys, command):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out) == GOLDEN_CLI[command]


@pytest.mark.parametrize("command", sorted(GOLDEN_CLI_STATUS))
def test_cli_status_and_streams_match_golden_digest(capsys, command):
    code = main(command.split())
    captured = capsys.readouterr()
    assert (code, _sha256(captured.out), _sha256(captured.err)) == GOLDEN_CLI_STATUS[command]


@pytest.mark.parametrize(
    "name,command", sorted(GOLDEN_LATTICE), ids=lambda x: x.replace(" --matrix -", "")
)
def test_lattice_status_and_streams_match_golden_digest(capsys, monkeypatch, name, command):
    rows = _lattice_inputs()[name]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"entries": rows})))
    code = main(command.split())
    captured = capsys.readouterr()
    assert (code, _sha256(captured.out), _sha256(captured.err)) == GOLDEN_LATTICE[name, command]


@pytest.mark.parametrize("name", ["dense12", "rect3x5", "deficient4", "unordered20"])
def test_lattice_snf_digests_pin_a_valid_decomposition(capsys, monkeypatch, name):
    rows = _lattice_inputs()[name]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"entries": rows})))
    assert main("snf --matrix - --format json".split()) == 0
    payload = json.loads(capsys.readouterr().out)
    u, v = (IntegerMatrix.from_json(payload[key]) for key in ("u", "v"))
    d = payload["d"]
    diagonal = [[d[i] if i == j else 0 for j in range(v.rows)] for i in range(u.rows)]
    assert (u @ IntegerMatrix.from_rows(rows) @ v).entries == tuple(map(tuple, diagonal))
    assert abs(u.det()) == abs(v.det()) == 1


def _small_tables():
    for n in range(1, 7):
        for r in range(n + 1):
            yield f"signed {n} {r}", build_table(n, r)
            yield f"complex {n} {r}", build_complex_table(n, r)
    for n in range(2, 6):
        yield f"ordered_pairs {n}", build_ordered_pairs(n)[1]
        yield f"unordered_pairs {n}", build_unordered_pairs(n)[1]
    for label in ("A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2"):
        yield f"torus {label}", build_torus_counterexample(CartanSpec.from_label(label))
    yield "g2_case", build_g2_case()


def _reflection_record(table) -> dict:
    rank = table.cartan.rank
    names = table.orbit_names
    return {
        "orbits": list(names),
        "reflections": {
            str(i): sorted(table.reflection_permutation(i).items()) for i in range(1, rank + 1)
        },
        "braid": table.check_braid().to_json(),
        "real_classes": [list(c) for c in table.real_group_orbit_classes()],
        "subgroup_orbits": {
            f"{i},{i + 1}": [list(c) for c in table.subgroup_orbits([i, i + 1], names)]
            for i in range(1, rank)
        },
    }


def test_reflections_match_golden_digest():
    record = {key: _reflection_record(table) for key, table in _small_tables()}
    assert _sha256(json.dumps(record, sort_keys=True)) == GOLDEN_REFLECTIONS


def _table_json(key: str) -> str:
    kind, n, r = key.split()
    build = build_table if kind == "signed" else build_complex_table
    return json.dumps(build(int(n), int(r)).to_json(), sort_keys=True)


@pytest.mark.parametrize("key", sorted(GOLDEN_TABLES))
def test_pattern_table_matches_golden_digest(key):
    assert _sha256(_table_json(key)) == GOLDEN_TABLES[key]
