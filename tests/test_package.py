"""Package start-up: lazily loaded submodules, and what tools that patch them rely on.

A tracer may import ``borelorbits.cli``, find every submodule in
``sys.modules`` and replace functions on them; the CLI must then call the
replacements.
"""

import json
import subprocess
import sys

import pytest

import borelorbits
from borelorbits import lattice
from borelorbits.cli import main

SUBMODULES = ("catalog", "lattice", "orbits", "patterns", "rootdata")


def _fresh_child(code: str, *argv: str) -> str:
    """Standard output of ``code`` run in a new interpreter."""
    result = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True
    )
    return result.stdout


# The submodules a CLI command executed. The module ``__dict__`` is read with
# ``object.__getattribute__``, which does not load a lazy module; executing a
# module's code puts ``__builtins__`` in it.
_EXECUTED = """
import json, sys
from borelorbits.cli import main
code = main(sys.argv[1:])
executed = [
    name for name in ("catalog", "lattice", "orbits", "patterns", "rootdata")
    if "__builtins__" in object.__getattribute__(sys.modules["borelorbits." + name], "__dict__")
]
print(json.dumps({"code": code, "executed": executed}))
"""


def test_lattice_commands_run_only_lattice(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"entries": [[2, 0], [0, 3]]}))
    for argv in (("count-open", "--divisors", "1"), ("divisors", "--matrix", str(path))):
        last = _fresh_child(_EXECUTED, *argv).splitlines()[-1]
        assert json.loads(last) == {"code": 0, "executed": ["lattice"]}


@pytest.mark.parametrize(
    "argv",
    [
        ("braid-check", "--example", "quadratic", "--n", "4", "--r", "4"),
        ("orbits", "--example", "quadratic", "--n", "4", "--r", "2", "--generators", "1,3"),
        ("sylvester", "--n", "3", "--r", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_quadratic_commands_do_not_run_lattice(argv):
    """A Cartan spec needs no lattice: only reflection matrices and spherical data run it."""
    last = _fresh_child(_EXECUTED, *argv).splitlines()[-1]
    assert json.loads(last) == {"code": 0, "executed": ["orbits", "patterns", "rootdata"]}


# The modules loaded once a CLI command has run, as the last line of output.
_LOADED = """
import json, sys
from borelorbits.cli import main
main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ("count-open", "--divisors", "1"),
        ("divisors", "--matrix", "{matrix}"),
        ("snf", "--matrix", "{matrix}"),
        ("braid-check", "--example", "g2"),
        ("sylvester", "--n", "3", "--r", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_commands_import_neither_dataclasses_nor_inspect(tmp_path, argv):
    """The records need no ``dataclasses``, which brings ``inspect``, ``ast`` and ``dis``."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"entries": [[2, 0], [0, 3]]}))
    argv = [arg.format(matrix=path) for arg in argv]
    bare = set(_fresh_child("import sys; print(' '.join(sys.modules))").split())
    added = set(json.loads(_fresh_child(_LOADED, *argv).splitlines()[-1])) - bare
    assert "borelorbits.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_importing_the_cli_registers_every_submodule():
    code = "import sys, borelorbits.cli; print(' '.join(sorted(sys.modules)))"
    loaded = set(_fresh_child(code).split())
    assert {f"borelorbits.{name}" for name in SUBMODULES} <= loaded
    assert "borelorbits.cli" in loaded


def test_cli_calls_the_functions_patched_on_the_modules(tmp_path, monkeypatch, capsys):
    calls = []
    original = lattice.elementary_divisors

    def spy(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(lattice, "elementary_divisors", spy)
    assert borelorbits.elementary_divisors is spy
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"entries": [[2, 0], [0, 3]]}))
    assert main(["divisors", "--matrix", str(path)]) == 0
    assert capsys.readouterr().out == "1 6\n"
    assert len(calls) == 1


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from borelorbits import *", namespace)
    assert set(borelorbits.__all__) <= set(namespace)
    assert set(borelorbits.__all__) <= set(dir(borelorbits))
    for name in borelorbits.__all__:
        module = sys.modules[namespace[name].__module__]
        assert getattr(module, name) is namespace[name]


def test_no_helper_name_leaks_into_the_package():
    public = {name for name in vars(borelorbits) if not name.startswith("_")}
    assert public <= {*borelorbits.__all__, *SUBMODULES, "cli", "EXAMPLE_NAMES"}
    with pytest.raises(AttributeError, match="has no attribute 'importlib'"):
        borelorbits.importlib
