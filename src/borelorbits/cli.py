"""Batch command-line interface.

Subcommands cover the whole library surface: ``snf``, ``divisors`` and
``count-open`` for the lattice layer, ``patterns`` and ``sylvester`` for the
quadratic-form model, ``braid-check`` and ``orbits`` for reflection tables,
and ``example`` to emit a catalog table as JSON or Graphviz DOT.

Output is deterministic: no timestamps, no environment-dependent ordering,
no color.  Validation failures, usage errors included, exit with status 1
and one machine-readable JSON error line on stderr.  Status 2 means only
that a braid relation failed under ``braid-check --strict``.  JSON payloads
may be read from stdin via ``-``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import islice

# Submodule attributes are read inside the commands: each command runs only
# the modules it uses, and a function replaced on a module is the one called.
from . import EXAMPLE_NAMES, _shown, catalog, lattice, orbits, patterns, rootdata

_LABEL_RE = re.compile(r"^[A-Za-z][0-9]+$")
# A usage error longer than this is cut: its JSON line stays under 1 KB even
# when every character is escaped as \uXXXX.
_USAGE_BOUND = 150


class _Parser(argparse.ArgumentParser):
    """Refuses a usage error as a ValueError, which :func:`main` prints as any refusal."""

    def error(self, message: str):
        cut = message if len(message) <= _USAGE_BOUND else message[:_USAGE_BOUND] + "..."
        raise ValueError(cut)


def _read_json(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # Nesting deeper than the interpreter's recursion limit is unreadable too.
        raise ValueError(f"invalid JSON in {_shown(path)}: {exc}") from exc


def _parse_cartan(text: str) -> rootdata.CartanSpec:
    if _LABEL_RE.match(text.strip()):
        return rootdata.CartanSpec.from_label(text.strip())
    return rootdata.CartanSpec.from_json(_read_json(text))


def _parse_int_list(text: str) -> list[int]:
    """The integers of a comma-separated list; empty items are skipped, but one must remain.

    argparse hands over ``--option=--`` as an empty list, which names none.
    """
    text = text if isinstance(text, str) else ""
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"expected a comma-separated integer list, got {_shown(text)}")
    return values


def _emit_json(obj) -> None:
    """Print ``obj`` as JSON, built whole: an integer too long to print leaves stdout empty."""
    print(json.dumps(obj, indent=2, ensure_ascii=False))


def _stream_json(obj) -> None:
    """Write ``obj`` as the text of :func:`_emit_json`, part by part as it is made.

    Only for payloads of names and small ints, which cannot fail half way.
    The encoder's chunks are joined a few thousand at a time: on an
    unbuffered stdout (``PYTHONUNBUFFERED``) each write is a system call.
    """
    chunks = json.JSONEncoder(ensure_ascii=False, indent=2).iterencode(obj)
    for part in iter(lambda: "".join(islice(chunks, 4096)), ""):
        sys.stdout.write(part)
    sys.stdout.write("\n")


def _matrix_text(m: lattice.IntegerMatrix) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in m.entries)


# -- table sources ---------------------------------------------------------------


def _refuse_unused(args, source: str, takes: tuple[str, ...]) -> None:
    """Refuse a table-source option that ``source`` would ignore."""
    given = [key for key in ("n", "r", "cartan") if getattr(args, key) is not None]
    unused = [f"--{key}" for key in given if key not in takes]
    if unused:
        raise ValueError(f"{source} does not take {', '.join(unused)}")


def _load_table(args, opens_only: bool):
    """The table a command reads.  The quadratic example builds none: the commands
    get the moves of its open patterns when ``opens_only``, else of all its patterns."""
    if args.table and args.example:
        raise ValueError("provide a table via --table FILE or --example NAME, not both")
    if args.table:
        _refuse_unused(args, "--table", ())
        return orbits.ReflectionTable.from_json(_read_json(args.table))
    if args.example:
        name = args.example.strip().lower()
        if name == "quadratic":
            _refuse_unused(args, "example 'quadratic'", ("n", "r"))
            if args.n is None or args.r is None:
                raise ValueError("example 'quadratic' needs --n and --r")
            return (patterns.OpenPatterns if opens_only else patterns.PatternMoves)(args.n, args.r)
        name = catalog.canonical_example_name(name)
        _refuse_unused(args, f"example {name!r}", ("n", "cartan"))
        cartan = _parse_cartan(args.cartan) if args.cartan else None
        return catalog.build_example(name, args.n, cartan).table
    raise ValueError("provide a table via --table FILE or --example NAME")


def _add_table_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--table", help="reflection table JSON file, or - for stdin")
    names = ", ".join((*EXAMPLE_NAMES, "quadratic"))
    parser.add_argument("--example", help=f"catalog example name ({names})")
    parser.add_argument("--n", type=int, help="size parameter for the example")
    parser.add_argument("--r", type=int, help="rank parameter (quadratic example)")
    parser.add_argument("--cartan", help="Cartan label like A2, or a JSON file/-")


# -- subcommands ---------------------------------------------------------------


def _cmd_snf(args) -> int:
    matrix = lattice.IntegerMatrix.from_json(_read_json(args.matrix))
    snf = lattice.smith_normal_form(matrix)
    if args.format == "json":
        _emit_json(snf.to_json())
    else:
        # Built whole before writing: an entry too long to print leaves stdout empty.
        d = " ".join(str(x) for x in snf.d)
        sys.stdout.write(f"d: {d}\nu:\n{_matrix_text(snf.u)}\nv:\n{_matrix_text(snf.v)}\n")
    return 0


def _cmd_divisors(args) -> int:
    matrix = lattice.IntegerMatrix.from_json(_read_json(args.matrix))
    divisors = lattice.elementary_divisors(matrix)
    if args.format == "json":
        _emit_json({"divisors": list(divisors)})
    else:
        print(" ".join(str(x) for x in divisors))
    return 0


def _cmd_count_open(args) -> int:
    divisors = _parse_int_list(args.divisors)
    count = lattice.count_open_real_orbits(divisors)
    if args.format == "json":
        coordinates = list(lattice.sign_coordinates(divisors))
        _emit_json({"divisors": divisors, "count": count, "sign_coordinates": coordinates})
    else:
        print(count)
    return 0


def _cmd_patterns(args) -> int:
    signed = not args.complex
    texts = patterns.pattern_texts(args.n, args.r, signed=signed)
    if args.format == "json":
        shape = {"n": args.n, "r": args.r, "signed": signed}
        _stream_json({**shape, "count": len(texts), "patterns": texts})
    else:
        sys.stdout.write("".join(text + "\n" for text in texts))
    return 0


def _cmd_sylvester(args) -> int:
    classes = patterns.sylvester_classes(args.n, args.r)
    if args.format == "json":
        blocks = [{"plus": c.plus, "minus": c.minus, "orbits": c.orbits} for c in classes]
        _stream_json({"n": args.n, "r": args.r, "classes": blocks})
    else:
        for c in classes:
            print(f"({c.plus},{c.minus}):", " ".join(c.orbits))
    return 0


def _cmd_braid_check(args) -> int:
    table = _load_table(args, args.open_only)
    restrict = table.open_orbit_names if args.open_only else None
    generators = None if args.generators is None else _parse_int_list(args.generators)
    report = table.check_braid(restrict_to=restrict, generators=generators)
    if args.format == "json":
        _stream_json(report.to_json())
    else:
        for pair in report.pairs:
            status = "ok" if pair.holds else f"FAIL witness={pair.witness}"
            print(f"s{pair.i},s{pair.j}: m={pair.exponent} {status}")
        print("braid relations hold" if report.holds else "braid relations fail")
    return 2 if args.strict and not report.holds else 0


def _cmd_orbits(args) -> int:
    if args.domain is not None and args.generators is None:
        raise ValueError("--domain needs --generators")
    table = _load_table(args, args.generators is None or args.domain == "open")
    if args.generators is not None:
        domain = table.open_orbit_names if args.domain == "open" else None
        classes = table.subgroup_orbits(_parse_int_list(args.generators), domain)
    else:
        classes = table.real_group_orbit_classes()
    if args.format == "json":
        _stream_json({"classes": classes})
    else:
        sys.stdout.write("".join(" ".join(block) + "\n" for block in classes))
    return 0


def _cmd_example(args) -> int:
    cartan = _parse_cartan(args.cartan) if args.cartan else None
    example = catalog.build_example(args.name, args.n, cartan)
    # Written as it is made: the text of a large table is never held whole.
    if args.emit == "dot":
        sys.stdout.writelines(example.table.iter_dot())
        return 0
    sys.stdout.write(f'{{\n  "name": {json.dumps(example.name)},\n  "table": ')
    sys.stdout.writelines(part.replace("\n", "\n  ") for part in example.table.iter_json())
    if example.datum is not None:
        datum = json.dumps(example.datum.to_json(), indent=2, ensure_ascii=False)
        sys.stdout.write(',\n  "datum": ' + datum.replace("\n", "\n  "))
    sys.stdout.write("\n}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="borelorbits",
        description="Combinatorics of real Borel orbits: divisors, sign patterns, "
        "reflection operators and braid checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)
        return p

    p = command("snf", _cmd_snf, "Smith normal form of an integer matrix")
    p.add_argument("--matrix", required=True, help="matrix JSON file, or - for stdin")
    p = command("divisors", _cmd_divisors, "elementary divisors of a sublattice basis")
    p.add_argument("--matrix", required=True, help="matrix JSON file, or - for stdin")
    p = command("count-open", _cmd_count_open, "open real orbit count from a divisor list")
    p.add_argument("--divisors", required=True, help="comma-separated divisors, e.g. 2,2,1,1")
    p = command("patterns", _cmd_patterns, "enumerate (signed) patterns")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--complex", action="store_true", help="unsigned patterns")
    p = command("sylvester", _cmd_sylvester, "inertia classes of open sign patterns")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p = command("braid-check", _cmd_braid_check, "verify braid relations")
    _add_table_source(p)
    p.add_argument("--open-only", action="store_true", help="restrict to open orbits")
    p.add_argument("--generators", help="comma-separated root indices")
    p.add_argument("--strict", action="store_true", help="exit 2 on failure")
    p = command("orbits", _cmd_orbits, "orbit classes of a reflection table")
    _add_table_source(p)
    p.add_argument("--generators", help="comma-separated root indices (subgroup orbits)")
    domain_help = "domain for --generators (default all orbits)"
    p.add_argument("--domain", choices=("all", "open"), help=domain_help)

    p = sub.add_parser("example", help="emit a catalog example")
    p.add_argument("name", help=", ".join(EXAMPLE_NAMES))
    p.add_argument("--n", type=int, help="size parameter")
    p.add_argument("--cartan", help="Cartan label like A2, or a JSON file/-")
    p.add_argument("--emit", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        message = str(exc)
        if isinstance(exc, OSError) and exc.filename is not None:  # a path may be any length
            message = f"[Errno {exc.errno}] {exc.strerror}: {_shown(exc.filename)}"
        error = {"error": {"type": type(exc).__name__, "message": message}}
        print(json.dumps(error, ensure_ascii=False), file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
