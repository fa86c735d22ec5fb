"""Traced run: per-layer spans recorded from outside the library.

The workload's commands run in this process through
``borelorbits.cli.main(argv)``.  For a traced pass the public callables of
each module are replaced, for the length of the pass, by wrappers that
record a span (name, start, end, parent); nothing under ``src`` changes.
A layer's self time is its spans' duration minus the time covered by their
child spans.  The pattern-table caches are cleared before every command, so
that each in-process command does the work of a fresh process.

Layers and the end-to-end metric each should move:

* ``cli`` (argument parsing, JSON read and emit): ``wall_s`` on ``catalog``
  and ``lattice``; ``cli.import_s`` moves ``setup_s`` everywhere.
* ``patterns`` (enumeration, table assembly, inertia classes): ``wall_s``
  on ``quadratic``; ``patterns.build_table.peak_mb`` (tracemalloc, in a
  separate memory-only pass) moves ``peak_rss_mb`` there.
* ``orbits`` (braid checks, subgroup orbits, the validating constructor,
  JSON/DOT emit): ``wall_s`` on ``quadratic`` and ``catalog``.
* ``catalog`` and ``rootdata`` (builders, spherical-datum rank checks):
  ``wall_s`` on ``catalog``.
* ``lattice`` (Smith normal form, divisors, rank): ``wall_s``,
  ``peak_rss_mb`` and ``pass_ratio`` on ``lattice``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import reference as ref
from harness import (
    SETUP_PROBES_FIRST, SRC, CheckoutError, Judge, locate_module, setup_probe, subprocess_pass,
)

IMPORT_PROBES = 5

# (module, attribute, span name); every binding of the same function in any
# borelorbits module is replaced, so calls through imported names are seen.
FUNCTIONS = (
    ("patterns", "enumerate_patterns", "patterns.enumerate_patterns"),
    ("patterns", "build_table", "patterns.build_table"),
    ("patterns", "sylvester_classes", "patterns.sylvester_classes"),
    ("catalog", "build_example", "catalog.build"),
    ("catalog", "build_ordered_pairs", "catalog.build"),
    ("catalog", "build_unordered_pairs", "catalog.build"),
    ("catalog", "build_torus_counterexample", "catalog.build"),
    ("catalog", "build_g2_case", "catalog.build"),
    ("lattice", "smith_normal_form", "lattice.smith_normal_form"),
    ("lattice", "elementary_divisors", "lattice.elementary_divisors"),
)
# (module, class, method, span name)
METHODS = (
    ("orbits", "ReflectionTable", "__init__", "orbits.init"),
    ("orbits", "ReflectionTable", "check_braid", "orbits.check_braid"),
    ("orbits", "ReflectionTable", "subgroup_orbits", "orbits.subgroup_orbits"),
    ("orbits", "ReflectionTable", "real_group_orbit_classes", "orbits.real_group_orbit_classes"),
    ("orbits", "ReflectionTable", "to_json", "orbits.to_json"),
    ("orbits", "ReflectionTable", "to_dot", "orbits.to_dot"),
    ("rootdata", "SphericalDatum", "__post_init__", "rootdata.spherical_datum"),
    ("lattice", "IntegerMatrix", "rank", "lattice.rank"),
)
SELF_TIMES = (
    "cli", "patterns.enumerate_patterns", "patterns.build_table", "patterns.sylvester_classes",
    "orbits.check_braid", "orbits.init", "orbits.subgroup_orbits",
    "orbits.real_group_orbit_classes", "orbits.to_json", "orbits.to_dot", "catalog.build",
    "rootdata.spherical_datum", "lattice.rank", "lattice.smith_normal_form",
    "lattice.elementary_divisors",
)
CALL_COUNTS = ("patterns.enumerate_patterns", "orbits.init", "lattice.smith_normal_form")
EDGE_TYPES = ("P", "U", "T0", "T1", "T2", "N0", "N1", "N2", "T", "N")


class Library:
    """The ``borelorbits`` modules of this checkout, imported into this process."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        import borelorbits.cli

        if not Path(borelorbits.cli.__file__).resolve().is_relative_to(SRC):
            raise CheckoutError(f"borelorbits was imported from {borelorbits.cli.__file__}")
        self.cli = borelorbits.cli
        self.modules = {
            name.partition(".")[2] or name: module
            for name, module in sys.modules.items()
            if name == "borelorbits" or name.startswith("borelorbits.")
        }
        # Memoized builders and module-level memo dicts: emptied before each
        # command so that an in-process command repeats a fresh process's work.
        self._caches = []
        for module in self.modules.values():
            for name, value in vars(module).items():
                if callable(getattr(value, "cache_clear", None)):
                    self._caches.append(value.cache_clear)
                elif name.endswith("_CACHE") and isinstance(value, dict):
                    self._caches.append(value.clear)

    def clear_caches(self) -> None:
        for clear in self._caches:
            clear()

    @contextlib.contextmanager
    def patched(self, wrap):
        """Replace every listed callable by ``wrap(span_name, original)`` for the block."""
        undo = []
        try:
            for module, attribute, span in FUNCTIONS:
                original = getattr(self.modules[module], attribute)
                wrapper = wrap(span, original)
                for owner in self.modules.values():
                    for name, value in list(vars(owner).items()):
                        if value is original:
                            setattr(owner, name, wrapper)
                            undo.append((owner, name, original))
            for module, cls_name, method, span in METHODS:
                cls = getattr(self.modules[module], cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, wrap(span, original))
                undo.append((cls, method, original))
            yield
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def run(self, argv, main=None) -> tuple[int, str, str, float]:
        """One in-process command: (exit status, stdout, stderr, seconds)."""
        self.clear_caches()
        out, err = io.StringIO(), io.StringIO()
        main = main or self.cli.main
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code if isinstance(exc.code, int) else 1
            seconds = time.perf_counter() - start
        return code, out.getvalue(), err.getvalue(), seconds


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, command index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: list[tuple] = []  # (span name, args, kwargs, result) of the current command
        self.command = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.command]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self.calls.append((name, args, kwargs, result))
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name] += end - start - child
        return totals

    def count_work(self, counts: dict[str, float], builds: dict) -> None:
        """Add the current command's work counts and ``build_table`` arguments.

        Runs after the command, outside every span.
        """
        tables = {}
        for name, args, kwargs, result in self.calls:
            counts[name + ".calls"] += 1
            if name == "patterns.build_table":
                builds[repr((args, kwargs))] = (len(result.orbits), args, kwargs)
                tables[id(result)] = result
                counts["patterns.orbits"] += len(result.orbits)
            elif name == "orbits.init":
                tables[id(args[0])] = args[0]
            elif name == "orbits.check_braid":
                table = args[0]
                restrict = kwargs.get("restrict_to", args[1] if len(args) > 1 else None)
                domain = len(set(restrict)) if restrict is not None else len(table.orbits)
                counts["orbits.braid_pairs"] += len(result.pairs)
                counts["orbits.braid_point_steps"] += domain * sum(p.exponent for p in result.pairs)
            elif name == "lattice.smith_normal_form":
                bits = max(ref.max_bits(result.u.entries), ref.max_bits(result.v.entries))
                counts["lattice.max_transform_bits"] = max(counts["lattice.max_transform_bits"], bits)
        for table in tables.values():
            for by_type in table.type_census().counts.values():
                for edge, number in by_type.items():
                    counts[f"orbits.spans.{edge.value}"] += number
            counts["orbits.moved_points"] += sum(
                2 * len(span.moves()) for spans in table.spans.values() for span in spans
            )
        self.calls = []


def paired_pass(library: Library, commands, judge: Judge, spans_out: list, builds: dict,
                untraced_first: bool) -> dict[str, float]:
    """Run every command once untraced and once traced, back to back.

    The order within each pair alternates from command to command, so that
    warm-up in this process favours neither side of ``trace.overhead_s``.
    """
    tracer = Tracer()
    counts: dict[str, float] = defaultdict(float)
    main = tracer.wrap("cli", library.cli.main)
    traced_wall = untraced_wall = stdout_bytes = 0.0
    for index, command in enumerate(commands):
        order = (False, True) if (index % 2 == 0) == untraced_first else (True, False)
        for traced in order:
            if traced:
                tracer.command = index
                with library.patched(tracer.wrap):
                    code, out, err, seconds = library.run(command.argv, main)
                traced_wall += seconds
                stdout_bytes += len(out.encode())
                tracer.count_work(counts, builds)
            else:
                code, out, err, seconds = library.run(command.argv)
                untraced_wall += seconds
            judge(command, code, out, err)
    spans_out.append([
        {"name": n, "start": s, "end": e, "parent": p, "command": commands[c].label}
        for n, s, e, p, c in tracer.spans
    ])
    metrics = {"trace.wall_s": traced_wall, "trace.overhead_s": traced_wall - untraced_wall,
               "cli.stdout_bytes": stdout_bytes, **counts}
    for name, seconds in tracer.self_times().items():
        metrics[name + ".self_s"] = seconds
    return metrics


def build_peak_mb(library: Library, builds) -> float:
    """tracemalloc peak of the largest ``build_table`` call a traced pass made, in MB.

    The call with the most orbits is repeated on empty caches with
    tracemalloc on for that call only; tracemalloc slows it about tenfold,
    which is why smaller builds are not repeated.
    """
    if not builds:
        return 0.0
    _, args, kwargs = max(builds, key=lambda build: build[0])
    library.clear_caches()
    tracemalloc.start()
    try:
        library.modules["patterns"].build_table(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        library.clear_caches()
    return peak / 2**20


UNITS = {"self_s": "s", "calls": "count", "peak_mb": "MB", "import_s": "s",
         "stdout_bytes": "bytes", "max_transform_bits": "bits", "overhead_s": "s",
         "accounted_share": "ratio"}


def measure(commands, seconds: float, env, out_dir: Path, info: dict):
    """Per-layer metrics: import probes, one subprocess pass, then traced rounds.

    A round runs every command untraced and traced (see :func:`paired_pass`).
    Rounds repeat while ``seconds`` allow (at least one) and the metrics are
    medians over rounds.  After the first round, the ``build_table`` calls it
    saw are repeated under tracemalloc.  ``trace.overhead_s`` is traced minus
    untraced in-process wall time; ``trace.accounted_share`` is the sum of all
    self times plus one process start (``setup_s``) per command, over the
    subprocess ``wall_s``.
    """
    start = time.perf_counter()
    judge = Judge()
    import_s = statistics.median(locate_module(env) for _ in range(IMPORT_PROBES))
    setup_s = statistics.median(setup_probe(env, out_dir) for _ in range(SETUP_PROBES_FIRST))
    times, _ = subprocess_pass(commands, env, out_dir, judge)
    wall_s = sum(times)

    library = Library()
    rounds, spans, log, builds = [], [], [], {}
    peak_mb = None
    while True:
        round_start = time.perf_counter()
        metrics = paired_pass(library, commands, judge, spans, builds, len(rounds) % 2 == 0)
        self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        metrics["trace.accounted_share"] = (self_sum + len(commands) * setup_s) / wall_s
        rounds.append(metrics)
        log.append(f"round {len(rounds)}: traced {metrics['trace.wall_s']:.3f} s in-process, "
                   f"overhead {metrics['trace.overhead_s']:+.3f} s")
        round_s = time.perf_counter() - round_start
        if peak_mb is None:
            peak_mb = build_peak_mb(library, list(builds.values()))
        if time.perf_counter() - start + round_s > seconds:
            break

    names = (
        [f"{layer}.self_s" for layer in SELF_TIMES]
        + [f"{layer}.calls" for layer in CALL_COUNTS]
        + ["patterns.orbits", "orbits.braid_pairs", "orbits.braid_point_steps"]
        + [f"orbits.spans.{edge}" for edge in EDGE_TYPES]
        + ["orbits.moved_points", "lattice.max_transform_bits", "cli.stdout_bytes",
           "trace.overhead_s", "trace.accounted_share"]
    )
    metrics = {"cli.import_s": (import_s, "s"), "patterns.build_table.peak_mb": (peak_mb, "MB")}
    for name in names:
        value = statistics.median(r.get(name, 0.0) for r in rounds)
        unit = UNITS.get(name.rpartition(".")[2], "count")
        metrics[name] = (value, unit)
    log.append(f"subprocess pass {wall_s:.3f} s, setup_s {setup_s:.4f} s")
    (out_dir / "spans.json").write_text(json.dumps({"info": info, "passes": spans}))
    log.append(f"spans of {len(spans)} traced passes written to {out_dir / 'spans.json'}")
    return metrics, judge, log
