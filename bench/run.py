"""End-to-end benchmark of the ``borelorbits`` command line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload quadratic --seed 1 --seconds 40 --trace 0

Each workload (``quadratic``, ``catalog``, ``lattice``, or ``all``) is a
closed loop with one client: its command list runs as
``python -m borelorbits.cli ...`` subprocesses one after another, each
waiting for the previous, as a user or script waiting for each verdict
would.  ``PYTHONPATH`` points at this checkout's ``src``, and the imported
module must come from there.  Passes repeat until ``--seconds`` of
measurement are used.  Every output is checked against references the
benchmark computes itself (see ``workloads.py``).

With ``--trace 0`` the result holds the end-to-end metrics:

* ``wall_s``: seconds for one pass of the command list (the sum of each
  command's median over passes);
* ``peak_rss_mb``: the largest peak RSS of any command in a pass, taken from
  ``os.wait4`` on each child (median over passes);
* ``setup_s``: wall time of a trivial invocation, ``count-open --divisors 1``
  (interpreter start, import and argument parsing; median of several);
* ``pass_ratio``: commands that gave their expected status and a correct
  output, out of commands attempted.  Its complement, the fail ratio, is
  printed in the summary and as ``failed``/``attempted`` in the result.

With ``--trace 1`` the same commands also run in-process with spans around
each layer's public callables, and the result holds per-layer metrics (see
``tracing.py``).  The last line of standard output is the result as JSON;
the lines before it are a human-readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import workloads as wl
from harness import (
    ROOT, SETUP_PROBES_FIRST, SETUP_PROBES_PER_PASS, SRC, WORK, CheckoutError, Judge,
    child_env, locate_module, setup_probe, subprocess_pass,
)


def measure(commands, seconds: float, env, out_dir: Path) -> tuple[dict, Judge, list[str]]:
    """Closed-loop passes until ``seconds`` of measurement are used (at least one)."""
    judge = Judge()
    setup = [setup_probe(env, out_dir) for _ in range(SETUP_PROBES_FIRST)]
    used = sum(setup)
    walls, peaks, per_command, log = [], [], [], []
    while True:
        times, peak = subprocess_pass(commands, env, out_dir, judge)
        walls.append(sum(times))
        peaks.append(peak)
        per_command.append(times)
        setup += [setup_probe(env, out_dir) for _ in range(SETUP_PROBES_PER_PASS)]
        used += sum(times) + sum(setup[-SETUP_PROBES_PER_PASS:])
        log.append(f"pass {len(walls)}: {walls[-1]:.3f} s, peak RSS {peak:.1f} MB")
        if used + walls[-1] > seconds:
            break
    metrics = {
        # Each command's median over passes, summed: one slow command in one
        # pass does not move the pass estimate.
        "wall_s": (sum(statistics.median(column) for column in zip(*per_command)), "s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "pass_ratio": ((judge.attempted - judge.failed) / judge.attempted, "ratio"),
    }
    return metrics, judge, log


def run_info(workload: str, seed: int, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "borelorbits").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
    }


def _commit() -> str:
    """HEAD of the checkout's git directory, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = child_env()
    locate_module(env)
    out_dir = WORK / f"{workload}-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    commands = wl.commands_for(workload, seed, out_dir)
    info = run_info(workload, seed, trace)
    print("# " + json.dumps(info), flush=True)
    if trace:
        import tracing

        metrics, judge, log = tracing.measure(commands, seconds, env, out_dir, info)
    else:
        metrics, judge, log = measure(commands, seconds, env, out_dir)
    for line in log:
        print(f"# {line}")
    for label, reason in sorted(judge.failures.items()):
        print(f"# FAILED {label}: {reason}")
    if not trace:
        print(f"# fail_ratio = {judge.failed / judge.attempted:.4f} ratio "
              f"({judge.failed} of {judge.attempted} commands)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    return {
        "correct": judge.wrong == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*wl.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "borelorbits").is_dir():
        print(f"error: no borelorbits sources under {SRC}", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
