"""Running the CLI in child processes and judging what it prints."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_PROBES_FIRST = 5
SETUP_PROBES_PER_PASS = 5


class CheckoutError(RuntimeError):
    """The checkout has no ``borelorbits`` sources to measure."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One fixed hash seed gives every run the same set and dict layouts, which
    # move command times by several percent; the default digit limit must
    # stay in force.
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def locate_module(env: dict[str, str]) -> float:
    """Import ``borelorbits.cli`` in a fresh child; return the import time.

    Raises :class:`CheckoutError` unless the module comes from this
    checkout's ``src``.
    """
    code = (
        "import time\n"
        "start = time.perf_counter()\n"
        "import borelorbits.cli as cli\n"
        "print(time.perf_counter() - start)\n"
        "print(cli.__file__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise CheckoutError(f"cannot import borelorbits.cli from {SRC}: {proc.stderr.strip()}")
    seconds, module_file = proc.stdout.split("\n", 1)
    if not Path(module_file.strip()).resolve().is_relative_to(SRC):
        raise CheckoutError(f"borelorbits.cli was imported from {module_file.strip()}, not {SRC}")
    return float(seconds)


def run_child(argv, out_path: Path, err_path: Path, env) -> tuple[float, float, int]:
    """Run one CLI command; return (wall seconds, peak RSS in MB, exit status)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "borelorbits.cli", *argv],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024, proc.returncode


class Judge:
    """Checks outputs, remembering verdicts: equal output means an equal verdict."""

    def __init__(self) -> None:
        self._verdicts: dict[tuple, wl.Verdict] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: dict[str, str] = {}

    def __call__(self, command: wl.Command, exit_code: int, out: str, err: str) -> wl.Verdict:
        key = (
            command.argv, exit_code,
            hashlib.sha256(out.encode()).digest(), hashlib.sha256(err.encode()).digest(),
        )
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = wl.judge(command, exit_code, out, err)
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            self.wrong += verdict.wrong
            self.failures[command.label] = verdict.reason
        return verdict


def subprocess_pass(commands, env, out_dir: Path, judge: Judge) -> tuple[list[float], float]:
    """One closed-loop pass; return per-command seconds and the pass's peak RSS."""
    times, peak = [], 0.0
    for index, command in enumerate(commands):
        out_path, err_path = out_dir / f"{index:02d}.out", out_dir / f"{index:02d}.err"
        seconds, rss_mb, code = run_child(command.argv, out_path, err_path, env)
        judge(command, code, out_path.read_text("utf-8"), err_path.read_text("utf-8"))
        times.append(seconds)
        peak = max(peak, rss_mb)
    return times, peak


def setup_probe(env, out_dir: Path) -> float:
    command = wl.SETUP_COMMAND
    out_path, err_path = out_dir / "setup.out", out_dir / "setup.err"
    seconds, _, code = run_child(command.argv, out_path, err_path, env)
    verdict = wl.judge(command, code, out_path.read_text("utf-8"), err_path.read_text("utf-8"))
    if not verdict.ok:
        raise RuntimeError(f"set-up command {command.label!r} failed: {verdict.reason}")
    return seconds
