"""Timed and traced runs of one workload, and the result they print.

A timed run (``--trace 0``) first measures ``setup_s`` from fresh
interpreters, then runs back-to-back in-process passes until the run's time
is used up, with two rounds of ``zamen`` subprocesses (``cli_s``) among them.  A traced run
(``--trace 1``) alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.PER_LAYER``.  Both check every output against
the reference values; a failed check or a raised exception is a failed
operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np
import scipy

from . import tracing, workloads

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The machine's speed drifts by tens of percent over tens of seconds, so each
# timed sample is scaled by the speed measured right around it: a sample
# taken while the reference work needs REFERENCE_S is reported as measured.
REFERENCE_S = 0.2
SETUP_REPEATS = 5
MIN_PASSES = 3
CLI_ROUNDS = 2
PASSES_PER_CLI_ROUND = 3
CLI_TIMEOUT_S = 170

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("pass_s", "s"),
    ("cli_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


@dataclass
class Result:
    workload: str
    seed: int
    trace: int
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    notes: dict = field(default_factory=dict)

    def count(self, outcomes: list[workloads.Outcome]) -> None:
        self.attempted += len(outcomes)
        for outcome in outcomes:
            if outcome.problems:
                self.failed += 1
                self.problems += outcome.problems

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in self.metrics.items()},
            }
        )


def environment(seed: int) -> dict:
    config = np.show_config(mode="dicts")
    deps = config.get("Build Dependencies", {})
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")} for k in deps},
        "machine": config.get("Machine Information"),
        "simd": config.get("SIMD Extensions"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_pins": {v: os.environ.get(v) for v in THREAD_PINS},
        "seed": seed,
    }


def reference_time() -> float:
    """Time of a fixed mix of interpreter (dict lookups on bytes keys) and BLAS work."""
    keys = [i.to_bytes(8, "little") * 4 for i in range(5000)]
    matrix = np.random.default_rng(0).standard_normal((300, 300))
    start = perf_counter()
    index = {k: i for i, k in enumerate(keys)}
    total = 0
    for _ in range(300):
        for k in keys:
            total += index[k]
    for _ in range(100):
        matrix @ matrix
    return perf_counter() - start


class SpeedScale:
    """Factors that scale timed samples to the speed at which the reference work takes REFERENCE_S."""

    def __init__(self) -> None:
        self.reference = [reference_time()]

    def factor(self) -> float:
        """The factor for the sample that ended just now, from the reference times on both sides of it."""
        self.reference.append(reference_time())
        return REFERENCE_S / statistics.mean(self.reference[-2:])


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest percentile with at least 10 samples above it, and its rank.

    With 10 samples or fewer no percentile has 10 above it; the largest
    sample is returned and its rank says so.
    """
    ordered = sorted(samples)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], rank


def setup_time(root: Path, workload: str, seed: int) -> float:
    """Fresh interpreter until ready: imports zamen and builds the documents."""
    command = [sys.executable, str(root / "perfbench" / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    start = perf_counter()
    with subprocess.Popen(command, cwd=root, stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline()
        elapsed = perf_counter() - start
        child.communicate(timeout=CLI_TIMEOUT_S)
    if ready.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {child.returncode} before it was ready")
    return elapsed


def _cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_cli(workload: workloads.Workload, work: Path, root: Path) -> tuple[float, list[workloads.Outcome]]:
    """Wall time of the workload's commands as sequential zamen subprocesses, cold cache."""
    commands = workloads.cli_commands(workload, work / "specs", work / "cache")
    env, total, outcomes = _cli_env(root), 0.0, []
    for argv, check in commands:
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "zamen.cli", *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        total += perf_counter() - start
        try:
            problems = check(done.returncode, done.stdout)
        except (ValueError, KeyError, IndexError) as exc:
            problems = [f"zamen {argv[0]} {argv[1]}: unreadable output ({exc}); stderr {done.stderr[-300:]!r}"]
        outcomes.append(workloads.Outcome(" ".join(argv[:2]), problems))
    return total, outcomes


def cli_in_process(workload: workloads.Workload, work: Path, mark: Callable[[str], None]) -> list[workloads.Outcome]:
    """The same commands through ``zamen.cli.main``, for the traced run."""
    from zamen import cli

    outcomes = []
    for argv, check in workloads.cli_commands(workload, work / "cli-specs", work / "cli-cache"):
        name = " ".join(argv[:2])
        mark(name)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        outcomes.append(workloads.Outcome(name, check(code, out.getvalue())))
    return outcomes


def timed_pass(workload: workloads.Workload, cache_dir: Path, mark=None) -> tuple[float, list[workloads.Outcome]]:
    start = perf_counter()
    outcomes = workloads.run_pass(workload, cache_dir, mark)
    elapsed = perf_counter() - start
    shutil.rmtree(cache_dir, ignore_errors=True)
    return elapsed, outcomes


def timed_run(
    build: Callable[[], workloads.Workload], seed: int, seconds: float, root: Path, work: Path,
    setup_repeats: int = SETUP_REPEATS,
) -> Result:
    deadline = perf_counter() + seconds
    workload = build()
    result = Result(workload.name, seed, 0)
    speed = SpeedScale()
    raw = {"setup": [setup_time(root, workload.name, seed) for _ in range(setup_repeats)], "cli": [], "pass": []}
    factor = speed.factor()
    scaled = {"setup": [t * factor for t in raw["setup"]], "cli": [], "pass": []}

    # CLI rounds are spread over the run, so that both they and the passes
    # sample the machine's speed across the whole run.
    while True:
        if len(raw["cli"]) < CLI_ROUNDS and len(raw["pass"]) >= PASSES_PER_CLI_ROUND * len(raw["cli"]):
            kind, (elapsed, outcomes) = "cli", run_cli(workload, work / f"cli-{len(raw['cli'])}", root)
        elif len(raw["pass"]) < MIN_PASSES or (
            perf_counter() + statistics.median(raw["pass"]) + speed.reference[-1] <= deadline
        ):
            kind, (elapsed, outcomes) = "pass", timed_pass(workload, work / f"cache-{len(raw['pass'])}")
            rows = sum(o.rows for o in outcomes)
            unconverged = sum(o.unconverged for o in outcomes)
        else:
            break
        raw[kind].append(elapsed)
        scaled[kind].append(elapsed * speed.factor())
        result.count(outcomes)

    tail_s, rank = tail(scaled["pass"])
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = dict(
        pass_s=statistics.median(scaled["pass"]), cli_s=statistics.median(scaled["cli"]),
        setup_s=statistics.median(scaled["setup"]), peak_rss_mib=peak_mib,
    )
    result.metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    result.notes = {
        "passes": len(raw["pass"]), "pass_tail_s": tail_s, "pass_tail_rank": rank,
        "raw_samples_s": raw, "scaled_samples_s": scaled,
        "reference_s": speed.reference, "quadrature_rows": rows, "unconverged_rows": unconverged,
    }
    return result


def traced_run(build: Callable[[], workloads.Workload], seed: int, seconds: float, root: Path, work: Path) -> Result:
    deadline = perf_counter() + seconds
    tracer = tracing.Tracer()

    def mark(phase: str) -> Callable[[str], None]:
        def set_item(name: str) -> None:
            tracer.item = f"{phase}/{name}"
        return set_item

    mark("setup")("build")
    with tracer.installed():
        workload = build()
    result = Result(workload.name, seed, 1)
    with tracer.installed():
        result.count(cli_in_process(workload, work, mark("cli")))

    traced: list[float] = []
    untraced: list[float] = []
    while not traced or perf_counter() + statistics.median(traced) + statistics.median(untraced) <= deadline:
        elapsed, outcomes = timed_pass(workload, work / f"cache-u{len(untraced)}")
        untraced.append(elapsed)
        result.count(outcomes)
        with tracer.installed():
            elapsed, outcomes = timed_pass(workload, work / f"cache-t{len(traced)}", mark(f"pass{len(traced)}"))
        traced.append(elapsed)
        result.count(outcomes)

    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    result.metrics = {name: (v, units[name]) for name, v in tracing.per_layer(tracer, traced, untraced).items()}
    result.notes = {"traced_samples_s": traced, "untraced_samples_s": untraced, "spans": len(tracer.spans)}
    tracer.write(work.parent / f"{workload.name}-seed{seed}-spans.json")
    return result


def report(result: Result) -> str:
    """Human-readable lines that precede the JSON result line."""
    lines = [f"workload {result.workload}, seed {result.seed}, trace {result.trace}"]
    notes = result.notes
    for name, (value, unit) in result.metrics.items():
        extra = ""
        kind = {"pass_s": "pass", "cli_s": "cli", "setup_s": "setup"}.get(name)
        if kind:
            samples = notes["raw_samples_s"][kind]
            extra = f"  (median of {len(samples)}; unscaled wall-time median {statistics.median(samples):.6g} s)"
        lines.append(f"{name:40s} {value:.6g} {unit}{extra}")
    if "pass_tail_s" in notes:
        rank, passes = notes["pass_tail_rank"], notes["passes"]
        lines.insert(2, f"{'pass_tail_s':40s} {notes['pass_tail_s']:.6g} s  (rank {rank} of {passes}; not gated)")
    ratio = result.failed / result.attempted if result.attempted else 0.0
    lines.append(f"{'fail_ratio':40s} {ratio:.6g} ratio  ({result.failed} failed of {result.attempted} operations)")
    if notes.get("quadrature_rows"):
        lines.append(f"unconverged quadrature rows per pass: {notes['unconverged_rows']} of {notes['quadrature_rows']}")
    return "\n".join(lines)


def main(workload: str, seed: int, seconds: float, trace: int, root: Path) -> int:
    # One CPU for the run and every process it starts, so that the reference
    # timings measure the CPU that the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out = root / "perfbench" / "out"
    work = out / f"work-{workload}-{seed}-{trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if trace else timed_run
        result = run(lambda: workloads.build(workload, seed), seed, seconds, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ratio = result.failed / result.attempted
    record = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "environment": environment(seed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in result.metrics.items()},
        "attempted": result.attempted, "failed": result.failed, "fail_ratio": ratio,
        "failures": result.problems, **result.notes,
    }
    (out / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    for problem in result.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(report(result))
    print(result.line(), flush=True)
    return 0
