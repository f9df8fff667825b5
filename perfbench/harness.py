"""Runs a workload's jobs through ``galloc.cli.main`` and times them.

Everything runs in this one process and thread.  A pass runs every job
of the workload once, in order.  The first pass checks every answer and
records nothing; each later pass must print exactly what the checked
pass printed.

The host's single-thread speed switches between levels up to 2x apart,
each held for seconds to minutes, so raw times of the same code spread
by 10-30% between runs.  During the timed passes a timer signal
therefore runs a tiny pure-Python reference kernel every 20 ms, also in
the middle of a job, and each job's time (less the kernel's own time)
is also expressed in units of the kernel times sampled while it ran.
The pass total in these units, ``total_ref``, is the gated end-to-end
time.  ``setup_s`` is measured the same way and scaled back to seconds
at a fixed kernel time, ``NOMINAL_REF_S``.  Raw seconds and per-command
times are reported beside them.
"""

from __future__ import annotations

import gc
import io
import signal
import statistics
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from galloc import cli
from galloc import model
from galloc.choice import total_choice_calls

from .tracing import Tracer, install, layer_metrics, uninstall
from .workloads import Job, Mismatch, Plan, Result

KINDS = ("solve_min", "solve_max", "route", "poset", "mincost", "brute", "rotations", "check")
END_TO_END = ("total_ref", "setup_s", "oracle_calls")

SETUP_EVERY_S = 1.0
# ``setup_s`` is reported in seconds at this reference-kernel time, the
# kernel's time at the faster speed level of the host it was tuned on.
NOMINAL_REF_S = 0.0005


def run_job(job: Job, tracer: Tracer | None = None) -> tuple[Result, float, int]:
    """One CLI command: its result, its time and its oracle calls.

    ``galloc.cli.load_instance`` is wrapped for the call so that the
    instance the command builds can be asked for its memo misses.
    """
    out, err = io.StringIO(), io.StringIO()
    loaded = []
    real = cli.load_instance

    def keep(path):
        inst = real(path)
        loaded.append(inst)
        return inst

    cli.load_instance = keep
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            span = tracer.open("cli") if tracer is not None else None
            try:
                code = cli.main(list(job.argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is a failed job, not a failed run
                traceback.print_exc()
                code = -1
            finally:
                if span is not None:
                    tracer.close(span)
            took = time.perf_counter() - start
    finally:
        cli.load_instance = real
    calls = sum(total_choice_calls(inst) for inst in loaded)
    return Result(code, out.getvalue(), err.getvalue()), took, calls


def judge(job: Job, res: Result, done: dict[str, Result]) -> str | None:
    """Why a job's result is wrong, or None."""
    if res.code != job.code:
        return f"exit {res.code}, expected {job.code}: {res.err.strip()[-300:]}"
    try:
        job.check(res, done)
    except Mismatch as exc:
        return str(exc)
    except Exception as exc:  # unreadable output, or a reference that broke
        return f"check raised {exc!r}"
    return None


def load_all(files: list[str]) -> float:
    start = time.perf_counter()
    for f in files:
        model.load_instance(f)
    return time.perf_counter() - start


def reference_kernel() -> float:
    """Time a fixed pure-Python loop of tuple building and dict lookups.

    It touches nothing of the package, so a change to galloc cannot
    change it; only the speed of the host can.
    """
    start = time.perf_counter()
    memo: dict[tuple[int, int], tuple[int, ...]] = {}
    t = (0,) * 12
    for i in range(100):
        key = (i % 97, i % 13)
        v = memo.get(key)
        if v is None:
            v = tuple(x + i for x in t)
            memo[key] = v
        t = tuple(min(a, 5) for a in v)
    return time.perf_counter() - start


class Meter:
    """Samples the host's speed from a timer signal, also inside jobs.

    Every ``every_s`` of wall time the handler times the reference
    kernel with the collector held off, keeps the sample, and adds the
    time it took to ``spent`` so that it can be taken out of the job
    it interrupted.
    """

    def __init__(self, every_s: float = 0.02) -> None:
        self.every_s = every_s
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(reference_kernel())
        finally:
            if enabled:
                gc.enable()
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        self._tick(signal.SIGALRM, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def net(self, mark: tuple[int, float], took: float) -> tuple[float, float]:
        """Seconds less the meter's own time since ``mark``, and in kernel units.

        The unit is the mean of the samples taken since ``mark`` and of
        the last one before it.
        """
        first, spent = mark
        took -= self.spent - spent
        return took, took / statistics.mean(self.samples[first - 1:])


@dataclass
class Pass:
    """One pass over a workload's jobs.

    ``times`` are seconds inside ``main`` less the meter's own time;
    ``refs`` are the same times in reference-kernel units.
    """

    times: dict[str, float] = field(default_factory=dict)
    refs: dict[str, float] = field(default_factory=dict)
    oracle_calls: int = 0
    results: dict[str, Result] = field(default_factory=dict)
    wall: float = 0.0


def run_pass(plan: Plan, meter: Meter | None = None, tracer: Tracer | None = None,
             setups: list[tuple[float, float]] | None = None) -> Pass:
    """Run every job once; with a meter, also in reference units.

    With ``setups``, every instance file is also loaded once between
    jobs whenever ``SETUP_EVERY_S`` has passed since the last such
    sample, which is appended there as (seconds, reference units).
    """
    gc.collect()
    p = Pass()
    setup_at = start = time.perf_counter()
    for job in plan.jobs:
        mark = meter.mark() if meter is not None else None
        res, took, calls = run_job(job, tracer)
        if meter is not None:
            took, p.refs[job.name] = meter.net(mark, took)
        p.times[job.name] = took
        p.oracle_calls += calls
        p.results[job.name] = res
        if setups is not None and time.perf_counter() - setup_at >= SETUP_EVERY_S:
            mark = meter.mark()
            setups.append(meter.net(mark, load_all(plan.files)))
            setup_at = time.perf_counter()
    p.wall = time.perf_counter() - start
    return p


def checking_pass(plan: Plan) -> tuple[Pass, dict[str, str]]:
    """Run every job once, check each answer, save the answers asked for."""
    p = Pass()
    problems: dict[str, str] = {}
    for job in plan.jobs:
        res, took, calls = run_job(job)
        p.oracle_calls += calls
        problem = judge(job, res, p.results)
        p.results[job.name] = res
        if problem is not None:
            problems[job.name] = problem
        elif job.save is not None:
            Path(job.save).write_text(res.out)
    return p, problems


@dataclass
class Outcome:
    """Everything one benchmark run measured."""

    attempted: int = 0
    failed: int = 0
    problems: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    commands: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    passes: list[dict] = field(default_factory=list)
    spans: list = field(default_factory=list)


def measure(plan: Plan, seconds: float, traced: bool) -> Outcome:
    """Check, then time passes for ``seconds``, then one traced pass if asked."""
    o = Outcome(notes=plan.notes)
    first, problems = checking_pass(plan)
    o.attempted += len(plan.jobs)
    o.failed += len(problems)
    o.problems.update(problems)
    if problems:
        return o

    def compare(p: Pass, label: str) -> None:
        o.attempted += len(plan.jobs)
        for name, res in p.results.items():
            if res != first.results[name]:
                o.failed += 1
                o.problems[f"{label} {name}"] = "output differs from the checked pass"
        if p.oracle_calls != first.oracle_calls:
            o.problems[f"{label} oracle calls"] = (
                f"{p.oracle_calls} differ from {first.oracle_calls} in the checked pass"
            )

    setups: list[tuple[float, float]] = []
    timed: list[Pass] = []
    until = time.perf_counter() + seconds
    with Meter() as meter:
        # Stop once another pass would end further past the deadline than it starts before.
        while not timed or time.perf_counter() + timed[-1].wall / 2 < until:
            p = run_pass(plan, meter, setups=setups)
            compare(p, f"pass {len(timed) + 1}")
            timed.append(p)
            o.passes.append({"total_s": sum(p.times.values()), "total_ref": sum(p.refs.values())})
        if not setups:
            setups.append(meter.net(meter.mark(), load_all(plan.files)))

    def median_sum(kind: str, table: str) -> float:
        names = [j.name for j in plan.jobs if kind == "total" or j.kind == kind]
        return statistics.median(sum(getattr(p, table)[n] for n in names) for p in timed)

    o.metrics = {
        "total_ref": (median_sum("total", "refs"), "ref"),
        "setup_s": (statistics.median(ref for _, ref in setups) * NOMINAL_REF_S, "s"),
        "oracle_calls": (first.oracle_calls, "count"),
    }
    o.commands = {
        "total_s": (median_sum("total", "times"), "s"),
        "reference_s": (statistics.median(meter.samples), "s"),
        "reference_samples": (len(meter.samples), "count"),
        "setup_wall_s": (statistics.median(wall for wall, _ in setups), "s"),
        "setup_samples": (len(setups), "count"),
        "passes": (len(timed), "count"),
    }
    for kind in KINDS:
        if any(job.kind == kind for job in plan.jobs):
            o.commands[f"{kind}_s"] = (median_sum(kind, "times"), "s")
            o.commands[f"{kind}_ref"] = (median_sum(kind, "refs"), "ref")

    if traced:
        tracer = Tracer()
        replaced = install(tracer)
        try:
            p = run_pass(plan, tracer=tracer)
        finally:
            uninstall(replaced)
        compare(p, "traced pass")
        o.layers = layer_metrics(tracer, p.wall)
        o.layers["trace.overhead_s"] = (p.wall - o.commands["total_s"][0], "s")
        o.spans = tracer.spans
    return o
