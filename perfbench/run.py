"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the same checkout; nothing is
installed.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The line before it is the full report, which is also written, with the
spans of a traced run, under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One process, one thread: keep numerical libraries from starting pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def commit_of(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, to name the code measured."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import networkx
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit_of(ROOT),
        "source_sha256": source_digest(SRC),
        "seed": seed,
    }


def as_json(metrics: dict[str, tuple[float, str]]) -> dict:
    return {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "galloc" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    # Import the package from this checkout only, never from elsewhere.
    sys.path[:1] = [str(SRC), str(ROOT)]
    import galloc

    if Path(galloc.__file__).resolve().parent != (SRC / "galloc").resolve():
        print(f"perfbench: galloc imported from {galloc.__file__}", file=sys.stderr)
        return 2

    from perfbench.harness import measure
    from perfbench.tracing import REPORT_ONLY
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        plan = WORKLOADS[args.workload].build(args.seed, workdir)
        outcome = measure(plan, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = outcome.failed == 0 and not outcome.problems
    if args.trace:
        shown = {k: v for k, v in outcome.layers.items() if k not in REPORT_ONLY}
    else:
        shown = outcome.metrics
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "notes": outcome.notes,
        "metrics": as_json(outcome.metrics),
        "commands": as_json(outcome.commands),
        "layers": as_json(outcome.layers),
        "passes": outcome.passes,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if outcome.spans:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for span in outcome.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": as_json(shown) if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
