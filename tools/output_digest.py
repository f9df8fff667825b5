"""One SHA-256 over the output of galloc commands, to show a change keeps every byte.

Each command runs in-process through ``galloc.cli.main``, in a scratch
directory that holds its instance, assignment and cost files under
fixed relative names, and its argv, exit code, stdout and stderr are
hashed in order.  ``bench`` prints wall-clock timings, so their values
are blanked before hashing; its other fields stay.

The corpus covers every subcommand on the benchmark's builders (Latin
40, random complete 64, Latin 16 cap 2 quota 4), rings(k, 8) for
k = 1, 4, 12 and 48, the test suite's poset corpus, and oracle_corpus(1)
with ``--verify`` on each checking command; then ``gen`` on each family,
the ring, and a few refusals and usage errors.

Run it from the repository root on two checkouts and compare the lines:

    PYTHONPATH=src:. python tools/output_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from collections import Counter
from collections.abc import Sequence
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(argv: list[str]) -> tuple[int, str, str]:
    from galloc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # usage errors
            code = exc.code
    stdout = out.getvalue()
    if argv[0] == "bench" and code == 0:
        doc = json.loads(stdout)
        doc["timings"] = dict.fromkeys(doc["timings"])
        stdout = json.dumps(doc, sort_keys=True)
    return code, stdout, err.getvalue()


def _write(name: str, doc) -> str:
    Path(name).write_text(json.dumps(doc))
    return name


def instance_commands(name: str, doc: dict, verify: bool) -> list[list[str]]:
    """Every subcommand but ``gen`` on one instance document.

    The assignment files hold the minimum that capacity reduction finds,
    and the cost file seeded integers in [-5, 5].
    """
    import numpy as np

    from galloc import instance_from_dict, xmin_by_capacity_reduction
    from perfbench.corpus import cost_vector

    inst = instance_from_dict(doc)
    p = _write(f"{name}.json", doc)
    x = _write(f"{name}-min.json", xmin_by_capacity_reduction(inst).assignment.to_mapping(inst))
    costs = _write(
        f"{name}-costs.json", cost_vector(doc, np.random.Generator(np.random.PCG64(7)))
    )
    commands = [
        ["solve", p],
        ["solve", p, "--mode", "max"],
        ["route", p],
        ["route", p, "--seed", "1"],
        ["rotations", p, x],
        ["rotations", p, x, "--dot"],
        ["check", p, x],
        ["poset", p],
        ["poset", p, "--general"],
        ["poset", p, "--general", "--dot"],
        ["mincost", p, costs],
        ["bench", p],
        ["brute", p],
    ]
    if verify:
        commands += [
            ["solve", p, "--verify"],
            ["solve", p, "--mode", "max", "--verify"],
            ["route", p, "--verify"],
            ["poset", p, "--verify"],
            ["poset", p, "--general", "--verify"],
        ]
    return commands


WITHOUT_FILES = [
    *(["gen", "--seed", str(s), "--family", f]
      for s in range(3) for f in ("linear", "tableau", "mixed", "tableau-a3")),
    ["gen", "--seed", "4", "--workers", "6", "--firms", "5", "--capacity-bound", "3"],
    ["gen", "--seed", "5", "--gapless-cap", "2"],
    ["gen", "--appendix", "6"],
    ["gen"],
    ["gen", "--seed", "1", "--workers", "0"],
    ["gen", "--appendix", "3"],
    ["poset"],
]


def corpus() -> list[tuple[str, dict, bool]]:
    """(name, document, verify) for every instance of the full corpus."""
    sys.path.insert(0, str(ROOT / "tests"))
    from builders import poset_corpus
    from perfbench.corpus import latin, oracle_corpus, random_complete, rings
    from perfbench.workloads import DRAW

    out = [
        ("latin40", latin(40).doc, False),
        ("random64", random_complete(64, draw=DRAW).doc, False),
        ("latin16c2q4", latin(16, 2, 4).doc, False),
    ]
    out += [(f"rings{k}", rings(k, 8).doc, False) for k in (1, 4, 12, 48)]
    out += [(f"poset{i}", inst.to_dict(), False) for i, inst in enumerate(poset_corpus())]
    out += [(f"oracle{i}", b.doc, True) for i, b in enumerate(oracle_corpus(1))]
    return out


def digest(
    instances: Sequence[tuple[str, dict, bool]], extra: Sequence[list[str]] = ()
) -> tuple[str, Counter]:
    """The SHA-256 over every command on ``instances``, then ``extra``,
    and how many commands returned each exit code."""
    h = hashlib.sha256()
    codes: Counter = Counter()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, doc, verify in instances:
                for argv in instance_commands(name, doc, verify):
                    h.update(_record(argv, codes))
            for argv in extra:
                h.update(_record(argv, codes))
        finally:
            os.chdir(here)
    return h.hexdigest(), codes


def _record(argv: list[str], codes: Counter) -> bytes:
    code, out, err = _run(argv)
    codes[code] += 1
    return json.dumps([argv, code, out, err]).encode() + b"\n"


def main() -> int:
    value, codes = digest(corpus(), WITHOUT_FILES)
    tally = ", ".join(f"{n} exit {code}" for code, n in sorted(codes.items()))
    print(f"{value}  {sum(codes.values())} commands: {tally}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
