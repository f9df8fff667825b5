"""Command-line front end.

Structured results go to stdout as JSON (or DOT with ``--dot``);
diagnostics go to stderr.  Exit codes: 0 on success, 1 on domain errors
such as invalid input or refused requests, 2 when an internal
consistency check failed.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import sys
import time

from .choice import choice_call_counts
from .errors import GallocError, InvariantViolation, ValidationError
from .genrand import FAMILIES, GeneratorConfig, generate, make_ring_instance
from .lattice import (
    build_full_route,
    solve_xmin_by_stages,
    xmax_by_capacity_reduction,
    xmin_by_capacity_reduction,
)
from .model import (
    CostVector,
    fraction_str,
    load_assignment,
    load_instance,
    solution_doc,
)
from .oracle import (
    DEFAULT_LIMIT,
    EnumeratedLattice,
    enumerate_stable,
    verify_lattice_properties,
)
from .poset import (
    build_poset,
    enumerate_closed_functions,
    from_closed_function,
    min_cost_stable,
    ClosedFunction,
)
from .rotation import applicable_rotations, max_feasible_weight
from .stability import PointView, check_stability


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_STR = json.encoder.encode_basestring_ascii


class _Unsupported(Exception):
    """A value ``_dumps`` leaves to ``json.dumps``."""


def _text(doc, nl: str) -> str:
    """The text of ``doc`` at the indent that ``nl`` carries."""
    kind = type(doc)
    if kind is str:
        return _STR(doc)
    if kind is int:
        return int.__repr__(doc)
    if kind is float:
        return json.dumps(doc)
    if doc is None or kind is bool:
        return "null" if doc is None else "true" if doc else "false"
    inner = nl + "  "
    if kind is list:
        if not doc:
            return "[]"
        items = [_STR(v) if type(v) is str else _text(v, inner) for v in doc]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if kind is dict:
        if not doc:
            return "{}"
        # _STR raises TypeError on a key that is not a string.
        items = [
            _STR(k) + ": " + (int.__repr__(v) if type(v) is int else _text(v, inner))
            for k, v in doc.items()
        ]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    raise _Unsupported


def _dumps(doc) -> str:
    """The text of ``json.dumps(doc, indent=2)``.

    CPython encodes through its pure-Python encoder whenever ``indent``
    is set; dicts with string keys, lists, strings, ints, floats,
    booleans and None are written here instead, and any other value goes
    to ``json.dumps``.
    """
    try:
        return _text(doc, "\n")
    except (_Unsupported, TypeError, RecursionError):
        return json.dumps(doc, indent=2)


def _emit(doc) -> None:
    sys.stdout.write(_dumps(doc) + "\n")


def _digest(inst) -> str:
    blob = json.dumps(inst.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _limit_for(args, default: int) -> int:
    if getattr(args, "limit", None) is not None:
        return args.limit
    env = os.environ.get("GALLOC_LIMIT")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValidationError("GALLOC_LIMIT must be an integer") from None
    return default


def _oracle(inst, args) -> EnumeratedLattice:
    """The brute-force stable set, under the limit the command was given."""
    return enumerate_stable(inst, _limit_for(args, DEFAULT_LIMIT))


def _dot(text: str) -> str:
    """A quoted DOT id or label."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    if args.mode == "min":
        x = xmin_by_capacity_reduction(inst).assignment
    else:
        x = xmax_by_capacity_reduction(inst).assignment
    if args.verify:
        lat = _oracle(inst, args)
        want = lat.min_element if args.mode == "min" else lat.max_element
        if want.values != x.values:
            raise InvariantViolation(
                "solver and oracle disagree on the "
                f"{args.mode}imum stable assignment"
            )
    # Capacity reduction raises unless its fixpoint is stable.
    _emit(solution_doc(inst, x))
    return 0


def _cmd_route(args) -> int:
    inst = load_instance(args.instance)
    rng = None
    if args.seed is not None:
        if args.seed < 0:
            raise ValidationError("--seed must be non-negative")
        import numpy as np  # only a seeded route draws

        rng = np.random.Generator(np.random.PCG64(args.seed))
    route = build_full_route(inst, rng=rng)
    if args.verify:
        lat = _oracle(inst, args)
        if route.start.values != lat.min_element.values or (
            route.end.values != lat.max_element.values
        ):
            raise InvariantViolation("route endpoints disagree with the oracle")
    _emit(
        {
            "start": route.start.to_mapping(inst),
            "steps": [
                {"cycle": list(s.rotation.key), "weight": s.weight}
                for s in route.steps
            ],
            "end": route.end.to_mapping(inst),
        }
    )
    return 0


def _cmd_rotations(args) -> int:
    inst = load_instance(args.instance)
    x = load_assignment(inst, args.assignment)
    view = PointView(inst, x)
    rotations = applicable_rotations(inst, x, view)
    if args.dot:
        lines = ["digraph active {"]
        for rot in rotations:
            for plus, minus in zip(rot.plus_edges, rot.minus_edges):
                f = _dot(inst.edge(plus).firm)
                w, w2 = _dot(inst.edge(plus).worker), _dot(inst.edge(minus).worker)
                lines.append(f"  {w} -> {f} [label={_dot(plus)}];")
                lines.append(f"  {f} -> {w2} [label={_dot(minus)}];")
        lines.append("}")
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    _emit(
        {
            "rotations": [
                {
                    "cycle": list(rot.key),
                    "weight": max_feasible_weight(inst, x, rot, view),
                }
                for rot in rotations
            ]
        }
    )
    return 0


def _cmd_poset(args) -> int:
    inst = load_instance(args.instance)
    poset = build_poset(inst, general=args.general)
    if args.verify:
        lat = _oracle(inst, args)
        closed = enumerate_closed_functions(poset)
        images = {
            from_closed_function(inst, poset, ClosedFunction(v)).values
            for v in closed
        }
        # Equal sizes and equal image sets: a bijection.
        if len(closed) != len(lat) or images != {el.values for el in lat.elements}:
            raise InvariantViolation(
                "closed functions and enumerated stable set disagree"
            )
    if args.dot:
        lines = ["digraph poset {"]
        for i, el in enumerate(poset.elements):
            tag = ",".join(el.key)
            if poset.mode == "general":
                tag += f"#{el.occurrence}"
            lines.append(f"  n{i} [label={_dot(f'{tag}:{el.weight}')}];")
        for a, b in poset.hasse:
            lines.append(f"  n{a} -> n{b};")
        lines.append("}")
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    _emit(poset.to_dict())
    return 0


def _cmd_mincost(args) -> int:
    inst = load_instance(args.instance)
    result = min_cost_stable(inst, CostVector.load(inst, args.costs))
    # from_closed_function raises unless the point it returns is stable.
    doc = solution_doc(inst, result.assignment)
    doc["cost"] = fraction_str(result.cost)
    _emit(doc)
    return 0


def _cmd_check(args) -> int:
    inst = load_instance(args.instance)
    x = load_assignment(inst, args.assignment)
    report = check_stability(inst, x)
    _emit(
        {
            "stable": report.stable,
            "unacceptable": list(report.unacceptable_vertices),
            "blocking": list(report.blocking),
        }
    )
    return 0


def _cmd_brute(args) -> int:
    inst = load_instance(args.instance)
    lat = _oracle(inst, args)
    report = verify_lattice_properties(lat)
    _emit(
        {
            "count": len(lat),
            "xmin": lat.min_element.to_mapping(inst),
            "xmax": lat.max_element.to_mapping(inst),
            "properties_ok": report.ok,
            "problems": list(report.problems),
        }
    )
    return 0


def _cmd_gen(args) -> int:
    if args.appendix is not None:
        inst = make_ring_instance(args.appendix)
    else:
        if args.seed is None:
            raise ValidationError("gen needs --seed (or --appendix q)")
        inst = generate(
            GeneratorConfig(
                seed=args.seed,
                workers=args.workers,
                firms=args.firms,
                density=args.density,
                capacity_bound=args.capacity_bound,
                quota_bound=args.quota_bound,
                family=args.family,
                b_cap_for_gapless=args.gapless_cap,
            )
        )
    doc = inst.to_dict()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(_dumps(doc) + "\n")
        except OSError as exc:
            raise GallocError(f"cannot write {args.output}: {exc}") from exc
    else:
        _emit(doc)
    return 0


def _cmd_bench(args) -> int:
    inst = load_instance(args.instance)
    timings = {}
    results = {}

    t0 = time.perf_counter()
    ag = xmin_by_capacity_reduction(inst)
    timings["capacity_reduction"] = time.perf_counter() - t0
    results["xmin"] = ag.assignment.to_mapping(inst)
    results["capacity_reduction_rounds"] = ag.iterations

    t0 = time.perf_counter()
    staged = solve_xmin_by_stages(inst)
    timings["stages"] = time.perf_counter() - t0
    if staged.values != ag.assignment.values:
        raise InvariantViolation("the two minimum pipelines disagree")

    t0 = time.perf_counter()
    route = build_full_route(inst, ag)
    timings["full_route"] = time.perf_counter() - t0
    results["route_length"] = len(route.steps)
    results["xmax"] = route.end.to_mapping(inst)

    t0 = time.perf_counter()
    top = xmax_by_capacity_reduction(inst)
    timings["firm_side"] = time.perf_counter() - t0
    if top.assignment.values != route.end.values:
        raise InvariantViolation("the two maximum pipelines disagree")

    counts = choice_call_counts(inst)
    _emit(
        {
            "command": "bench",
            "instance": _digest(inst),
            "timings": {k: round(v, 6) for k, v in timings.items()},
            "oracle_calls": counts,
            "oracle_calls_total": sum(counts.values()),
            "results": results,
        }
    )
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process."""
    parser = _Parser(prog="galloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve", help="compute an extreme stable assignment")
    p.add_argument("instance")
    p.add_argument("--mode", choices=("min", "max"), default="min")
    p.add_argument("--verify", action="store_true", help="diff against the oracle")
    p.add_argument("--limit", type=int, help="enumeration limit for --verify")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("route", help="full route from minimum to maximum")
    p.add_argument("instance")
    p.add_argument("--seed", type=int, help="randomize rotation choices")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--limit", type=int)
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("rotations", help="rotations applicable at an assignment")
    p.add_argument("instance")
    p.add_argument("assignment")
    p.add_argument("--dot", action="store_true", help="emit the rotations' arcs as DOT")
    p.set_defaults(func=_cmd_rotations)

    p = sub.add_parser("poset", help="the rotation poset")
    p.add_argument("instance")
    p.add_argument("--general", action="store_true", help="allow repeated rotations")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--limit", type=int)
    p.set_defaults(func=_cmd_poset)

    p = sub.add_parser("mincost", help="minimum-cost stable assignment")
    p.add_argument("instance")
    p.add_argument("costs", help="JSON file mapping edge ids to costs")
    p.set_defaults(func=_cmd_mincost)

    p = sub.add_parser("check", help="stability report for an assignment")
    p.add_argument("instance")
    p.add_argument("assignment")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("brute", help="enumerate all stable assignments")
    p.add_argument("instance")
    p.add_argument("--limit", type=int)
    p.set_defaults(func=_cmd_brute)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, default=3)
    p.add_argument("--firms", type=int, default=3)
    p.add_argument("--density", type=float, default=0.7)
    p.add_argument("--capacity-bound", type=int, default=2)
    p.add_argument("--quota-bound", type=int, default=4)
    p.add_argument("--family", choices=FAMILIES, default="linear")
    p.add_argument(
        "--gapless-cap", type=int, help="cap all capacities (2 guarantees gaplessness)"
    )
    p.add_argument("--appendix", type=int, metavar="Q", help="the ring family instead")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="pipeline timings and oracle-call counts")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    """Run one command with the cyclic collector held off.

    No command leaves a reference cycle except ``mincost``'s networkx
    flow graph, so reference counting frees everything else at once and
    collections would only rescan live objects.  The collector's state
    is restored on the way out.
    """
    args = build_parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except GallocError as exc:
        print(f"galloc: error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"galloc: invariant violation: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
