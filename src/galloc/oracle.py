"""Brute-force ground truth over enumerable instances.

Enumerates every stable assignment by joining the workers' accepted
local vectors one worker at a time.  Each vertex's table comes from one
call of its rule per cell of its box, never from the solver's probes:
acceptance compares a cell with its choice, and interest in one more
unit at a position reads the choice of the cell one unit further on.
A partial row is factorized: the index of each placed worker's
accepted cell, and per firm the mixed-radix code of its local vector
and a bitmask of the worker-side interest flags on its edges.  Each
firm is tested by two lookups in its tables as soon as its last worker
is placed, and the rows it rejects or that one of its edges blocks are
dropped there; edge values are rebuilt only for the rows that survive.
The enumerated lattice backs the differential tests: extreme points,
lattice structure, and the correspondence between stable assignments
and closed functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import prod
from typing import Iterable

import numpy as np

from .choice import box_size, evaluator_for, iter_box
from .errors import InvariantViolation, LimitError
from .model import Assignment, Instance
from .stability import compare_F, compare_W

__all__ = [
    "EnumeratedLattice",
    "LatticeReport",
    "enumerate_stable",
    "verify_lattice_properties",
]

DEFAULT_LIMIT = 10**7
# Larger stable sets are refused once swept: the order table below is
# quadratic in their size and verify_lattice_properties is quartic.
_STABLE_LIMIT = 128
_CHUNK = 250_000


@dataclass(frozen=True)
class EnumeratedLattice:
    """All stable assignments of one instance, ordered the firm way.

    ``order[i][j]`` is the relation of element i to element j: one of
    "equal", "less", "greater", "incomparable".
    """

    instance: Instance
    elements: tuple[Assignment, ...]
    order: tuple[tuple[str, ...], ...]
    min_element: Assignment
    max_element: Assignment

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, i: int, j: int) -> bool:
        return self.order[i][j] in ("less", "equal")

    def join_index(self, i: int, j: int) -> int | None:
        uppers = [k for k in range(len(self.elements)) if self.leq(i, k) and self.leq(j, k)]
        least = [k for k in uppers if all(self.leq(k, m) for m in uppers)]
        return least[0] if len(least) == 1 else None

    def meet_index(self, i: int, j: int) -> int | None:
        lowers = [k for k in range(len(self.elements)) if self.leq(k, i) and self.leq(k, j)]
        greatest = [k for k in lowers if all(self.leq(m, k) for m in lowers)]
        return greatest[0] if len(greatest) == 1 else None


def _matrix(rows: Iterable[tuple[int, ...]], n: int, k: int) -> np.ndarray:
    """``n`` vectors of length ``k`` as the rows of an int64 matrix."""
    return np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=n * k).reshape(n, k)


def _vertex_table(
    inst: Instance, v: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One vertex's box in mixed-radix order: radix, cells, acceptance, interest.

    The rule is called once per cell, and its choice is kept as a cell
    code.  ``interest[code, p]`` says whether one more unit at position
    p would change the cell's choice: z + e_p is the cell ``radix[p]``
    further on, so it is one lookup.  Nothing comes from the solver's
    probes.
    """
    cf = evaluator_for(inst, v)
    caps = cf.caps
    radix = np.ones(len(caps), dtype=np.int64)
    for p in range(len(caps) - 2, -1, -1):
        radix[p] = radix[p + 1] * (caps[p + 1] + 1)
    n = box_size(caps)
    cells = _matrix(iter_box(caps), n, len(caps))
    chosen = _matrix(cf.box_choices(), n, len(caps)) @ radix
    code = np.arange(n)
    room = cells < caps
    interest = room & (chosen[code[:, None] + room * radix] != code[:, None])
    return radix, cells, chosen == code, interest


def _kept(head: np.ndarray, tail: np.ndarray, tests: list[tuple]) -> np.ndarray:
    """The rows head[i] + tail[j] that every firm test in ``tests`` keeps."""
    # The first firm tests the whole grid, the others its survivors.
    i, j = np.arange(len(head))[:, None], np.arange(len(tail))
    for code_col, mask_col, accept, bits in tests:
        code = head[i, code_col] + tail[j, code_col]
        keep = accept[code] & (((head[i, mask_col] | tail[j, mask_col]) & bits[code]) == 0)
        i, j = np.nonzero(keep) if keep.ndim == 2 else (i[keep], j[keep])
    # The row count is explicit: with no columns, -1 would be ambiguous.
    return (head[i] + tail[j]).reshape(np.broadcast(i, j).size, head.shape[1])


def _join(
    rows: np.ndarray,
    depth: int,
    adds: list[tuple],
    complete: list[list[tuple]],
    n_edges: int,
    found: list[tuple[int, ...]],
) -> None:
    """Place the workers from ``depth`` on, depth-first, into ``found``."""
    if depth == len(adds):
        values = np.zeros((len(rows), n_edges), dtype=np.int64)
        for d, (cells, idx, _) in enumerate(adds):
            values[:, idx] = cells[rows[:, d]]
        found.extend(map(tuple, values.tolist()))
        return
    part = adds[depth][2]
    step = max(1, _CHUNK // len(part))
    for i in range(0, len(rows), step):
        for j in range(0, len(part), _CHUNK):
            survivors = _kept(rows[i:i + step], part[j:j + _CHUNK], complete[depth + 1])
            if len(survivors):
                _join(survivors, depth + 1, adds, complete, n_edges, found)


def enumerate_stable(inst: Instance, limit: int = DEFAULT_LIMIT) -> EnumeratedLattice:
    """Every stable assignment, elements sorted in mixed-radix order.

    Refuses when the raw capacity box exceeds ``limit`` points, and
    after the sweep when it found over ``_STABLE_LIMIT`` points.  The
    sweep adds the workers in canonical order.  A partial row holds the
    index of each placed worker's accepted cell and, per firm, the
    mixed-radix code of its local vector so far and a bitmask of the
    worker-side interest flags on its edges (one bit per edge of
    positive capacity; no unit fits on the others).  Each of these is a
    sum over the placed workers, so placing a worker adds its accepted
    cells' rows, computed once, to every partial row.  Once a firm's
    last worker is placed (a firm with no edges: before the first),
    rows where it rejects its share or where one of its edges is
    interesting to both ends, ``mask & interest[code] != 0``, are
    dropped.  Both tests read only placed vertices, so a dropped row
    cannot become stable.  Expansions over ``_CHUNK`` candidate rows
    are split and joined depth-first; only the candidates that the
    firms complete at the new depth keep are built, and edge values
    only for the rows that survive the last worker.
    """
    raw = prod(e.capacity + 1 for e in inst.edges)
    if raw > limit:
        raise LimitError(
            f"enumeration needs a box of {raw} points, over the limit {limit}"
        )
    workers, firms = inst.workers, inst.firms
    n, nf = len(workers), len(firms)
    depth_of = {w: i + 1 for i, w in enumerate(workers)}
    # Row columns: a cell index per worker, then per firm a code, then
    # per firm a mask.  Each edge's unit adds its radix to its firm's
    # code; its worker's interest flag sets its bit in its firm's mask.
    # Both fit in int64: a code is below its firm's box size, and a firm
    # with b mask bits has a box of at least 2**b cells to tabulate.
    code_of = np.zeros((len(inst.edges), n + 2 * nf), dtype=np.int64)
    bit_of = np.zeros_like(code_of)
    # complete[d]: the tests of the firms whose workers are all among the first d.
    complete: list[list[tuple]] = [[] for _ in range(n + 1)]
    for j, f in enumerate(firms):
        radix, _, accept, interest = _vertex_table(inst, f)
        idx = list(inst.edge_indices(f))
        live = 0
        for p, i in enumerate(idx):
            code_of[i, n + j] = radix[p]
            if inst.edges[i].capacity:  # no unit fits on the other edges
                bit_of[i, n + nf + j] = 1 << live
                live += 1
        d = max((depth_of[inst.edges[i].worker] for i in idx), default=0)
        complete[d].append((n + j, n + nf + j, accept, interest @ bit_of[idx, n + nf + j]))
    # Worker d's accepted cells, its edge indices and its rows to add.
    adds = []
    for d, w in enumerate(workers):
        _, cells, accept, interest = _vertex_table(inst, w)
        cells = cells[accept]
        idx = list(inst.edge_indices(w))
        part = cells @ code_of[idx] + interest[accept] @ bit_of[idx]
        part[:, d] = np.arange(len(cells))
        adds.append((cells, idx, part))

    found: list[tuple[int, ...]] = []
    start = np.zeros((1, n + 2 * nf), dtype=np.int64)
    _join(_kept(start, start, complete[0]), 0, adds, complete, len(inst.edges), found)

    if len(found) > _STABLE_LIMIT:
        raise LimitError(
            f"enumeration found {len(found)} stable assignments, "
            f"over the limit {_STABLE_LIMIT}"
        )
    if not found:
        raise InvariantViolation(
            "no stable assignment exists; the choice functions likely "
            "break the required axioms"
        )
    found.sort()
    elements = tuple(Assignment(v) for v in found)
    order = tuple(
        tuple(compare_F(inst, a, b) for b in elements) for a in elements
    )
    up = ("less", "equal")
    mins = [i for i, row in enumerate(order) if all(r in up for r in row)]
    maxs = [i for i in range(len(order)) if all(row[i] in up for row in order)]
    if len(mins) != 1 or len(maxs) != 1:
        raise InvariantViolation(
            "enumerated stable set has no unique minimum or maximum"
        )
    return EnumeratedLattice(
        inst, elements, order, elements[mins[0]], elements[maxs[0]]
    )


@dataclass(frozen=True)
class LatticeReport:
    """Structure checks of an enumerated lattice, with witnesses."""

    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def verify_lattice_properties(lat: EnumeratedLattice) -> LatticeReport:
    """Check lattice structure, distributivity, polarity, and rigidity.

    Rigidity: every vertex keeps the same restriction size at all
    elements, and a vertex short of its quota keeps the identical
    restriction everywhere.
    """
    inst = lat.instance
    n = len(lat.elements)
    problems: list[str] = []

    joins: list[list[int | None]] = [[None] * n for _ in range(n)]
    meets: list[list[int | None]] = [[None] * n for _ in range(n)]
    structure_ok = True
    for i in range(n):
        for j in range(n):
            joins[i][j] = lat.join_index(i, j)
            meets[i][j] = lat.meet_index(i, j)
            if joins[i][j] is None or meets[i][j] is None:
                structure_ok = False
                problems.append(f"elements {i} and {j} lack a join or meet")
    if structure_ok:
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    lhs = meets[a][joins[b][c]]
                    rhs = joins[meets[a][b]][meets[a][c]]
                    if lhs != rhs:
                        problems.append(
                            f"meet does not distribute over join on ({a}, {b}, {c})"
                        )

    expected = {"equal": "equal", "less": "greater", "greater": "less",
                "incomparable": "incomparable"}
    for i in range(n):
        for j in range(n):
            w_rel = compare_W(inst, lat.elements[i], lat.elements[j])
            if w_rel != expected[lat.order[i][j]]:
                problems.append(
                    f"polarity fails between elements {i} and {j}: "
                    f"firm order {lat.order[i][j]}, worker order {w_rel}"
                )

    for v in list(inst.workers) + list(inst.firms):
        sizes = {sum(inst.local_values(x, v)) for x in lat.elements}
        if len(sizes) > 1:
            problems.append(f"vertex {v} changes size across elements: {sorted(sizes)}")
            continue
        if next(iter(sizes)) < evaluator_for(inst, v).quota:
            locals_ = {inst.local_values(x, v) for x in lat.elements}
            if len(locals_) > 1:
                problems.append(
                    f"deficient vertex {v} changes its restriction across elements"
                )
    return LatticeReport(tuple(problems))
