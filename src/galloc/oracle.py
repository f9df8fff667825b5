"""Brute-force ground truth over enumerable instances.

Enumerates every stable assignment by joining the workers' accepted
local vectors one worker at a time.  Each firm is tested, by vectorized
lookups in its acceptance and interest tables, as soon as its last
worker is placed, and the partial rows it rejects or that one of its
edges blocks are dropped there.  The tables come from calls to the
rules, never from the solver's probes.  The enumerated lattice backs
the differential tests: extreme points, lattice structure, and the
correspondence between stable assignments and closed functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .choice import evaluator_for, interesting_at, iter_box
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


def _vertex_table(
    inst: Instance, v: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One vertex's box in mixed-radix order: cells, acceptance, flags, radix.

    ``interesting[code, p]`` says whether one more unit at position p
    would change the cell's choice; it is filled on accepted cells only.
    Both come from calls to the rule, not from the solver's probes.
    """
    cf = evaluator_for(inst, v)
    caps = cf.caps
    box = list(iter_box(caps))
    cells = np.array(box, dtype=np.int64)
    accept = np.zeros(len(box), dtype=bool)
    interesting = np.zeros(cells.shape, dtype=bool)
    for code, z in enumerate(box):
        accept[code] = cf(z) == z
        if accept[code]:
            interesting[code] = [interesting_at(cf, z, p) for p in range(len(caps))]
    radix = np.ones(len(caps), dtype=np.int64)
    for p in range(len(caps) - 2, -1, -1):
        radix[p] = radix[p + 1] * (caps[p + 1] + 1)
    return cells, accept, interesting, radix


def _extend(head: np.ndarray, part: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Each row of ``head`` once per row of ``part``, written at ``cols``."""
    out = np.repeat(head, len(part), axis=0)
    out[:, cols] = np.tile(part, (len(head), 1))
    return out


def enumerate_stable(inst: Instance, limit: int = DEFAULT_LIMIT) -> EnumeratedLattice:
    """Every stable assignment, elements sorted in mixed-radix order.

    Refuses when the raw capacity box exceeds ``limit`` points, and
    after the sweep when it found over ``_STABLE_LIMIT`` points.  The
    sweep adds the workers in canonical order; a partial row carries
    the values and the worker-side interest flags of its edges.  Once a
    firm's last worker is placed (a firm with no edges: before the
    first), rows where it rejects its share or one of its edges blocks
    are dropped.  Both tests read only placed vertices, so a dropped row
    cannot become stable.  Expansions over ``_CHUNK`` rows are split and
    joined depth-first.
    """
    raw = prod(e.capacity + 1 for e in inst.edges)
    if raw > limit:
        raise LimitError(
            f"enumeration needs a box of {raw} points, over the limit {limit}"
        )
    idx = inst.edge_index
    workers = list(inst.workers)
    depth_of = {w: i + 1 for i, w in enumerate(workers)}
    tables = {v: _vertex_table(inst, v) for v in workers + list(inst.firms)}
    cols = {
        v: np.array([idx[eid] for eid in inst.edges_of(v)], dtype=np.int64)
        for v in tables
    }
    # Worker d's rows: its accepted cells with their interest flags.
    adds = []
    for w in workers:
        cells, accept, interesting, _ = tables[w]
        adds.append((cells[accept], interesting[accept], cols[w]))
    # complete[d]: the firms whose workers are all among the first d.
    complete: list[list[str]] = [[] for _ in range(len(workers) + 1)]
    for f in inst.firms:
        d = max((depth_of[inst.edge(eid).worker] for eid in inst.edges_of(f)), default=0)
        complete[d].append(f)

    found: list[tuple[int, ...]] = []

    def join(depth: int, values: np.ndarray, flags: np.ndarray) -> None:
        for f in complete[depth]:
            _, accept, interesting, radix = tables[f]
            code = values[:, cols[f]] @ radix
            keep = accept[code] & ~(flags[:, cols[f]] & interesting[code]).any(axis=1)
            values, flags = values[keep], flags[keep]
        if depth == len(workers) or not len(values):
            found.extend(map(tuple, values.tolist()))
            return
        rows, row_flags, c = adds[depth]
        step = max(1, _CHUNK // max(1, len(rows)))
        for i in range(0, len(values), step):
            for j in range(0, len(rows), _CHUNK):
                join(
                    depth + 1,
                    _extend(values[i:i + step], rows[j:j + _CHUNK], c),
                    _extend(flags[i:i + step], row_flags[j:j + _CHUNK], c),
                )

    n_edges = len(inst.edges)
    join(0, np.zeros((1, n_edges), dtype=np.int64), np.zeros((1, n_edges), dtype=bool))

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
