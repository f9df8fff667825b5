"""Brute-force ground truth over enumerable instances.

A point is stable when every vertex accepts its local vector and no
edge is interesting to both of its ends.  The stable set is therefore
the natural join of one relation per vertex, its accepted cells and
their interest flags, filtered by a test on each edge.  Each relation
comes from one call of the vertex's rule per cell of its box, never
from the solver's probes: acceptance compares a cell with its choice,
and interest in one more unit at a position reads the choice of the
cell one unit further on.  The join places one vertex at a time,
always the one that shares the most edges with the placed ones, and
an edge is tested as soon as both of its ends are placed; edge values
are rebuilt only for the rows that survive.  The enumerated lattice
backs the differential tests: extreme points, lattice structure, and
the correspondence between stable assignments and closed functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import itemgetter
from typing import Any, Callable, Iterator

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
# (row, cell) pairs one join batch tests, which bounds the rows it holds.
_CHUNK = 100_000


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


def _relation(inst: Instance, v: str) -> list[tuple[tuple[int, ...], int]]:
    """One vertex's accepted cells, each with the edges it wants one more unit on.

    The rule is called once per cell of the vertex's box, in ``iter_box``
    order, and nothing comes from the solver's probes.  A cell is
    accepted when it is its own choice.  One more unit at position p is
    interesting at an accepted cell z when z + e_p is in the box and its
    choice is not z; z + e_p is the cell ``step[p]`` further on.  The
    interest is a bitmask with bit i for edge i.
    """
    cf = evaluator_for(inst, v)
    caps = cf.caps
    choices = cf.box_choices()
    step = [box_size(caps[p + 1:]) for p in range(len(caps))]
    bits = [1 << i for i in inst.edge_indices(v)]
    relation = []
    for k, z in enumerate(iter_box(caps)):
        if choices[k] == z:
            mask = 0
            for zp, cap, s, bit in zip(z, caps, step, bits):
                if zp < cap and choices[k + s] != z:
                    mask |= bit
            relation.append((z, mask))
    return relation


def _key(positions: list[int]) -> Callable[[tuple[int, ...]], Any]:
    """The values at ``positions``: a tuple, one value for one position."""
    return itemgetter(*positions) if positions else lambda _: ()


def _plan(inst: Instance) -> tuple[list[tuple], list[int]]:
    """The join steps, one per vertex, and each edge's slot in a row.

    A row's values list the placed edges in the order they were placed.
    The next vertex is the one that shares the most edges with the
    placed ones; ties go to the smaller relation, then to the canonical
    order.  A step indexes its vertex's cells by their values on the
    shared edges, and keeps with each cell its values on the new edges,
    its interest on the shared edges and its interest on the new ones.
    """
    relations = {v: _relation(inst, v) for v in (*inst.workers, *inst.firms)}
    shared_with = dict.fromkeys(relations, 0)
    slot: dict[int, int] = {}
    steps = []
    left = list(relations)
    while left:
        v = min(left, key=lambda u: (-shared_with[u], len(relations[u])))
        left.remove(v)
        idx = inst.edge_indices(v)
        shared = [p for p, i in enumerate(idx) if i in slot]
        new = [p for p, i in enumerate(idx) if i not in slot]
        shared_bits = sum(1 << idx[p] for p in shared)
        cell_key = _key(shared)
        index: dict[Any, list] = {}
        for z, mask in relations[v]:
            index.setdefault(cell_key(z), []).append(
                (tuple([z[p] for p in new]), mask & shared_bits, mask & ~shared_bits)
            )
        # The cells under one key come in parts of at most _CHUNK.
        for key, cells in index.items():
            index[key] = [cells[j:j + _CHUNK] for j in range(0, len(cells), _CHUNK)]
        steps.append((_key([slot[idx[p]] for p in shared]), index))
        for p in new:
            slot[idx[p]] = len(slot)
            _, w, f, _ = inst.edges[idx[p]]
            shared_with[f if w == v else w] += 1
    return steps, [slot[i] for i in range(len(inst.edges))]


def _expand(rows: list[tuple], key: Callable, index: dict) -> Iterator[list[tuple]]:
    """The rows joined with one vertex, in batches of at most ``_CHUNK``
    tested (row, cell) pairs.  A cell that wants an edge the row's first
    end wants is dropped: that edge blocks."""
    batch: list[tuple] = []
    tested = 0
    for values, mask in rows:
        for part in index.get(key(values), ()):
            if tested + len(part) > _CHUNK:
                yield batch
                batch, tested = [], 0
            tested += len(part)
            batch += [(values + new, mask | bits) for new, need, bits in part if not mask & need]
    yield batch


def enumerate_stable(inst: Instance, limit: int = DEFAULT_LIMIT) -> EnumeratedLattice:
    """Every stable assignment, elements sorted by their edge values.

    Refuses when the raw capacity box exceeds ``limit`` points, and
    after the sweep when it found over ``_STABLE_LIMIT`` points.  The
    stable set is the natural join of the vertex relations (see
    ``_plan``), filtered by the blocking test on each edge.  A partial
    row holds the placed edges' values and one int mask: the edges
    that the end placed first finds interesting.  Joining a vertex
    looks its cells up by the row's values on the shared edges and
    drops a cell that wants a shared edge the mask holds
    (``mask & need``): the test is made once both ends of an edge are
    placed, and reads only placed vertices, so a dropped row cannot
    become stable.  The join goes depth-first, one batch per
    ``_expand`` step, so memory stays bounded also when a vertex
    shares no edge with the placed ones; edge values are rebuilt only
    for the rows that survive the last vertex.
    """
    raw = prod(e.capacity + 1 for e in inst.edges)
    if raw > limit:
        raise LimitError(
            f"enumeration needs a box of {raw} points, over the limit {limit}"
        )
    steps, where = _plan(inst)
    rows: list[tuple] = []
    # stack[d] gives the batches of rows that hold the first d vertices.
    stack: list[Iterator[list[tuple]]] = [iter([[((), 0)]])]
    while stack:
        batch = next(stack[-1], None)
        if batch is None:
            stack.pop()
        elif len(stack) > len(steps):
            rows += batch
        elif batch:
            stack.append(_expand(batch, *steps[len(stack) - 1]))

    if len(rows) > _STABLE_LIMIT:
        raise LimitError(
            f"enumeration found {len(rows)} stable assignments, "
            f"over the limit {_STABLE_LIMIT}"
        )
    if not rows:
        raise InvariantViolation(
            "no stable assignment exists; the choice functions likely "
            "break the required axioms"
        )
    found = sorted(tuple([values[s] for s in where]) for values, _ in rows)
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
