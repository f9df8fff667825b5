"""Brute-force ground truth over enumerable instances.

Enumerates every stable assignment by sweeping the capacity box,
filtering through worker quotas, acceptability, and blocking edges with
vectorized table lookups.  The enumerated lattice backs the
differential tests: extreme points, lattice structure, and the
correspondence between stable assignments and closed functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .choice import evaluator_for, iter_box
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


def _worker_tables(inst: Instance, w: str) -> tuple[np.ndarray, np.ndarray]:
    """Accepted local vectors of a worker and their interesting-edge flags."""
    cf = evaluator_for(inst, w)
    caps = cf.caps
    rows = [z for z in iter_box(caps) if cf.accepts(z)]
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), len(caps))
    interesting = np.zeros((len(rows), len(caps)), dtype=bool)
    for i, z in enumerate(rows):
        for p, cap in enumerate(caps):
            if z[p] < cap:
                probe = list(z)
                probe[p] += 1
                interesting[i, p] = cf(tuple(probe)) != z
    return arr, interesting


def _firm_tables(inst: Instance, f: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Acceptance and interesting-edge flags over a firm's whole box."""
    cf = evaluator_for(inst, f)
    caps = cf.caps
    size = prod(c + 1 for c in caps)
    accept = np.zeros(size, dtype=bool)
    interesting = np.zeros((size, len(caps)), dtype=bool)
    for code, z in enumerate(iter_box(caps)):
        accept[code] = cf.accepts(z)
        for p, cap in enumerate(caps):
            if z[p] < cap:
                probe = list(z)
                probe[p] += 1
                interesting[code, p] = cf(tuple(probe)) != z
    radix = np.ones(len(caps), dtype=np.int64)
    for p in range(len(caps) - 2, -1, -1):
        radix[p] = radix[p + 1] * (caps[p + 1] + 1)
    return accept, interesting, radix


def enumerate_stable(inst: Instance, limit: int = DEFAULT_LIMIT) -> EnumeratedLattice:
    """Every stable assignment, elements sorted in mixed-radix order.

    Refuses when the raw capacity box exceeds ``limit`` points, and
    after the sweep when it found over ``_STABLE_LIMIT`` points.  The
    sweep runs over combinations of per-worker accepted local vectors
    in fixed-size chunks; firms are handled through lookup tables
    indexed by the mixed-radix code of their restriction.
    """
    raw = prod(e.capacity + 1 for e in inst.edges)
    if raw > limit:
        raise LimitError(
            f"enumeration needs a box of {raw} points, over the limit {limit}"
        )
    idx = inst.edge_index
    n_edges = len(inst.edges)

    workers = list(inst.workers)
    w_rows: list[np.ndarray] = []
    w_int: list[np.ndarray] = []
    w_cols: list[np.ndarray] = []
    for w in workers:
        rows, interesting = _worker_tables(inst, w)
        w_rows.append(rows)
        w_int.append(interesting)
        w_cols.append(np.array([idx[eid] for eid in inst.edges_of(w)], dtype=np.int64))

    firms = list(inst.firms)
    f_accept: list[np.ndarray] = []
    f_int: list[np.ndarray] = []
    f_radix: list[np.ndarray] = []
    f_cols: list[np.ndarray] = []
    for f in firms:
        accept, interesting, radix = _firm_tables(inst, f)
        f_accept.append(accept)
        f_int.append(interesting)
        f_radix.append(radix)
        f_cols.append(np.array([idx[eid] for eid in inst.edges_of(f)], dtype=np.int64))

    counts = [r.shape[0] for r in w_rows]
    strides = [1] * len(workers)
    for i in range(len(workers) - 2, -1, -1):
        strides[i] = strides[i + 1] * counts[i + 1]
    total = prod(counts) if counts else 1

    edge_firm_pos = []
    for e in inst.edges:
        wi = workers.index(e.worker)
        fi = firms.index(e.firm)
        edge_firm_pos.append(
            (wi, inst.local_pos(e.worker, e.id), fi, inst.local_pos(e.firm, e.id))
        )

    found: list[tuple[int, ...]] = []
    for start in range(0, total, _CHUNK):
        block = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = [(block // strides[i]) % counts[i] for i in range(len(workers))]
        grid = np.zeros((block.shape[0], n_edges), dtype=np.int64)
        for i in range(len(workers)):
            if w_cols[i].size:
                grid[:, w_cols[i]] = w_rows[i][digits[i]]
        codes = [
            grid[:, f_cols[i]] @ f_radix[i] if f_cols[i].size else
            np.zeros(block.shape[0], dtype=np.int64)
            for i in range(len(firms))
        ]
        ok = np.ones(block.shape[0], dtype=bool)
        for i in range(len(firms)):
            ok &= f_accept[i][codes[i]]
        blocked = np.zeros(block.shape[0], dtype=bool)
        for wi, wp, fi, fp in edge_firm_pos:
            blocked |= w_int[wi][digits[wi], wp] & f_int[fi][codes[fi], fp]
        for row in grid[ok & ~blocked]:
            found.append(tuple(int(v) for v in row))

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
    lat = EnumeratedLattice(inst, elements, order, elements[0], elements[0])
    mins = [i for i in range(len(elements)) if all(lat.leq(i, j) for j in range(len(elements)))]
    maxs = [i for i in range(len(elements)) if all(lat.leq(j, i) for j in range(len(elements)))]
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
