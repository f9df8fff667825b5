"""Choice function evaluators and the laws they must obey.

Every vertex owns a choice function on the integer box bounded by its
incident edge capacities.  Workers always use the linear rule derived
from their order and quota.  Firms are configured by a spec dict with a
``type`` field:

* ``linear``: same rule as workers, with the firm's own order and quota.
* ``tableau``: a column tableau; every edge is a column holding one base
  cell plus one cell per capacity unit, all cells carry distinct
  integers that increase up each column.  Given a vector the firm keeps
  the base cells and the quota-many available cells with the smallest
  entries.
* ``tableau-a3``: a built-in tableau family on exactly three edges with
  capacities (q, q/2, q/2) for an even quota q; the filling is generated
  here so files only need the quota.

Evaluators memoize every answer.  ``call_count`` counts memo misses
only, which is what the oracle-call budgets meter.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import GallocError, InvariantViolation, LimitError, ValidationError
from .model import Instance

Vec = tuple[int, ...]


def iter_box(caps: Sequence[int]) -> Iterator[Vec]:
    """All integer vectors 0 <= z <= caps, lexicographically."""
    return itertools.product(*(range(c + 1) for c in caps))


def box_size(caps: Sequence[int]) -> int:
    n = 1
    for c in caps:
        n *= c + 1
    return n


def join(z: Sequence[int], zp: Sequence[int]) -> Vec:
    return tuple(a if a >= b else b for a, b in zip(z, zp))


def meet(z: Sequence[int], zp: Sequence[int]) -> Vec:
    return tuple(a if a <= b else b for a, b in zip(z, zp))


# -- rules ---------------------------------------------------------------


def eval_worker_cf(z: Sequence[int], order: Sequence[int], quota: int) -> Vec:
    """The linear choice rule.

    ``order`` lists local positions from most preferred to least.  Keep
    whole entries down the order while they fit under the quota, fill
    the next entry partially with whatever room is left, drop the rest.
    """
    total = sum(z)
    if total <= quota:
        return tuple(z)
    out = [0] * len(z)
    room = quota
    for pos in order:
        v = z[pos]
        if v <= room:
            out[pos] = v
            room -= v
        else:
            out[pos] = room
            break
    return tuple(out)


def eval_tableau_cf(
    z: Sequence[int], filling: Sequence[Sequence[int]], quota: int
) -> Vec:
    """The tableau choice rule, columns aligned with the entries of ``z``.

    ``filling[j]`` holds the base cell entry followed by one entry per
    capacity unit of column j, strictly increasing.  The chosen vector
    counts, per column, the quota-many available non-base cells with the
    smallest entries.
    """
    total = sum(z)
    if total <= quota:
        return tuple(z)
    avail: list[tuple[int, int]] = []
    for j, zj in enumerate(z):
        col = filling[j]
        for r in range(1, zj + 1):
            avail.append((col[r], j))
    avail.sort()
    out = [0] * len(z)
    for _, j in avail[:quota]:
        out[j] += 1
    return tuple(out)


# -- evaluators ----------------------------------------------------------


class ChoiceEvaluator:
    """Memoizing wrapper around one vertex's choice function.

    Attributes:
        owner: vertex id.
        kind: "worker-linear", "firm-linear", or "tableau".
        caps: capacities of the incident edges, canonical order.
        quota: the quota the function fills up to.
        call_count: number of memo misses so far.
    """

    def __init__(self, owner: str, kind: str, caps: Vec, quota: int) -> None:
        self.owner = owner
        self.kind = kind
        self.caps = caps
        self.quota = quota
        self.call_count = 0
        self._memo: dict[Vec, Vec] = {}

    def __call__(self, z: Sequence[int]) -> Vec:
        zt = tuple(z)
        got = self._memo.get(zt)
        if got is not None:
            return got
        if (
            len(zt) != len(self.caps)
            or min(zt, default=0) < 0
            or any(map(operator.gt, zt, self.caps))
        ):
            raise GallocError(
                f"choice function of {self.owner} queried outside its box: {zt}"
            )
        self.call_count += 1
        out = self._evaluate(zt)
        self._memo[zt] = out
        return out

    def _evaluate(self, z: Vec) -> Vec:
        raise NotImplementedError

    def accepts(self, z: Sequence[int]) -> bool:
        return self(z) == tuple(z)


class LinearChoice(ChoiceEvaluator):
    def __init__(self, owner: str, kind: str, caps: Vec, order: Vec, quota: int) -> None:
        super().__init__(owner, kind, caps, quota)
        self.order = order

    def _evaluate(self, z: Vec) -> Vec:
        return eval_worker_cf(z, self.order, self.quota)


class TableauChoice(ChoiceEvaluator):
    def __init__(
        self, owner: str, caps: Vec, filling: tuple[Vec, ...], quota: int
    ) -> None:
        super().__init__(owner, "tableau", caps, quota)
        self.filling = filling

    def _evaluate(self, z: Vec) -> Vec:
        return eval_tableau_cf(z, self.filling, self.quota)


@functools.cache
def a3_filling(quota: int) -> tuple[Vec, Vec, Vec]:
    """Filling of the built-in three-column tableau for an even quota."""
    q = quota
    p = q // 2
    col1 = (1,) + tuple(3 + i for i in range(1, q + 1))
    col2 = (2,) + tuple(2 + q + 2 * i for i in range(1, p + 1))
    col3 = (3,) + tuple(3 + q + 2 * i for i in range(1, p + 1))
    return col1, col2, col3


_SPEC_KEYS = {
    "linear": {"type", "order", "quota"},
    "tableau": {"type", "columns", "quota", "filling"},
    "tableau-a3": {"type", "columns", "quota"},
}


def read_firm_spec(inst: Instance, f: str) -> tuple[str, int, tuple]:
    """Validate and read one firm's spec; raise ValidationError.

    The only reader of ``inst.firm_cfs``.  Returns the evaluator kind, the
    quota and the rule's table: for "firm-linear" the order as local
    positions, for "tableau" the filling columns in canonical order.
    """
    spec = inst.firm_cfs[f]
    kind = spec.get("type")
    allowed = _SPEC_KEYS.get(kind) if isinstance(kind, str) else None
    if allowed is None:
        raise ValidationError(f"firm {f!r}: unknown choice function type {kind!r}")
    if set(spec) - allowed:
        raise ValidationError(f"firm {f!r}: unknown keys {sorted(set(spec) - allowed)}")
    q = spec.get("quota")
    if not isinstance(q, int) or isinstance(q, bool):
        raise ValidationError(f"firm {f!r}: quota is not an integer")
    if q < 0:
        raise ValidationError(f"firm {f!r}: negative quota {q}")
    if kind == "tableau-a3" and (q % 2 != 0 or q < 2):
        raise ValidationError(f"firm {f!r}: tableau-a3 quota must be even and >= 2")

    key = "order" if kind == "linear" else "columns"
    # tableau-a3 columns default to the incident edges in canonical order.
    cols = spec.get(key, inst.edges_of(f) if kind == "tableau-a3" else None)
    if cols is None:
        raise ValidationError(f"firm {f!r}: missing {key!r}")
    if not isinstance(cols, (list, tuple)):
        raise ValidationError(f"firm {f!r}: {key!r} must be a list of edge ids")
    try:
        local = tuple([inst.local_pos(f, eid) for eid in cols])
    except (KeyError, TypeError):  # a foreign or unhashable entry
        local = ()
    if len(local) != len(inst.edges_of(f)) or len(set(local)) != len(local):
        raise ValidationError(
            f"firm {f!r}: {key!r} is not a permutation of its incident edges"
        )
    if kind == "linear":
        return "firm-linear", q, local

    caps = tuple(inst.edge(eid).capacity for eid in cols)
    if kind == "tableau-a3":
        if len(cols) != 3:
            raise ValidationError(f"firm {f!r}: tableau-a3 needs exactly 3 edges")
        if caps != (q, q // 2, q // 2):
            raise ValidationError(
                f"firm {f!r}: tableau-a3 capacities must be ({q}, {q // 2}, {q // 2}) "
                f"in column order, got {caps}"
            )
        filling = a3_filling(q)
    else:
        filling = spec.get("filling")
        if not isinstance(filling, (list, tuple)) or len(filling) != len(cols):
            raise ValidationError(
                f"firm {f!r}: filling must list one column of entries per edge"
            )
        seen: set[int] = set()
        for j, (cap, col) in enumerate(zip(caps, filling)):
            if not isinstance(col, (list, tuple)) or len(col) != cap + 1:
                raise ValidationError(
                    f"firm {f!r}: filling column {j} must have {cap + 1} entries"
                )
            for r, t in enumerate(col):
                if not isinstance(t, int) or isinstance(t, bool):
                    raise ValidationError(f"firm {f!r}: filling entries must be integers")
                if r > 0 and col[r] <= col[r - 1]:
                    raise ValidationError(
                        f"firm {f!r}: filling column {j} is not strictly increasing"
                    )
                if t in seen:
                    raise ValidationError(f"firm {f!r}: filling entry {t} repeats")
                seen.add(t)
    return "tableau", q, tuple([tuple(col) for _, col in sorted(zip(local, filling))])


def evaluator_for(inst: Instance, v: str) -> ChoiceEvaluator:
    """The (cached) evaluator of a vertex's choice function."""
    ev = inst._evaluators.get(v)
    if ev is not None:
        return ev
    caps = inst.caps_of(v)
    if inst.is_worker(v):
        order = tuple(inst.local_pos(v, eid) for eid in inst.worker_orders[v])
        ev = LinearChoice(v, "worker-linear", caps, order, inst.quota(v))
    else:
        kind, quota, table = inst._firm_rules[v]
        if kind == "tableau":
            ev = TableauChoice(v, caps, table, quota)
        else:
            ev = LinearChoice(v, kind, caps, table, quota)
    inst._evaluators[v] = ev
    return ev


def total_choice_calls(inst: Instance) -> int:
    """Sum of memo misses across all evaluators built so far."""
    return sum(ev.call_count for ev in inst._evaluators.values())


def choice_call_counts(inst: Instance) -> dict[str, int]:
    return {v: ev.call_count for v, ev in sorted(inst._evaluators.items())}


# -- single-unit probes --------------------------------------------------


def single_unit_response(
    cf: ChoiceEvaluator, z: Sequence[int], pos: int
) -> tuple[str, int | None]:
    """What the choice does when one more unit arrives at ``pos``.

    ``z`` must be accepted by ``cf`` and have room at ``pos``.  Returns
    ("same", None) if the unit is rejected, ("absorb", None) if it is
    kept outright, or ("swap", c) if keeping it displaces one unit at
    position c.
    """
    zt = tuple(z)
    bumped = zt[:pos] + (zt[pos] + 1,) + zt[pos + 1 :]
    out = cf(bumped)
    if out == zt:
        return "same", None
    if out == bumped:
        return "absorb", None
    drops = [
        j for j, (a, b) in enumerate(zip(out, bumped)) if a != b and j != pos
    ]
    if out[pos] == bumped[pos] and len(drops) == 1 and out[drops[0]] == bumped[drops[0]] - 1:
        return "swap", drops[0]
    raise InvariantViolation(
        f"choice of {cf.owner} moved by more than one unit on a single-unit probe: "
        f"{zt} + unit at {pos} -> {out}"
    )


def interesting_at(cf: ChoiceEvaluator, z: Sequence[int], pos: int) -> bool:
    """Whether one more unit at ``pos`` would change the accepted ``z``."""
    zt = tuple(z)
    if zt[pos] >= cf.caps[pos]:
        return False
    bumped = zt[:pos] + (zt[pos] + 1,) + zt[pos + 1 :]
    return cf(bumped) != zt


def revealed_prefers(
    cf: ChoiceEvaluator, z: Sequence[int], zp: Sequence[int]
) -> bool:
    """True when the owner revealed-prefers accepted ``z`` over ``zp``.

    Strict: a vector is never preferred over itself.
    """
    zt, zpt = tuple(z), tuple(zp)
    if not cf.accepts(zt) or not cf.accepts(zpt):
        raise GallocError(
            f"revealed preference at {cf.owner} needs accepted vectors"
        )
    return zpt != zt and cf(join(zt, zpt)) == zt


# -- laws ----------------------------------------------------------------


@dataclass(frozen=True)
class AxiomFailure:
    """One counterexample to one axiom."""

    axiom: str
    witness: tuple


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    checked: int
    failures: tuple[AxiomFailure, ...]


def check_axioms(cf: ChoiceEvaluator, pair_limit: int = 10**6) -> AxiomReport:
    """Exhaustively test the choice-function axioms over the box.

    Checks consistence, substitutability, size monotonicity, quota
    filling, stationarity, and idempotence.  Records the first
    counterexample found per axiom.
    """
    n = box_size(cf.caps)
    if n * n > pair_limit:
        raise LimitError(
            f"axiom check needs {n * n} pairs, over the limit of {pair_limit}"
        )
    failures: list[AxiomFailure] = []
    seen_axioms: set[str] = set()
    checked = 0

    def fail(axiom: str, witness: tuple) -> None:
        if axiom not in seen_axioms:
            seen_axioms.add(axiom)
            failures.append(AxiomFailure(axiom, witness))

    cells = list(iter_box(cf.caps))
    for z in cells:
        cz = cf(z)
        checked += 1
        if cf(cz) != cz:
            fail("idempotence", (z, cz, cf(cz)))
        if sum(cz) != min(sum(z), cf.quota):
            fail("quota-filling", (z, cz))
        if any(a > b for a, b in zip(cz, z)):
            fail("containment", (z, cz))
        # Everything dominated by z, for the pairwise axioms.
        for zp in itertools.product(*(range(v + 1) for v in z)):
            if zp == z:
                continue
            checked += 1
            czp = cf(zp)
            if sum(czp) > sum(cz):
                fail("size-monotonicity", (z, zp, cz, czp))
            if any(m > c for m, c in zip(meet(cz, zp), czp)):
                fail("substitutability", (z, zp, cz, czp))
            if all(a <= b for a, b in zip(cz, zp)) and czp != cz:
                fail("consistence", (z, zp, cz, czp))
    for z in cells:
        cz = cf(z)
        for zp in cells:
            checked += 1
            if cf(join(z, zp)) != cf(join(cz, zp)):
                fail("stationarity", (z, zp))
                break
    return AxiomReport(not failures, checked, tuple(failures))


@dataclass(frozen=True)
class GaplessViolation:
    """A chain whose displaced partner jumps away and back.

    Attributes:
        lower, middle, upper: the chain of accepted vectors.
        pos: local position of the edge whose extra unit is probed.
        displaced: displaced positions at lower, middle, upper.
    """

    lower: Vec
    middle: Vec
    upper: Vec
    pos: int
    displaced: tuple[int, int | None, int]


@dataclass(frozen=True)
class GaplessReport:
    holds: bool
    accepted: int
    violations: tuple[GaplessViolation, ...]


def check_gapless(cf: ChoiceEvaluator, triple_limit: int = 10**6) -> GaplessReport:
    """Search for gaps: chains where a displaced partner leaves and returns.

    Enumerates accepted vectors, the strict revealed preference between
    them, and for every preference chain of three and every edge with a
    displacement at all three points, demands that equal displaced
    partners at the ends force the same partner in the middle.  Reports
    every violation.
    """
    accepted = [z for z in iter_box(cf.caps) if cf.accepts(z)]
    n = len(accepted)
    if n * n * n > triple_limit:
        raise LimitError(
            f"gapless check needs up to {n ** 3} triples, over the limit of {triple_limit}"
        )
    k = len(cf.caps)
    prefers: dict[Vec, list[Vec]] = {z: [] for z in accepted}
    for z in accepted:
        for zp in accepted:
            if zp != z and cf(join(z, zp)) == z:
                prefers[z].append(zp)  # zp is revealed-below z
    swap_memo: dict[tuple[Vec, int], int | None] = {}

    def swap_at(z: Vec, pos: int) -> int | None:
        key = (z, pos)
        if key in swap_memo:
            return swap_memo[key]
        out: int | None = None
        if z[pos] < cf.caps[pos]:
            verdict, c = single_unit_response(cf, z, pos)
            if verdict == "swap":
                out = c
        swap_memo[key] = out
        return out

    violations: list[GaplessViolation] = []
    for z2 in accepted:
        below = prefers[z2]
        above = [z3 for z3 in accepted if z2 in prefers[z3]]
        for z1 in below:
            for z3 in above:
                for pos in range(k):
                    c1 = swap_at(z1, pos)
                    if c1 is None:
                        continue
                    c3 = swap_at(z3, pos)
                    if c3 != c1:
                        continue
                    c2 = swap_at(z2, pos)
                    if c2 is None or c2 != c1:
                        violations.append(
                            GaplessViolation(z1, z2, z3, pos, (c1, c2, c3))
                        )
    return GaplessReport(not violations, n, tuple(violations))
