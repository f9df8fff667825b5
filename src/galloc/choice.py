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

Evaluators memoize every answer of the rule.  ``call_count`` counts
its memo misses only: the oracle calls, the paper's unit of cost.  They
come one vector at a time, or from ``box_choices``, which asks the rule
at every cell of the box at once (the brute-force oracle's tables) and
counts each miss the same way.  One meter, ``fresh_total``, shared by
the evaluators of an instance, counts those misses plus the closed-form
evaluations below that were not memoized yet; it is what the
weight-search budget meters.  The solver asks an evaluator seven
questions: acceptance, interest in one more unit, the list of positions
where that unit is interesting (``interesting_positions``), those
newly interesting since another vector (``newly_interesting``),
whether it weakly prefers one vector to another (``prefers``), the
response to one more unit, and a weight-mu swap.  Both kinds of
evaluator answer them in closed form and do not call the rule.  A
greedy rule down a strict order (Baïou & Balinski 2002, Math. OR
27(4)) is settled by the total of the vector and the rank of its last
supported position, so its interesting positions are a prefix of its
order; a tableau rule, which keeps the quota-many smallest entries,
by the total and the largest entry held.  That pair is the vector's
shape.  It is measured once per vector (``_shape``, memoized), and a
stability check's view (:class:`galloc.stability.PointView`) keeps the
shape of each vertex's local vector, so the probes a step makes at a
point take it from the view rather than looking it up again.  The
brute-force oracle, the axiom checks and the gapless check call the
rule itself.

An evaluator is built on a vertex's first use from what loading the
instance read once: the capacities, the worker's order already mapped
to local positions, the firm's rule.  Each closed-form probe tests a
vector against the box the first time it sees it, unless the caller
has tested the whole point, as a view does when it measures the shapes
of a point inside the box.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import GallocError, InvariantViolation, LimitError, ValidationError
from .model import Instance

Vec = tuple[int, ...]
Shape = tuple | None  # what ``ChoiceEvaluator._shape`` measures; None outside the box


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
        call_count: number of memo misses of the rule so far.
        fresh_total: a one-entry list shared by the evaluators of one
            instance, the running count of their memo misses of the rule
            and of their closed-form evaluations not memoized yet.
    """

    def __init__(self, owner: str, kind: str, caps: Vec, quota: int) -> None:
        self.owner = owner
        self.kind = kind
        self.caps = caps
        self.quota = quota
        self.call_count = 0
        self.fresh_total = [0]
        self._memo: dict[Vec, Vec] = {}
        self._shapes: dict[Vec, tuple] = {}

    def __call__(self, z: Sequence[int]) -> Vec:
        zt = tuple(z)
        got = self._memo.get(zt)
        if got is not None:
            return got
        if not self._in_box(zt):
            raise GallocError(
                f"choice function of {self.owner} queried outside its box: {zt}"
            )
        return self._miss(zt)

    def _miss(self, z: Vec) -> Vec:
        self.call_count += 1
        self.fresh_total[0] += 1
        out = self._memo[z] = self._evaluate(z)
        return out

    def box_choices(self) -> list[Vec]:
        """The rule's choice at every cell of the box, in ``iter_box`` order.

        One call per cell, through the memo and its counters; the cells
        are in the box by construction, so none is checked.
        """
        memo, miss = self._memo, self._miss
        return [
            miss(z) if (got := memo.get(z)) is None else got for z in iter_box(self.caps)
        ]

    def _evaluate(self, z: Vec) -> Vec:
        raise NotImplementedError

    def _shape(self, z: Vec, boxed: bool = False) -> Shape:
        """What the closed-form probes read of ``z``, memoized; None
        outside the box, which is not tested when ``boxed`` says the
        caller has.  Computing it counts in ``fresh_total`` but is not a
        call of the rule.  This is the one place a shape is measured: a
        probe given a shape reads it, and one given none looks it up
        here."""
        got = self._shapes.get(z)
        if got is None and (boxed or self._in_box(z)):
            self.fresh_total[0] += 1
            got = self._shapes[z] = self._measure(z)
        return got

    def _measure(self, z: Vec) -> tuple:
        raise NotImplementedError

    def _in_box(self, z: Vec) -> bool:
        return (
            len(z) == len(self.caps)
            and min(z, default=0) >= 0
            and not any(map(operator.gt, z, self.caps))
        )

    # The probes below ask the rule; the subclasses answer them in closed
    # form.  A probe may be given the shape of its vector (``_shape``), as
    # a view holds it; the rule's probes have no use for it.

    def accepts(self, z: Sequence[int], shape: Shape = None) -> bool:
        return self(z) == tuple(z)

    def interest(self, z: Sequence[int], shape: Shape = None) -> Callable[[int], bool]:
        """``interesting_at`` at ``z``, as a predicate on positions."""
        return functools.partial(interesting_at, self, tuple(z))

    def interesting_positions(self, z: Sequence[int], shape: Shape = None) -> list[int]:
        """The positions where one more unit is interesting at ``z``."""
        return list(filter(self.interest(z, shape), range(len(self.caps))))

    def newly_interesting(
        self, old: Sequence[int], z: Sequence[int], old_shape: Shape = None, shape: Shape = None
    ) -> list[int]:
        """The positions where ``old`` and ``z`` agree and one more unit
        is interesting at ``z`` but not at ``old``."""
        was, now = self.interest(old, old_shape), self.interest(z, shape)
        return [
            pos
            for pos, (a, b) in enumerate(zip(old, z))
            if a == b and now(pos) and not was(pos)
        ]

    def prefers(
        self, x: Sequence[int], y: Sequence[int], x_shape: Shape = None, y_shape: Shape = None
    ) -> bool:
        """Whether ``y`` is weakly preferred to ``x``: C(x ∨ y) = y."""
        return self(join(x, y)) == tuple(y)

    def unit_response(
        self, z: Sequence[int], pos: int, shape: Shape = None
    ) -> tuple[str, int | None]:
        return single_unit_response(self, z, pos)

    def swaps(self, z: Sequence[int], plus: int, minus: int, mu: int) -> bool:
        """Whether ``mu`` more units at ``plus`` displace ``mu`` at ``minus``."""
        bumped = list(z)
        bumped[plus] += mu
        want = list(bumped)
        want[minus] -= mu
        return self(tuple(bumped)) == tuple(want)


class LinearChoice(ChoiceEvaluator):
    """The greedy rule down ``order``, with its probes in closed form.

    At an accepted ``z`` that fills the quota, one more unit at a
    position ranked before the cut (the rank of the last supported
    position) displaces a unit there, and any other unit is rejected;
    below the quota every unit is absorbed.  Off the quota the cut is
    ``len(order)``, so every unit with room is interesting.  The
    interesting positions are thus the positions of ``order`` before
    the cut that have room, listed in O(cut), and those newly
    interesting since an old vector lie between the old cut and the new
    one.  The rule keeps whole entries down ``order``, so from x ∨ y it
    keeps an accepted y exactly when x ≤ y before y's cut.  Vectors
    outside the box, unaccepted bumps, unaccepted preferred vectors and
    null or self swaps go to the generic probe, which raises or answers
    as the rule does.  The total and the cut are memoized per vector, as
    the rule's answers are; computing them counts in ``fresh_total`` but
    is not a call of the rule.
    """

    def __init__(self, owner: str, kind: str, caps: Vec, order: Vec, quota: int) -> None:
        super().__init__(owner, kind, caps, quota)
        self.order = order
        rank = [0] * len(order)
        for r, pos in enumerate(order):
            rank[pos] = r
        self._rank: Vec = tuple(rank)

    def _evaluate(self, z: Vec) -> Vec:
        return eval_worker_cf(z, self.order, self.quota)

    def _measure(self, z: Vec) -> tuple[int, int]:
        """The total and the cut of ``z``."""
        total = sum(z)
        if total != self.quota:
            return total, len(self.order)
        return total, max(itertools.compress(self._rank, z), default=0)

    def accepts(self, z: Sequence[int], shape: Shape = None) -> bool:
        zt = tuple(z)
        shape = shape or self._shape(zt)
        if shape is None:
            return super().accepts(zt)
        return shape[0] <= self.quota

    def interest(self, z: Sequence[int], shape: Shape = None) -> Callable[[int], bool]:
        zt = tuple(z)
        shape = shape or self._shape(zt)
        if shape is None:
            return super().interest(zt)
        caps, rank, cut = self.caps, self._rank, shape[1]
        return lambda pos: zt[pos] < caps[pos] and rank[pos] < cut

    def interesting_positions(self, z: Sequence[int], shape: Shape = None) -> list[int]:
        zt = tuple(z)
        shape = shape or self._shape(zt)
        if shape is None:
            return super().interesting_positions(zt)
        caps = self.caps
        return [pos for pos in self.order[: shape[1]] if zt[pos] < caps[pos]]

    def newly_interesting(
        self, old: Sequence[int], z: Sequence[int], old_shape: Shape = None, shape: Shape = None
    ) -> list[int]:
        ot, zt = tuple(old), tuple(z)
        was, now = old_shape or self._shape(ot), shape or self._shape(zt)
        if was is None or now is None:
            return super().newly_interesting(ot, zt)
        caps = self.caps
        return [
            pos
            for pos in self.order[was[1] : now[1]]
            if zt[pos] < caps[pos] and ot[pos] == zt[pos]
        ]

    def prefers(
        self, x: Sequence[int], y: Sequence[int], x_shape: Shape = None, y_shape: Shape = None
    ) -> bool:
        xt, yt = tuple(x), tuple(y)
        shape = y_shape or self._shape(yt)
        if shape is None or shape[0] > self.quota or (x_shape or self._shape(xt)) is None:
            return super().prefers(xt, yt)
        before = self.order[: shape[1]]
        return all(map(operator.le, map(xt.__getitem__, before), map(yt.__getitem__, before)))

    def last_rank(self, z: Sequence[int], shape: Shape = None) -> int:
        """The rank in ``order`` of the last position ``z`` holds, 0 when
        it holds nothing; at the quota it is the cut."""
        zt = tuple(z)
        shape = shape or self._shape(zt)
        if shape is not None and shape[0] == self.quota:
            return shape[1]
        return max(itertools.compress(self._rank, zt), default=0)

    def unit_response(
        self, z: Sequence[int], pos: int, shape: Shape = None
    ) -> tuple[str, int | None]:
        zt = tuple(z)
        shape = shape or self._shape(zt)
        if shape is None or zt[pos] >= self.caps[pos] or shape[0] > self.quota:
            return super().unit_response(zt, pos)
        total, cut = shape
        if total < self.quota:
            return "absorb", None
        if self._rank[pos] < cut:
            return "swap", self.order[cut]
        return "same", None

    def swaps(self, z: Sequence[int], plus: int, minus: int, mu: int) -> bool:
        zt = tuple(z)
        shape = self._shape(zt)
        if shape is None or mu < 1 or plus == minus or zt[plus] + mu > self.caps[plus]:
            return super().swaps(zt, plus, minus, mu)
        total, cut = shape
        return (
            total == self.quota
            and zt[minus] >= mu
            and self.order[cut] == minus
            and self._rank[plus] < cut
        )


class TableauChoice(ChoiceEvaluator):
    """The tableau rule, with its probes in closed form.

    The rule keeps the quota-many smallest available entries.  So at an
    accepted ``z`` that fills the quota, one more unit whose entry is
    below the largest entry held displaces a unit of that entry's
    column, and any other unit is rejected; below the quota every unit
    is absorbed.  Off the quota every unit with room is interesting.  A
    weight-mu swap holds at the quota when the mu entries it drops from
    ``minus`` lie above every entry kept.  From x ∨ y the rule keeps an
    accepted y exactly when x ≤ y, or y fills the quota and every entry
    x adds lies above the largest entry y holds.  Vectors outside the
    box, unaccepted bumps, unaccepted preferred vectors, null or self
    swaps and bumps over capacity go to the generic probe, which raises
    or answers as the rule does.  The total and the largest entry held,
    with its column (None when nothing is held, as entries may be
    negative), are memoized per vector the same way.
    """

    def __init__(
        self, owner: str, caps: Vec, filling: tuple[Vec, ...], quota: int
    ) -> None:
        super().__init__(owner, "tableau", caps, quota)
        self.filling = filling

    def _evaluate(self, z: Vec) -> Vec:
        return eval_tableau_cf(z, self.filling, self.quota)

    def _measure(self, z: Vec) -> tuple[int, tuple[int, int] | None]:
        """The total of ``z`` and its largest entry held with its column."""
        held = [(col[zj], j) for j, (col, zj) in enumerate(zip(self.filling, z)) if zj]
        return sum(z), max(held, default=None)

    def accepts(self, z: Sequence[int], shape: Shape = None) -> bool:
        zt = tuple(z)
        shape = shape or self._shape(zt)
        if shape is None:
            return super().accepts(zt)
        return shape[0] <= self.quota

    def interest(self, z: Sequence[int], shape: Shape = None) -> Callable[[int], bool]:
        zt = tuple(z)
        shape = shape or self._shape(zt)
        if shape is None:
            return super().interest(zt)
        total, top = shape
        caps, filling = self.caps, self.filling
        if total != self.quota:
            return lambda pos: zt[pos] < caps[pos]
        if top is None:
            return lambda pos: False
        return lambda pos: zt[pos] < caps[pos] and filling[pos][zt[pos] + 1] < top[0]

    def prefers(
        self, x: Sequence[int], y: Sequence[int], x_shape: Shape = None, y_shape: Shape = None
    ) -> bool:
        xt, yt = tuple(x), tuple(y)
        shape = y_shape or self._shape(yt)
        if shape is None or shape[0] > self.quota or (x_shape or self._shape(xt)) is None:
            return super().prefers(xt, yt)
        total, top = shape
        filling = self.filling
        extra = [filling[j][b + 1] for j, (a, b) in enumerate(zip(xt, yt)) if a > b]
        if not extra:
            return True
        return total == self.quota and (top is None or min(extra) > top[0])

    def unit_response(
        self, z: Sequence[int], pos: int, shape: Shape = None
    ) -> tuple[str, int | None]:
        zt = tuple(z)
        shape = shape or self._shape(zt)
        if shape is None or zt[pos] >= self.caps[pos] or shape[0] > self.quota:
            return super().unit_response(zt, pos)
        total, top = shape
        if total < self.quota:
            return "absorb", None
        if top is not None and self.filling[pos][zt[pos] + 1] < top[0]:
            return "swap", top[1]
        return "same", None

    def swaps(self, z: Sequence[int], plus: int, minus: int, mu: int) -> bool:
        zt = tuple(z)
        shape = self._shape(zt)
        if shape is None or mu < 1 or plus == minus or zt[plus] + mu > self.caps[plus]:
            return super().swaps(zt, plus, minus, mu)
        if shape[0] != self.quota or zt[minus] < mu:
            return False
        filling = self.filling
        low = filling[minus][zt[minus] - mu + 1]
        return filling[plus][zt[plus] + mu] < low and all(
            filling[j][zj] < low for j, zj in enumerate(zt) if zj and j != minus
        )


# a3_filling builds columns of quota + 1 entries; at this quota
# `galloc gen --appendix` takes about a second on a 2-core VM.
A3_QUOTA_LIMIT = 2_000_000


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

    The only reader of the specs in ``inst.firm_cfs``; a poset build
    hands them to its parts unread.  Returns the evaluator kind, the
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
    if kind == "tableau-a3" and q > A3_QUOTA_LIMIT:
        raise ValidationError(
            f"firm {f!r}: tableau-a3 quota {q} is over the limit {A3_QUOTA_LIMIT:,}"
        )

    key = "order" if kind == "linear" else "columns"
    # tableau-a3 columns default to the incident edges in canonical order.
    cols = spec.get(key, inst.edges_of(f) if kind == "tableau-a3" else None)
    if cols is None:
        raise ValidationError(f"firm {f!r}: missing {key!r}")
    if not isinstance(cols, (list, tuple)):
        raise ValidationError(f"firm {f!r}: {key!r} must be a list of edge ids")
    local = inst._positions(f, cols, inst._firm_pos)
    if local is None:
        raise ValidationError(
            f"firm {f!r}: {key!r} is not a permutation of its incident edges"
        )
    if kind == "linear":
        return "firm-linear", q, local

    caps = tuple(map(inst.caps_of(f).__getitem__, local))
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
        ev = LinearChoice(v, "worker-linear", caps, inst._local_orders[v], inst.quota(v))
    else:
        kind, quota, table = inst._firm_rules[v]
        if kind == "tableau":
            ev = TableauChoice(v, caps, table, quota)
        else:
            ev = LinearChoice(v, kind, caps, table, quota)
    ev.fresh_total = inst._fresh_total
    inst._evaluators[v] = ev
    return ev


def total_choice_calls(inst: Instance) -> int:
    """Sum of memo misses across all evaluators built so far."""
    return sum(ev.call_count for ev in inst._evaluators.values())


def total_fresh_evaluations(inst: Instance) -> int:
    """Sum of fresh evaluations, of the rule or in closed form, so far."""
    return inst._fresh_total[0]


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
    accepted = [z for z in iter_box(cf.caps) if cf(z) == z]
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
