"""Problem instances, assignments, cost vectors, and their JSON forms.

An instance is a finite bipartite multigraph between workers and firms.
Every edge carries an integer capacity.  Workers have integer quotas and
rank their incident edges by a strict linear order (most preferred
first).  Firms choose through a choice function described by a small
spec dict; see :mod:`galloc.choice` for the supported kinds.

The canonical edge order is the order of the ``edges`` list in the
instance file.  Assignments are stored as value tuples in that order,
and every per-vertex "local" vector lists the vertex's incident edges in
that same order.

A command reads its instance once, and what grows with the number of
edges is done in one pass.  The edge records are read through one
``itemgetter`` and built as tuples without a Python call per edge.
Construction fills each vertex's incident list and records, in the same
loop, each edge's position at its worker and at its firm.  Validation
tests the edges as a whole (every end listed, every capacity a
nonnegative int) and walks them one by one only when that fails, to
list every problem.  It maps each worker order, and each firm's
order or columns, to local positions through those recorded positions,
which also proves it a permutation of the incident edges; the
evaluators, built on first use, read that mapping.  An assignment file
is checked and placed column by column the same way.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, repeat
from math import lcm
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .errors import GallocError, ValidationError

_INSTANCE_KEYS = frozenset(
    {"workers", "firms", "edges", "worker_quotas", "worker_orders", "firm_cfs", "meta"}
)
_EDGE_KEYS = frozenset({"id", "worker", "firm", "capacity"})
_EDGE_FIELDS = operator.itemgetter("id", "worker", "firm", "capacity")
# Costs, their common denominator and their scaled integers stay below
# this many digits; a decimal exponent is checked before expansion.
_COST_DIGITS = 1000
_COST_BOUND = 10**_COST_DIGITS
# Over such a denominator a total prints in at most 2,322 more digits than
# its scaled integer (a decimal expansion multiplies by up to 5**3322), so
# the largest reachable scaled total, sum |c_e| * b_e, stays below this
# many digits and every printed cost below Python's int-to-string limit.
_TOTAL_DIGITS = 1900
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")
_REQUIRED_FIELDS = (
    ("workers", (list, tuple), "a list"),
    ("firms", (list, tuple), "a list"),
    ("edges", (list, tuple), "a list"),
    ("worker_quotas", Mapping, "an object"),
    ("worker_orders", Mapping, "an object"),
    ("firm_cfs", Mapping, "an object"),
)


class Edge(NamedTuple):
    """One edge of the bipartite graph; a tuple, cheap to build per edge."""

    id: str
    worker: str
    firm: str
    capacity: int


@dataclass(frozen=True)
class Assignment:
    """Integer multiplicities on edges, in canonical edge order.

    Attributes:
        values: one integer per edge, aligned with ``Instance.edges``.

    The hash is ``hash(values)``, computed once per object.
    """

    values: tuple[int, ...]

    @functools.cached_property
    def _hash(self) -> int:
        return hash(self.values)

    def __hash__(self) -> int:
        return self._hash

    def to_mapping(self, inst: "Instance") -> dict[str, int]:
        return {e.id: v for e, v in zip(inst.edges, self.values)}


class Instance:
    """A validated allocation problem.

    Construction validates everything and raises ``ValidationError``
    listing all problems found.  The instance keeps the firm specs and
    ``meta`` it is given; ``instance_from_dict`` copies them out of a
    caller's document first.  Instances are immutable by convention,
    except for the memoizing evaluators :mod:`galloc.choice` keeps in
    them and the lookup tables built on first use (incident ids, far
    ends, local-vector getters).  The incident lists, each edge's
    positions at its two ends, ``b_max``, each worker's order as local
    positions and each firm's rule, read from its spec, are built here.
    """

    def __init__(
        self,
        workers: Iterable[str],
        firms: Iterable[str],
        edges: Iterable[Edge],
        worker_quotas: Mapping[str, int],
        worker_orders: Mapping[str, Iterable[str]],
        firm_cfs: Mapping[str, Mapping[str, Any]],
        meta: Mapping[str, Any] | None = None,
    ) -> None:
        self.workers: tuple[str, ...] = tuple(workers)
        self.firms: tuple[str, ...] = tuple(firms)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self.worker_quotas: dict[str, int] = dict(worker_quotas)
        self.worker_orders: dict[str, tuple[str, ...]] = {
            w: tuple(o) for w, o in worker_orders.items()
        }
        self.firm_cfs: dict[str, dict[str, Any]] = dict(firm_cfs)
        self.meta: dict[str, Any] = dict(meta or {})

        # Derived tables, built defensively so validation can run after.
        # Per vertex: incident edge indices.  Per edge: its capacity and
        # its position in the incident list of each end (None where that
        # end is not listed).
        edges, n = self.edges, len(self.edges)
        self._caps: tuple[int, ...] = tuple(map(operator.itemgetter(3), edges))
        ids = map(operator.itemgetter(0), edges)
        self.edge_index: dict[str, int] = dict(zip(ids, count()))
        incident: dict[str, list[int]] = {v: [] for v in self.workers + self.firms}
        listed = incident.get
        worker_pos: list[int | None] = [None] * n
        firm_pos: list[int | None] = [None] * n
        for i, (_, w, f, _) in enumerate(edges):
            indices = listed(f)
            if indices is not None:
                firm_pos[i] = len(indices)
                indices.append(i)
            indices = listed(w)
            if indices is not None:
                worker_pos[i] = len(indices)
                indices.append(i)
        self._worker_pos, self._firm_pos = worker_pos, firm_pos
        self.worker_index: dict[str, int] = {w: i for i, w in enumerate(self.workers)}
        self._indices_of: dict[str, tuple[int, ...]] = {
            v: tuple(indices) for v, indices in incident.items()
        }
        self._edges_of: dict[str, tuple[str, ...]] = {}  # by edges_of
        self._local_orders: dict[str, tuple[int, ...]] = {}  # by validate_instance
        self._far_ends: dict[str, list[tuple[int, str, int]]] = {}  # by far_ends
        self._getters: dict[str, Callable[[tuple[int, ...]], tuple[int, ...]]] = {}
        self._worker_set = frozenset(self.workers)
        self._evaluators: dict[str, Any] = {}  # filled lazily by galloc.choice
        self._fresh_total = [0]  # their fresh evaluations, kept by galloc.choice
        self._firm_rules: dict[str, tuple[str, int, tuple]] = {}  # by validate_instance

        validate_instance(self)
        self.b_max: int = max(self._caps, default=0)

    # -- lookups ---------------------------------------------------------

    def is_worker(self, v: str) -> bool:
        return v in self._worker_set

    def edges_of(self, v: str) -> tuple[str, ...]:
        """Incident edge ids of a vertex, in canonical order."""
        got = self._edges_of.get(v)
        if got is None:
            edges = self.edges
            got = self._edges_of[v] = tuple([edges[i].id for i in self._indices_of[v]])
        return got

    def edge_indices(self, v: str) -> tuple[int, ...]:
        """Positions in ``edges`` of a vertex's incident edges, canonical order."""
        return self._indices_of[v]

    def caps_of(self, v: str) -> tuple[int, ...]:
        return tuple(map(self._caps.__getitem__, self._indices_of[v]))

    def edge(self, eid: str) -> Edge:
        return self.edges[self.edge_index[eid]]

    def local_pos(self, v: str, eid: str) -> int:
        """The position of an incident edge among v's; KeyError otherwise."""
        i = self.edge_index[eid]
        e = self.edges[i]
        if v == e.worker:
            return self._worker_pos[i]
        if v == e.firm:
            return self._firm_pos[i]
        raise KeyError(eid)

    def far_ends(self, w: str) -> list[tuple[int, str, int]]:
        """Per local position of a worker: the edge index, its firm, and
        its position at that firm.  Built on first use."""
        row = self._far_ends.get(w)
        if row is None:
            edges, firm_pos = self.edges, self._firm_pos
            row = [(i, edges[i].firm, firm_pos[i]) for i in self._indices_of[w]]
            self._far_ends[w] = row
        return row

    def _positions(
        self, v: str, eids: Iterable[str], ends_pos: list[int | None]
    ) -> tuple[int, ...] | None:
        """The local positions at ``v`` of ``eids``, read from ``ends_pos``,
        the edge-end positions of v's side, when ``eids`` lists each of
        v's incident edges once; None otherwise.

        An edge is incident when the position it reads holds it at ``v``.
        """
        indices, index = self._indices_of[v], self.edge_index
        local = []
        try:
            for eid in eids:
                i = index[eid]
                pos = ends_pos[i]
                if indices[pos] != i:
                    return None
                local.append(pos)
        except (KeyError, IndexError, TypeError):  # foreign, unhashable or off-side
            return None
        if len(set(local)) == len(local) == len(indices):
            return tuple(local)
        return None

    def quota(self, w: str) -> int:
        return self.worker_quotas[w]

    # -- assignments -----------------------------------------------------

    def zero(self) -> Assignment:
        return Assignment((0,) * len(self.edges))

    def assignment(self, values: Iterable[int]) -> Assignment:
        vals = tuple(int(v) for v in values)
        if len(vals) != len(self.edges):
            raise GallocError(
                f"assignment has {len(vals)} values for {len(self.edges)} edges"
            )
        return Assignment(vals)

    def local_values(self, x: Assignment, v: str) -> tuple[int, ...]:
        get = self._getters.get(v)
        if get is None:
            indices = self._indices_of[v]
            if len(indices) == 1:  # itemgetter would return the bare value
                i = indices[0]
                get = lambda vals: (vals[i],)  # noqa: E731
            else:
                get = operator.itemgetter(*indices) if indices else lambda vals: ()
            self._getters[v] = get
        return get(x.values)

    def in_box(self, x: Assignment) -> bool:
        """Whether each value of ``x`` lies between 0 and its capacity."""
        vals, caps = x.values, self._caps
        return (
            len(vals) == len(caps)
            and min(vals, default=0) >= 0
            and all(map(operator.le, vals, caps))
        )

    def size_at(self, x: Assignment, v: str) -> int:
        return sum(self.local_values(x, v))

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "workers": list(self.workers),
            "firms": list(self.firms),
            "edges": [
                {"id": e.id, "worker": e.worker, "firm": e.firm, "capacity": e.capacity}
                for e in self.edges
            ],
            "worker_quotas": dict(self.worker_quotas),
            "worker_orders": {w: list(o) for w, o in self.worker_orders.items()},
            "firm_cfs": _copied(self.firm_cfs),
        }
        if self.meta:
            doc["meta"] = _copied(self.meta)
        return doc


def _copied(doc: Any) -> Any:
    """A copy of a JSON value with new dicts and lists all the way down."""
    if isinstance(doc, dict):
        return {k: _copied(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_copied(v) for v in doc]
    return doc


def shift(
    inst: Instance,
    x: Assignment,
    plus: Iterable[str],
    minus: Iterable[str],
    weight: int = 1,
) -> Assignment:
    """Add ``weight`` on every edge of ``plus`` and subtract it on ``minus``.

    Raises GallocError if the result leaves the capacity box.
    """
    if weight < 0:
        raise GallocError("shift weight must be nonnegative")
    vals = list(x.values)
    for eid in plus:
        i = inst.edge_index[eid]
        vals[i] += weight
        if vals[i] > inst.edges[i].capacity:
            raise GallocError(f"shift exceeds capacity on edge {eid}")
    for eid in minus:
        i = inst.edge_index[eid]
        vals[i] -= weight
        if vals[i] < 0:
            raise GallocError(f"shift goes negative on edge {eid}")
    return Assignment(tuple(vals))


def shift_room(
    inst: Instance, x: Assignment, plus: Iterable[str], minus: Iterable[str]
) -> int:
    """The largest weight ``shift`` accepts for these edges.

    That is the least room left on the added edges and the least load on
    the subtracted ones.
    """
    vals, idx = x.values, inst.edge_index
    return min(
        [inst.edges[idx[e]].capacity - vals[idx[e]] for e in plus]
        + [vals[idx[e]] for e in minus]
    )


# -- validation ----------------------------------------------------------


def validate_instance(inst: Instance) -> None:
    """Check structural sanity; raise ValidationError listing every problem."""
    errors: list[str] = []

    def dup(items: Iterable[str]) -> set[str]:
        seen: set[str] = set()
        out: set[str] = set()
        for it in items:
            if it in seen:
                out.add(it)
            seen.add(it)
        return out

    def not_int(c: Any) -> bool:
        return type(c) is not int and (not isinstance(c, int) or isinstance(c, bool))

    # A list is free of duplicates when its set (or index) is as long.
    workers = set(inst.workers)
    firms = set(inst.firms)
    if len(workers) != len(inst.workers):
        for d in sorted(dup(inst.workers)):
            errors.append(f"duplicate worker id {d!r}")
    if len(firms) != len(inst.firms):
        for d in sorted(dup(inst.firms)):
            errors.append(f"duplicate firm id {d!r}")
    for v in sorted(workers & firms):
        errors.append(f"id {v!r} used for both a worker and a firm")
    if len(inst.edge_index) != len(inst.edges):
        for d in sorted(dup(e.id for e in inst.edges)):
            errors.append(f"duplicate edge id {d!r}")

    # The edges are walked one by one, for their messages, only when a
    # test over all of them fails.
    edges, caps = inst.edges, inst._caps
    if not (
        workers.issuperset(map(operator.itemgetter(1), edges))
        and firms.issuperset(map(operator.itemgetter(2), edges))
        and set(map(type, caps)) <= {int}
        and min(caps, default=0) >= 0
    ):
        for e in edges:
            if e.worker not in workers:
                errors.append(f"edge {e.id!r} references unknown worker {e.worker!r}")
            if e.firm not in firms:
                errors.append(f"edge {e.id!r} references unknown firm {e.firm!r}")
            if not_int(e.capacity):
                errors.append(f"edge {e.id!r} capacity is not an integer")
            elif e.capacity < 0:
                errors.append(f"edge {e.id!r} has negative capacity {e.capacity}")

    for w in inst.workers:
        if w not in inst.worker_quotas:
            errors.append(f"missing quota for worker {w!r}")
    for w, q in inst.worker_quotas.items():
        if w not in workers:
            errors.append(f"quota for unknown worker {w!r}")
        elif not_int(q):
            errors.append(f"quota for worker {w!r} is not an integer")
        elif q < 0:
            errors.append(f"negative quota {q} for worker {w!r}")

    for w in inst.workers:
        if w not in inst.worker_orders:
            errors.append(f"missing order for worker {w!r}")
    # An order mapped to local positions is what the worker's evaluator
    # reads; the mapping fails unless the order is a permutation of the
    # worker's incident edges, and only then are its problems listed.
    for w, order in inst.worker_orders.items():
        if w not in workers:
            errors.append(f"order for unknown worker {w!r}")
            continue
        try:
            "".join(order)  # raises TypeError at an entry that is not a str
        except TypeError:
            local = None
        else:
            local = inst._positions(w, order, inst._worker_pos)
        if local is not None:
            inst._local_orders[w] = local
            continue
        incident = set(inst.edges_of(w))
        if not all(isinstance(eid, str) for eid in order):
            errors.append(f"order for worker {w!r} lists a non-string edge id")
            continue
        listed = set(order)
        if len(order) != len(listed):
            errors.append(f"order for worker {w!r} repeats an edge")
        for eid in sorted(listed - incident):
            errors.append(f"order for worker {w!r} lists non-incident edge {eid!r}")
        missing = incident - listed
        if missing:
            errors.append(
                f"incomplete order for worker {w!r}: missing {sorted(missing)}"
            )

    for f in inst.firms:
        if f not in inst.firm_cfs:
            errors.append(f"missing choice function for firm {f!r}")
    for f in inst.firm_cfs:
        if f not in firms:
            errors.append(f"choice function for unknown firm {f!r}")

    if errors:
        raise ValidationError("; ".join(errors))

    # Each firm's spec is read once, here; evaluators use what it returns.
    from .choice import read_firm_spec

    for f in inst.firms:
        try:
            inst._firm_rules[f] = read_firm_spec(inst, f)
        except ValidationError as exc:
            errors.append(str(exc))
    if errors:
        raise ValidationError("; ".join(errors))


# -- JSON ----------------------------------------------------------------


def _read_json(path: str | Path) -> Any:
    """Parsed JSON of a file; unreadable or malformed files raise GallocError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise GallocError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too long or deep
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def instance_from_dict(doc: Mapping[str, Any]) -> Instance:
    """Build an Instance from a parsed JSON document.

    The instance shares nothing with ``doc``: its firm specs and ``meta``
    are copied in depth.
    """
    return _build_instance(doc, copy=True)


def _build_instance(doc: Any, *, copy: bool) -> Instance:
    if not isinstance(doc, Mapping):
        raise ValidationError("instance document must be a JSON object")
    unknown = set(doc) - _INSTANCE_KEYS
    if unknown:
        raise ValidationError(f"unknown instance keys: {sorted(unknown)}")
    for key, kind, what in _REQUIRED_FIELDS:
        if key not in doc:
            raise ValidationError(f"missing instance key {key!r}")
        if not isinstance(doc[key], kind):
            raise ValidationError(f"{key} must be {what}")
    edges = _edge_records(doc["edges"])
    for w, order in doc["worker_orders"].items():
        if not isinstance(order, (list, tuple)):
            raise ValidationError(f"order for worker {w!r} must be a list of edge ids")
    for f, spec in doc["firm_cfs"].items():
        if not isinstance(spec, Mapping):
            raise ValidationError(f"choice function for firm {f!r} must be an object")
    meta = doc.get("meta")
    if meta is not None and not isinstance(meta, Mapping):
        raise ValidationError("meta must be an object")
    firm_cfs = doc["firm_cfs"]
    if copy:
        firm_cfs, meta = _copied(dict(firm_cfs)), _copied(dict(meta or {}))
    return Instance(
        map(str, doc["workers"]),
        map(str, doc["firms"]),
        edges,
        doc["worker_quotas"],
        doc["worker_orders"],
        firm_cfs,
        meta,
    )


def _edge_records(records: Any) -> list[Edge]:
    """The edge records read from their objects, ids read through str.

    Raises ValidationError at the first record that is not an object with
    exactly the edge keys; the records are walked one by one only when a
    test over all of them fails.  Each record is built by tuple.__new__,
    as ``Edge._make`` does, from one itemgetter call, so no Python code
    runs per edge and nothing per edge outlives its record.
    """

    def built() -> list[Edge]:
        return list(map(tuple.__new__, repeat(Edge), map(_EDGE_FIELDS, records)))

    edges = None
    if set(map(type, records)) <= {dict} and set(map(len, records)) <= {len(_EDGE_KEYS)}:
        try:
            edges = built()
        except KeyError:
            pass
    if edges is None:
        for i, e in enumerate(records):
            if type(e) is not dict and not isinstance(e, Mapping):
                raise ValidationError(f"edge #{i} is not an object")
            if e.keys() != _EDGE_KEYS:
                bad = set(e) - _EDGE_KEYS
                if bad:
                    raise ValidationError(f"edge #{i} has unknown keys {sorted(bad)}")
                missing = _EDGE_KEYS - set(e)
                raise ValidationError(f"edge #{i} missing keys {sorted(missing)}")
        edges = built()
    try:
        for k in range(3):  # str.join raises TypeError at a field not a str
            "".join(map(operator.itemgetter(k), edges))
    except TypeError:
        edges = [Edge(str(e.id), str(e.worker), str(e.firm), e.capacity) for e in edges]
    return edges


def load_instance(path: str | Path) -> Instance:
    # Nothing else holds the parse, so the instance may keep its parts.
    return _build_instance(_read_json(path), copy=False)


def assignment_from_doc(inst: Instance, doc: Mapping[str, Any]) -> Assignment:
    """Read an assignment from a solution document or a bare edge mapping."""
    if not isinstance(doc, Mapping):
        raise ValidationError("assignment document must be a JSON object")
    mapping = doc.get("assignment", doc)
    if not isinstance(mapping, Mapping):
        if "assignment" not in inst.edge_index:
            raise ValidationError("assignment must be an object of edge values")
        mapping = doc  # a bare mapping with an edge named "assignment"
    # The values are checked column by column; the items are walked one
    # by one, for the message of the first bad one, only when that fails.
    index, caps = inst.edge_index, inst._caps
    values = list(mapping.values())
    try:
        at = list(map(index.__getitem__, mapping))
    except (KeyError, TypeError):  # an unknown or unhashable edge id
        at = None
    if not (
        at is not None
        and set(map(type, values)) <= {int}
        and min(values, default=0) >= 0
        and all(map(operator.le, values, map(caps.__getitem__, at)))
    ):
        at = []
        for eid, v in mapping.items():
            if eid not in index:
                raise ValidationError(f"assignment references unknown edge {eid!r}")
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValidationError(f"assignment value for edge {eid!r} is not an integer")
            cap = inst.edge(eid).capacity
            if v < 0 or v > cap:
                raise ValidationError(
                    f"assignment value {v} for edge {eid!r} is outside [0, {cap}]"
                )
            at.append(index[eid])
    vals = [0] * len(inst.edges)
    for i, v in zip(at, values):
        vals[i] = v
    return Assignment(tuple(vals))


def load_assignment(inst: Instance, path: str | Path) -> Assignment:
    return assignment_from_doc(inst, _read_json(path))


def solution_doc(inst: Instance, x: Assignment) -> dict[str, Any]:
    """The output document of a point its pipeline has certified stable."""
    return {"assignment": x.to_mapping(inst), "stable": True}


# -- costs ---------------------------------------------------------------


def _as_fraction(v: Any, where: str) -> Fraction:
    if isinstance(v, bool):
        raise ValidationError(f"cost for {where} is not a number")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValidationError(f"cost for {where} is not finite: {v!r}")
        # Read the float through its shortest decimal repr so 0.1 means 1/10.
        return Fraction(str(v))
    if isinstance(v, str):
        m = _EXPONENT.search(v)
        exp = m.group(1).replace("_", "").lstrip("0") if m else ""
        if len(exp) > len(str(_COST_DIGITS)) or int(exp or 0) > _COST_DIGITS:
            raise ValidationError(f"cost for {where} has an exponent over {_COST_DIGITS}")
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cost for {where} is not a number: {v!r}") from exc
    raise ValidationError(f"cost for {where} is not a number")


@dataclass(frozen=True)
class CostVector:
    """Per-edge costs as exact rationals, in canonical edge order.

    Edge i costs ``ints[i] / scale``, where ``scale`` is the least common
    denominator of the costs (1 when every cost is an integer).
    """

    ints: tuple[int, ...]
    scale: int

    @classmethod
    def from_doc(cls, inst: Instance, doc: Mapping[str, Any]) -> "CostVector":
        if not isinstance(doc, Mapping):
            raise ValidationError("cost document must be a JSON object")
        index = inst.edge_index
        read: list[tuple[int, int | Fraction]] = []
        scale = 1
        for eid, v in doc.items():
            if eid not in index:
                raise ValidationError(f"cost references unknown edge {eid!r}")
            c = v if type(v) is int else _as_fraction(v, f"edge {eid!r}")
            read.append((index[eid], c))
            if type(c) is not int:
                scale = lcm(scale, c.denominator)
                if scale >= _COST_BOUND:
                    break
        ints = [0] * len(inst.edges)
        if scale < _COST_BOUND:
            for i, c in read:
                ints[i] = c.numerator * scale // c.denominator
        if scale >= _COST_BOUND or any(abs(n) >= _COST_BOUND for n in ints):
            raise ValidationError(
                f"costs need over {_COST_DIGITS} digits over a common denominator"
            )
        reach = sum(abs(n) * e.capacity for n, e in zip(ints, inst.edges))
        if reach >= 10**_TOTAL_DIGITS:
            raise ValidationError(
                f"costs times capacities reach over {_TOTAL_DIGITS} digits "
                "over a common denominator"
            )
        return cls(tuple(ints), scale)

    @classmethod
    def load(cls, inst: Instance, path: str | Path) -> "CostVector":
        return cls.from_doc(inst, _read_json(path))

    def cost_of(self, x: Assignment) -> Fraction:
        return Fraction(sum(map(operator.mul, self.ints, x.values)), self.scale)


def fraction_str(fr: Fraction) -> str:
    """Exact decimal string when the denominator is 2^a * 5^b, else 'p/q'."""
    den = fr.denominator
    if den == 1:
        return str(fr.numerator)
    d = den
    twos = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    fives = 0
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{fr.numerator}/{fr.denominator}"
    digits = max(twos, fives)
    scaled = fr.numerator * 10**digits // den
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:]
    return f"{sign}{whole}.{frac}"
