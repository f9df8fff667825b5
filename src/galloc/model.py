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
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Any

from .errors import GallocError, ValidationError

_INSTANCE_KEYS = frozenset(
    {"workers", "firms", "edges", "worker_quotas", "worker_orders", "firm_cfs", "meta"}
)
_EDGE_KEYS = frozenset({"id", "worker", "firm", "capacity"})
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


@dataclass(frozen=True)
class Edge:
    """One edge of the bipartite graph."""

    id: str
    worker: str
    firm: str
    capacity: int


@dataclass(frozen=True)
class Assignment:
    """Integer multiplicities on edges, in canonical edge order.

    Attributes:
        values: one integer per edge, aligned with ``Instance.edges``.
    """

    values: tuple[int, ...]

    def to_mapping(self, inst: "Instance") -> dict[str, int]:
        return {e.id: v for e, v in zip(inst.edges, self.values)}


class Instance:
    """A validated allocation problem.

    Construction validates everything and raises ``ValidationError``
    listing all problems found.  Firm specs and ``meta`` are copied in
    depth.  Instances are immutable by convention, except for the
    memoizing evaluators :mod:`galloc.choice` keeps in them; lookup
    tables and each firm's rule, read from its spec, are built here.
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
        self.firm_cfs: dict[str, dict[str, Any]] = _copied(dict(firm_cfs))
        self.meta: dict[str, Any] = _copied(dict(meta or {}))

        # Derived tables; built defensively so validation can run after.
        self.edge_index: dict[str, int] = {}
        incident: dict[str, list[int]] = {v: [] for v in self.workers + self.firms}
        for i, e in enumerate(self.edges):
            self.edge_index.setdefault(e.id, i)
            for v in (e.worker, e.firm):
                if v in incident:
                    incident[v].append(i)
        self.worker_index: dict[str, int] = {w: i for i, w in enumerate(self.workers)}
        self._indices_of: dict[str, tuple[int, ...]] = {
            v: tuple(ii) for v, ii in incident.items()
        }
        self._edges_of: dict[str, tuple[str, ...]] = {
            v: tuple([self.edges[i].id for i in ii]) for v, ii in incident.items()
        }
        self._local_pos: dict[str, dict[str, int]] = {
            v: {eid: i for i, eid in enumerate(ids)} for v, ids in self._edges_of.items()
        }
        self._worker_set = frozenset(self.workers)
        self._evaluators: dict[str, Any] = {}  # filled lazily by galloc.choice
        self._firm_rules: dict[str, tuple[str, int, tuple]] = {}  # by validate_instance

        validate_instance(self)

    # -- lookups ---------------------------------------------------------

    def is_worker(self, v: str) -> bool:
        return v in self._worker_set

    def edges_of(self, v: str) -> tuple[str, ...]:
        """Incident edge ids of a vertex, in canonical order."""
        return self._edges_of[v]

    def edge_indices(self, v: str) -> tuple[int, ...]:
        """Positions in ``edges`` of a vertex's incident edges, canonical order."""
        return self._indices_of[v]

    def caps_of(self, v: str) -> tuple[int, ...]:
        edges = self.edges
        return tuple([edges[i].capacity for i in self._indices_of[v]])

    def edge(self, eid: str) -> Edge:
        return self.edges[self.edge_index[eid]]

    def local_pos(self, v: str, eid: str) -> int:
        return self._local_pos[v][eid]

    def quota(self, w: str) -> int:
        return self.worker_quotas[w]

    @property
    def b_max(self) -> int:
        return max((e.capacity for e in self.edges), default=0)

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
        vals = x.values
        return tuple([vals[i] for i in self._indices_of[v]])

    def size_at(self, x: Assignment, v: str) -> int:
        return sum(self.local_values(x, v))

    def last_supported(self, x: Assignment, w: str) -> int | None:
        """Position of w's least preferred edge with positive value.

        None when the worker holds nothing.
        """
        order = self.worker_orders[w]
        for r in range(len(order) - 1, -1, -1):
            if x.values[self.edge_index[order[r]]] > 0:
                return r
        return None

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

    for d in sorted(dup(inst.workers)):
        errors.append(f"duplicate worker id {d!r}")
    for d in sorted(dup(inst.firms)):
        errors.append(f"duplicate firm id {d!r}")
    for v in sorted(set(inst.workers) & set(inst.firms)):
        errors.append(f"id {v!r} used for both a worker and a firm")
    for d in sorted(dup(e.id for e in inst.edges)):
        errors.append(f"duplicate edge id {d!r}")

    workers = set(inst.workers)
    firms = set(inst.firms)
    for e in inst.edges:
        if e.worker not in workers:
            errors.append(f"edge {e.id!r} references unknown worker {e.worker!r}")
        if e.firm not in firms:
            errors.append(f"edge {e.id!r} references unknown firm {e.firm!r}")
        if not isinstance(e.capacity, int) or isinstance(e.capacity, bool):
            errors.append(f"edge {e.id!r} capacity is not an integer")
        elif e.capacity < 0:
            errors.append(f"edge {e.id!r} has negative capacity {e.capacity}")

    for w in inst.workers:
        if w not in inst.worker_quotas:
            errors.append(f"missing quota for worker {w!r}")
    for w, q in inst.worker_quotas.items():
        if w not in workers:
            errors.append(f"quota for unknown worker {w!r}")
        elif not isinstance(q, int) or isinstance(q, bool):
            errors.append(f"quota for worker {w!r} is not an integer")
        elif q < 0:
            errors.append(f"negative quota {q} for worker {w!r}")

    for w in inst.workers:
        if w not in inst.worker_orders:
            errors.append(f"missing order for worker {w!r}")
    for w, order in inst.worker_orders.items():
        if w not in workers:
            errors.append(f"order for unknown worker {w!r}")
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
    """Build an Instance from a parsed JSON document."""
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
    edges = []
    for i, e in enumerate(doc["edges"]):
        if not isinstance(e, Mapping):
            raise ValidationError(f"edge #{i} is not an object")
        if e.keys() != _EDGE_KEYS:
            bad = set(e) - _EDGE_KEYS
            if bad:
                raise ValidationError(f"edge #{i} has unknown keys {sorted(bad)}")
            missing = _EDGE_KEYS - set(e)
            raise ValidationError(f"edge #{i} missing keys {sorted(missing)}")
        edges.append(Edge(str(e["id"]), str(e["worker"]), str(e["firm"]), e["capacity"]))
    for w, order in doc["worker_orders"].items():
        if not isinstance(order, (list, tuple)):
            raise ValidationError(f"order for worker {w!r} must be a list of edge ids")
    for f, spec in doc["firm_cfs"].items():
        if not isinstance(spec, Mapping):
            raise ValidationError(f"choice function for firm {f!r} must be an object")
    meta = doc.get("meta")
    if meta is not None and not isinstance(meta, Mapping):
        raise ValidationError("meta must be an object")
    return Instance(
        [str(w) for w in doc["workers"]],
        [str(f) for f in doc["firms"]],
        edges,
        doc["worker_quotas"],
        doc["worker_orders"],
        doc["firm_cfs"],
        meta,
    )


def load_instance(path: str | Path) -> Instance:
    return instance_from_dict(_read_json(path))


def assignment_from_doc(inst: Instance, doc: Mapping[str, Any]) -> Assignment:
    """Read an assignment from a solution document or a bare edge mapping."""
    if not isinstance(doc, Mapping):
        raise ValidationError("assignment document must be a JSON object")
    mapping = doc.get("assignment", doc)
    if not isinstance(mapping, Mapping):
        raise ValidationError("assignment must be an object of edge values")
    vals = [0] * len(inst.edges)
    for eid, v in mapping.items():
        if eid not in inst.edge_index:
            raise ValidationError(f"assignment references unknown edge {eid!r}")
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValidationError(f"assignment value for edge {eid!r} is not an integer")
        cap = inst.edge(eid).capacity
        if v < 0 or v > cap:
            raise ValidationError(
                f"assignment value {v} for edge {eid!r} is outside [0, {cap}]"
            )
        vals[inst.edge_index[eid]] = v
    return Assignment(tuple(vals))


def load_assignment(inst: Instance, path: str | Path) -> Assignment:
    return assignment_from_doc(inst, _read_json(path))


def solution_doc(inst: Instance, x: Assignment, stable: bool) -> dict[str, Any]:
    return {"assignment": x.to_mapping(inst), "stable": stable}


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
    """Per-edge costs as exact rationals, in canonical edge order."""

    values: tuple[Fraction, ...]

    @classmethod
    def from_doc(cls, inst: Instance, doc: Mapping[str, Any]) -> "CostVector":
        if not isinstance(doc, Mapping):
            raise ValidationError("cost document must be a JSON object")
        vals = [Fraction(0)] * len(inst.edges)
        scale = 1
        for eid, v in doc.items():
            if eid not in inst.edge_index:
                raise ValidationError(f"cost references unknown edge {eid!r}")
            c = vals[inst.edge_index[eid]] = _as_fraction(v, f"edge {eid!r}")
            scale = lcm(scale, c.denominator)
            if scale >= _COST_BOUND:
                break
        if scale >= _COST_BOUND or any(abs(c * scale) >= _COST_BOUND for c in vals):
            raise ValidationError(
                f"costs need over {_COST_DIGITS} digits over a common denominator"
            )
        reach = sum(abs(c * scale) * e.capacity for c, e in zip(vals, inst.edges))
        if reach >= 10**_TOTAL_DIGITS:
            raise ValidationError(
                f"costs times capacities reach over {_TOTAL_DIGITS} digits "
                "over a common denominator"
            )
        return cls(tuple(vals))

    @classmethod
    def load(cls, inst: Instance, path: str | Path) -> "CostVector":
        return cls.from_doc(inst, _read_json(path))

    def cost_of(self, x: Assignment) -> Fraction:
        return sum((c * v for c, v in zip(self.values, x.values)), Fraction(0))

    def scaled_integers(self) -> tuple[tuple[int, ...], int]:
        """Costs as integers after clearing denominators; returns (costs, scale)."""
        scale = lcm(*(c.denominator for c in self.values)) if self.values else 1
        return tuple(int(c * scale) for c in self.values), scale


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
