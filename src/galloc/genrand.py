"""Seeded instance generation for differential testing.

Instances come out of a documented PRNG (numpy's PCG64) so that a seed
pins the instance bit-for-bit; the seed and algorithm id are recorded
in the instance metadata.  Besides random families there is the ring
family: three workers and three firms whose tableau choice functions
produce a chain of q+1 stable assignments and, for q >= 4, a full
route that repeats rotations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .errors import ValidationError
from .model import Instance, instance_from_dict

if TYPE_CHECKING:
    import numpy as np

FAMILIES = ("linear", "tableau", "tableau-a3", "mixed")

# `galloc gen` draws once per worker-firm pair and deals one cell per edge
# and unit of capacity to tableau fillings; at either limit it takes 3 to
# 9 seconds on a 2-core VM.
PAIR_LIMIT = 100_000
TABLEAU_CELL_LIMIT = 1_000_000


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for one random instance.

    ``density`` is the probability of each worker-firm pair beyond the
    connecting tree.  ``b_cap_for_gapless`` caps every capacity; at 2
    the instance is gapless regardless of the choice functions.
    """

    seed: int
    workers: int = 3
    firms: int = 3
    density: float = 0.7
    capacity_bound: int = 2
    quota_bound: int = 4
    family: str = "linear"
    b_cap_for_gapless: int | None = None

    def check(self) -> None:
        if self.workers < 1 or self.firms < 1:
            raise ValidationError("worker and firm counts must be positive")
        if not 0 < self.density <= 1:
            raise ValidationError("density must be in (0, 1]")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if self.capacity_bound < 1 or self.quota_bound < 1:
            raise ValidationError("capacity and quota bounds must be positive")
        if max(self.capacity_bound, self.quota_bound) >= 2**63:
            # numpy draws the capacities and quotas as int64.
            raise ValidationError("capacity and quota bounds must be below 2**63")
        if self.family not in FAMILIES:
            raise ValidationError(
                f"family must be one of {', '.join(FAMILIES)}"
            )
        if self.b_cap_for_gapless is not None and self.b_cap_for_gapless < 1:
            raise ValidationError("the gapless capacity cap must be positive")
        pairs = self.workers * self.firms
        if pairs > PAIR_LIMIT:
            raise ValidationError(f"{pairs:,} worker-firm pairs are over the limit {PAIR_LIMIT:,}")
        cells = pairs * (min(self.capacity_bound, self.b_cap_for_gapless or 2**63) + 1)
        if self.family in ("tableau", "mixed") and cells > TABLEAU_CELL_LIMIT:
            raise ValidationError(
                f"tableau fillings of up to {cells:,} cells are over the limit "
                f"{TABLEAU_CELL_LIMIT:,}"
            )


def _connected_pairs(
    rng: np.random.Generator, n_workers: int, n_firms: int, density: float
) -> list[tuple[int, int]]:
    """Worker-firm pairs forming a connected bipartite graph."""
    vertices = [("w", i) for i in range(n_workers)] + [("f", i) for i in range(n_firms)]
    perm = rng.permutation(len(vertices))
    queue = deque(vertices[i] for i in perm)
    placed: dict[str, list[int]] = {"w": [], "f": []}
    first = queue.popleft()
    placed[first[0]].append(first[1])
    pairs: set[tuple[int, int]] = set()
    while queue:
        side, i = queue.popleft()
        other = "f" if side == "w" else "w"
        if not placed[other]:
            queue.append((side, i))
            continue
        j = placed[other][int(rng.integers(len(placed[other])))]
        pairs.add((i, j) if side == "w" else (j, i))
        placed[side].append(i)
    for wi in range(n_workers):
        for fj in range(n_firms):
            if (wi, fj) not in pairs and rng.random() < density:
                pairs.add((wi, fj))
    return sorted(pairs)


def _tableau_spec(
    rng: np.random.Generator, edge_ids: list[str], caps: list[int], quota: int
) -> dict:
    cells = len(caps) + sum(caps)
    deal = [int(v) + 1 for v in rng.permutation(cells)]
    columns: list[list[int]] = []
    at = 0
    for c in caps:
        columns.append(sorted(deal[at : at + c + 1]))
        at += c + 1
    return {
        "type": "tableau",
        "columns": list(edge_ids),
        "quota": quota,
        "filling": columns,
    }


def generate(config: GeneratorConfig) -> Instance:
    """Deterministic random instance for a config and its seed."""
    config.check()
    if config.family == "tableau-a3":
        if config.workers != 3 or config.firms != 3:
            raise ValidationError("the tableau-a3 family needs 3 workers and 3 firms")
        q = config.quota_bound
        if q % 2:
            raise ValidationError(
                f"the tableau-a3 family uses the quota bound (--quota-bound) as "
                f"its ring's quota, which must be even; got {q}"
            )
        return make_ring_instance(q)
    import numpy as np  # only a random draw needs it

    rng = np.random.Generator(np.random.PCG64(config.seed))
    cap_bound = config.capacity_bound
    if config.b_cap_for_gapless is not None:
        cap_bound = min(cap_bound, config.b_cap_for_gapless)

    pairs = _connected_pairs(rng, config.workers, config.firms, config.density)
    workers = [f"w{i + 1}" for i in range(config.workers)]
    firms = [f"f{j + 1}" for j in range(config.firms)]
    edges = []
    for k, (wi, fj) in enumerate(pairs):
        edges.append(
            {
                "id": f"e{k + 1}",
                "worker": workers[wi],
                "firm": firms[fj],
                "capacity": int(rng.integers(1, cap_bound + 1)),
            }
        )

    incident: dict[str, list[dict]] = {v: [] for v in workers + firms}
    for e in edges:
        incident[e["worker"]].append(e)
        incident[e["firm"]].append(e)
    quotas = {w: int(rng.integers(1, config.quota_bound + 1)) for w in workers}
    orders = {}
    for w in workers:
        own = [e["id"] for e in incident[w]]
        orders[w] = [own[int(i)] for i in rng.permutation(len(own))]

    cfs = {}
    for f in firms:
        own = [e["id"] for e in incident[f]]
        caps = [e["capacity"] for e in incident[f]]
        quota = int(rng.integers(1, config.quota_bound + 1))
        kind = config.family
        if kind == "mixed":
            kind = ("linear", "tableau")[int(rng.integers(2))]
        if kind == "linear":
            order = [own[int(i)] for i in rng.permutation(len(own))]
            cfs[f] = {"type": "linear", "order": order, "quota": quota}
        else:
            cfs[f] = _tableau_spec(rng, own, caps, quota)

    return instance_from_dict(
        {
            "workers": workers,
            "firms": firms,
            "edges": edges,
            "worker_quotas": quotas,
            "worker_orders": orders,
            "firm_cfs": cfs,
            "meta": {
                "generator": "galloc.genrand",
                "prng": "pcg64",
                "seed": config.seed,
                "config": asdict(config),
            },
        }
    )


def make_ring_instance(q: int) -> Instance:
    """The three-by-three ring with matched tableau choice functions.

    Worker i is linked to firm i by an edge of capacity q and to its
    two neighbours by edges of capacity q/2, preferring the neighbours;
    each firm runs the stock tableau on quota q.  The stable set is a
    chain of q+1 assignments.
    """
    if q < 2 or q % 2 != 0:
        raise ValidationError("the ring family needs an even quota of at least 2")
    half = q // 2

    def a(i: int) -> str:
        return f"a{i + 1}"

    def c(i: int) -> str:
        return f"c{i + 1}"

    def d(i: int) -> str:
        return f"d{i + 1}"

    workers = [f"w{i + 1}" for i in range(3)]
    firms = [f"f{i + 1}" for i in range(3)]
    edges = []
    for i in range(3):
        edges.append({"id": a(i), "worker": workers[i], "firm": firms[i], "capacity": q})
        edges.append(
            {"id": c(i), "worker": workers[i], "firm": firms[(i + 1) % 3], "capacity": half}
        )
        edges.append(
            {"id": d(i), "worker": workers[i], "firm": firms[(i - 1) % 3], "capacity": half}
        )
    orders = {workers[i]: [c(i), d(i), a(i)] for i in range(3)}
    cfs = {
        firms[i]: {
            "type": "tableau-a3",
            "quota": q,
            "columns": [a(i), c((i - 1) % 3), d((i + 1) % 3)],
        }
        for i in range(3)
    }
    return instance_from_dict(
        {
            "workers": workers,
            "firms": firms,
            "edges": edges,
            "worker_quotas": {w: q for w in workers},
            "worker_orders": orders,
            "firm_cfs": cfs,
            "meta": {"generator": "galloc.genrand", "family": "ring", "q": q},
        }
    )


__all__ = ["GeneratorConfig", "generate", "make_ring_instance", "FAMILIES"]
