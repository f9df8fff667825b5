"""Seeded instance builders for the benchmark, with closed-form answers.

Three structured families are built here, each with answers known
without running the solver:

* ``latin(n, cap, quota)``: the cyclic instance on a complete n x n
  graph (Irving & Leather 1986; Gusfield & Irving 1989).  Worker i ranks
  firms i, i+1, ... (mod n); firm j runs a linear choice function over
  workers j+1, j+2, ... (mod n).  Every edge has capacity ``cap`` and
  every vertex quota ``quota``, a multiple of ``cap``.  At the minimum
  worker i holds firms i, i+1, ... at full capacity; at the maximum firm
  j holds workers j+1, j+2, ... at full capacity.  With cap 1 and quota 1
  the lattice is a chain and the full route has n-1 steps of weight 1.
* ``rings(k, q)``: k disjoint copies of the appendix ring with quota q.
  At the minimum every ``a`` edge is 0 and every ``c`` and ``d`` edge
  q/2; at the maximum every ``a`` edge is q and the others 0.  The
  route and the general poset both have k*q unit-weight entries.
* ``random_complete(n)``: a complete n x n instance with capacity 1,
  quota 1 and seeded strict orders on both sides.  It has no closed
  form; the benchmark checks it through cross-checks instead.

Every builder relabels ids and permutes the lists whose order carries
no meaning from its seed.  The random instances are drawn from a
separate ``draw`` number, which the benchmark keeps fixed, so that the
work done is the same for every seed.  The program only ever sees the
generated documents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from galloc import GeneratorConfig, generate, make_ring_instance


@dataclass(frozen=True)
class Built:
    """One instance document and the answers known for it in closed form.

    Attributes:
        name: short description, for messages.
        doc: the instance document, ready to be written as JSON.
        xmin, xmax: the extreme allocations as edge-id mappings (omitted
            edges are 0), or None when no closed form is known.
        unit_route: when set, the full route has exactly this many
            steps, every one of weight 1.
        unit_elements: when set, the general poset has exactly this many
            elements, every one of weight 1.
        gapless: the instance is gapless by construction (every firm is
            linear, or no capacity exceeds 2), so ``mincost`` must work.
    """

    name: str
    doc: dict
    xmin: dict | None = None
    xmax: dict | None = None
    unit_route: int | None = None
    unit_elements: int | None = None
    gapless: bool = False


def rng_for(seed: int, *salt: int) -> np.random.Generator:
    """A PCG64 generator for a seed, split by integer salts."""
    return np.random.Generator(np.random.PCG64([seed, *salt]))


def _fresh_ids(rng: np.random.Generator, prefix: str, n: int) -> list[str]:
    nums = rng.choice(10 * n + 1000, size=n, replace=False)
    return [f"{prefix}{int(v)}" for v in nums]


def relabel(doc: dict, rng: np.random.Generator) -> tuple[dict, dict[str, str]]:
    """Rename every id and permute every list whose order has no meaning.

    Preference orders and tableau-a3 column orders keep their order;
    the columns of an explicit tableau move together with their filling.
    Returns the new document and the map from old ids to new ones.
    """
    names: dict[str, str] = {}
    for key, prefix in (("workers", "w"), ("firms", "f")):
        names.update(zip(doc[key], _fresh_ids(rng, prefix, len(doc[key]))))
    edge_ids = [e["id"] for e in doc["edges"]]
    names.update(zip(edge_ids, _fresh_ids(rng, "e", len(edge_ids))))

    def shuffled(items: list) -> list:
        return [items[int(i)] for i in rng.permutation(len(items))]

    workers = shuffled([names[w] for w in doc["workers"]])
    firms = shuffled([names[f] for f in doc["firms"]])
    edges = shuffled(
        [
            {
                "id": names[e["id"]],
                "worker": names[e["worker"]],
                "firm": names[e["firm"]],
                "capacity": e["capacity"],
            }
            for e in doc["edges"]
        ]
    )
    quotas = {names[w]: q for w, q in shuffled(list(doc["worker_quotas"].items()))}
    orders = {
        names[w]: [names[e] for e in order]
        for w, order in shuffled(list(doc["worker_orders"].items()))
    }
    cfs = {}
    for f, spec in shuffled(list(doc["firm_cfs"].items())):
        spec = dict(spec)
        if spec["type"] == "linear":
            spec["order"] = [names[e] for e in spec["order"]]
        elif spec["type"] == "tableau":
            cols = shuffled(list(zip(spec["columns"], spec["filling"])))
            spec["columns"] = [names[e] for e, _ in cols]
            spec["filling"] = [list(col) for _, col in cols]
        else:
            spec["columns"] = [names[e] for e in spec["columns"]]
        cfs[names[f]] = spec
    out = {
        "workers": workers,
        "firms": firms,
        "edges": edges,
        "worker_quotas": quotas,
        "worker_orders": orders,
        "firm_cfs": cfs,
    }
    return out, names


def _renamed(mapping: dict[str, int], names: dict[str, str]) -> dict[str, int]:
    return {names[e]: v for e, v in mapping.items()}


def latin(n: int, cap: int = 1, quota: int | None = None, seed: int = 0) -> Built:
    """The cyclic Latin instance of size n, relabelled by the seed."""
    quota = cap if quota is None else quota
    m, rest = divmod(quota, cap)
    if rest or not 1 <= m <= n:
        raise ValueError("quota must be cap times a number from 1 to n")

    def e(i: int, j: int) -> str:
        return f"e{i % n}_{j % n}"

    workers = [f"w{i}" for i in range(n)]
    firms = [f"f{j}" for j in range(n)]
    doc = {
        "workers": workers,
        "firms": firms,
        "edges": [
            {"id": e(i, j), "worker": workers[i], "firm": firms[j], "capacity": cap}
            for i in range(n)
            for j in range(n)
        ],
        "worker_quotas": {w: quota for w in workers},
        "worker_orders": {workers[i]: [e(i, i + k) for k in range(n)] for i in range(n)},
        "firm_cfs": {
            firms[j]: {
                "type": "linear",
                "order": [e(j + 1 + k, j) for k in range(n)],
                "quota": quota,
            }
            for j in range(n)
        },
    }
    xmin = {e(i, i + k): cap for i in range(n) for k in range(m)}
    xmax = {e(j + 1 + k, j): cap for j in range(n) for k in range(m)}
    doc, names = relabel(doc, rng_for(seed, 1, n, cap, quota))
    return Built(
        f"latin {n} cap {cap} quota {quota}",
        doc,
        _renamed(xmin, names),
        _renamed(xmax, names),
        unit_route=n - 1 if quota == 1 else None,
        gapless=True,
    )


def random_complete(n: int, seed: int = 0, draw: int | None = None) -> Built:
    """Complete n x n instance, capacity and quotas 1, random strict orders.

    The orders are drawn from ``draw`` when it is given and from ``seed``
    otherwise; the seed always relabels and permutes the result.
    """
    rng = rng_for(seed if draw is None else draw, 2, n)
    workers = [f"w{i}" for i in range(n)]
    firms = [f"f{j}" for j in range(n)]

    def e(i: int, j: int) -> str:
        return f"e{i}_{j}"

    doc = {
        "workers": workers,
        "firms": firms,
        "edges": [
            {"id": e(i, j), "worker": workers[i], "firm": firms[j], "capacity": 1}
            for i in range(n)
            for j in range(n)
        ],
        "worker_quotas": {w: 1 for w in workers},
        "worker_orders": {
            workers[i]: [e(i, int(j)) for j in rng.permutation(n)] for i in range(n)
        },
        "firm_cfs": {
            firms[j]: {
                "type": "linear",
                "order": [e(int(i), j) for i in rng.permutation(n)],
                "quota": 1,
            }
            for j in range(n)
        },
    }
    doc, _ = relabel(doc, rng_for(seed, 2, n, 1))
    return Built(f"random complete {n}", doc, gapless=True)


def rings(k: int, q: int, seed: int = 0) -> Built:
    """k disjoint copies of the appendix ring with quota q, relabelled."""
    ring = make_ring_instance(q).to_dict()
    doc: dict = {key: [] for key in ("workers", "firms", "edges")}
    doc.update(worker_quotas={}, worker_orders={}, firm_cfs={})
    xmin: dict[str, int] = {}
    xmax: dict[str, int] = {}
    for c in range(k):

        def r(name: str) -> str:
            return f"{name}_{c}"

        doc["workers"] += [r(w) for w in ring["workers"]]
        doc["firms"] += [r(f) for f in ring["firms"]]
        for e in ring["edges"]:
            doc["edges"].append(
                {
                    "id": r(e["id"]),
                    "worker": r(e["worker"]),
                    "firm": r(e["firm"]),
                    "capacity": e["capacity"],
                }
            )
            if e["id"].startswith("a"):
                xmax[r(e["id"])] = q
            else:
                xmin[r(e["id"])] = q // 2
        for w, quota in ring["worker_quotas"].items():
            doc["worker_quotas"][r(w)] = quota
        for w, order in ring["worker_orders"].items():
            doc["worker_orders"][r(w)] = [r(e) for e in order]
        for f, spec in ring["firm_cfs"].items():
            doc["firm_cfs"][r(f)] = dict(spec, columns=[r(e) for e in spec["columns"]])
    doc, names = relabel(doc, rng_for(seed, 3, k, q))
    return Built(
        f"rings {k} x q={q}",
        doc,
        _renamed(xmin, names),
        _renamed(xmax, names),
        unit_route=k * q,
        unit_elements=k * q,
        gapless=q == 2,
    )


def small_random(draw: int, family: str, capacity_bound: int, seed: int = 0) -> Built:
    """A 2-3 by 2-3 instance from ``galloc.generate``.

    ``draw`` picks the instance; the seed relabels and permutes it.
    """
    rng = rng_for(draw, 4)
    config = GeneratorConfig(
        seed=int(rng.integers(2**31)),
        workers=int(rng.integers(2, 4)),
        firms=int(rng.integers(2, 4)),
        density=0.8,
        capacity_bound=capacity_bound,
        quota_bound=4,
        family=family,
    )
    doc = generate(config).to_dict()
    del doc["meta"]
    doc, _ = relabel(doc, rng_for(seed, 4, draw))
    gapless = family == "linear" or capacity_bound <= 2
    return Built(f"{family} seed {config.seed}", doc, gapless=gapless)


def oracle_corpus(seed: int, draw: int = 0) -> list[Built]:
    """About 100 instances the brute-force oracle can enumerate.

    The 93 random instances are drawn from ``draw``; the seed relabels
    and permutes every instance.
    """
    out = []
    for i in range(93):
        family = ("linear", "tableau", "mixed")[i % 3]
        out.append(small_random(draw * 1000 + i, family, 2 + (i // 3) % 2, seed))
    out += [latin(3, seed=seed), latin(4, seed=seed), latin(3, 2, 4, seed=seed)]
    out += [rings(1, q, seed=seed) for q in (2, 4, 6)]
    out.append(rings(2, 2, seed=seed))
    return out


def cost_vector(doc: dict, rng: np.random.Generator) -> dict[str, int]:
    """Random integer costs in [-5, 5] for every edge of a document."""
    draw = rng.integers(-5, 6, size=len(doc["edges"]))
    return {e["id"]: int(c) for e, c in zip(doc["edges"], draw)}
