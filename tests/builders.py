"""Small hand-built instances shared by the test modules.

They live outside ``conftest.py`` so that ``from builders import ...``
cannot pick up another directory's conftest module.
"""

from galloc import GeneratorConfig, generate, instance_from_dict, make_ring_instance


def parallel_pair(cap, worker_quota=None, firm_quota=None):
    """One worker, one firm, two parallel edges of the given capacity.

    The worker prefers e2, the firm prefers e1, quotas default to cap,
    so the single rotation swaps the full weight between the edges.
    """
    q = cap if worker_quota is None else worker_quota
    fq = cap if firm_quota is None else firm_quota
    return instance_from_dict(
        {
            "workers": ["w1"],
            "firms": ["f1"],
            "edges": [
                {"id": "e1", "worker": "w1", "firm": "f1", "capacity": cap},
                {"id": "e2", "worker": "w1", "firm": "f1", "capacity": cap},
            ],
            "worker_quotas": {"w1": q},
            "worker_orders": {"w1": ["e2", "e1"]},
            "firm_cfs": {
                "f1": {"type": "linear", "order": ["e1", "e2"], "quota": fq}
            },
        }
    )


def two_swaps(cap_a=1, cap_b=1):
    """Two disjoint worker-firm pairs, each with an independent swap."""
    return instance_from_dict(
        {
            "workers": ["w1", "w2"],
            "firms": ["f1", "f2"],
            "edges": [
                {"id": "a1", "worker": "w1", "firm": "f1", "capacity": cap_a},
                {"id": "a2", "worker": "w1", "firm": "f1", "capacity": cap_a},
                {"id": "b1", "worker": "w2", "firm": "f2", "capacity": cap_b},
                {"id": "b2", "worker": "w2", "firm": "f2", "capacity": cap_b},
            ],
            "worker_quotas": {"w1": cap_a, "w2": cap_b},
            "worker_orders": {"w1": ["a2", "a1"], "w2": ["b2", "b1"]},
            "firm_cfs": {
                "f1": {"type": "linear", "order": ["a1", "a2"], "quota": cap_a},
                "f2": {"type": "linear", "order": ["b1", "b2"], "quota": cap_b},
            },
        }
    )


def one_on_one():
    """Single worker, single firm, one unit edge both sides want."""
    return instance_from_dict(
        {
            "workers": ["w1"],
            "firms": ["f1"],
            "edges": [{"id": "e1", "worker": "w1", "firm": "f1", "capacity": 1}],
            "worker_quotas": {"w1": 1},
            "worker_orders": {"w1": ["e1"]},
            "firm_cfs": {"f1": {"type": "linear", "order": ["e1"], "quota": 1}},
        }
    )


def latin(n, cap=1, quota=1):
    """The cyclic Latin instance on a complete n x n market.

    Worker i ranks firms i, i+1, ... (mod n); firm j's linear order runs
    over workers j+1, j+2, ... (mod n).  Every edge has capacity ``cap``
    and every vertex quota ``quota``.  Its stable allocations form a
    lattice with many rotations (Irving & Leather 1986).
    """

    def e(i, j):
        return f"e{i % n}_{j % n}"

    workers = [f"w{i}" for i in range(n)]
    firms = [f"f{j}" for j in range(n)]
    return instance_from_dict(
        {
            "workers": workers,
            "firms": firms,
            "edges": [
                {"id": e(i, j), "worker": workers[i], "firm": firms[j], "capacity": cap}
                for i in range(n)
                for j in range(n)
            ],
            "worker_quotas": dict.fromkeys(workers, quota),
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
    )


def acceptance_corpora():
    """The two seeded corpora of the acceptance suite, rebuilt here."""
    sam = [
        GeneratorConfig(
            seed=s, workers=2 + s % 2, firms=2 + (s // 2) % 2, density=0.8,
            capacity_bound=3, quota_bound=4, family="linear",
        )
        for s in range(200)
    ]
    gapless = [
        GeneratorConfig(
            seed=10_000 + s, workers=2 + s % 2, firms=2 + (s // 3) % 2, density=0.8,
            capacity_bound=2, quota_bound=4, family="mixed", b_cap_for_gapless=2,
        )
        for s in range(100)
    ]
    return [generate(cfg) for cfg in sam + gapless]


def relabelled(inst, tag):
    """The instance with ``tag`` appended to every worker, firm and edge id."""
    doc = inst.to_dict()

    def r(name):
        return f"{name}{tag}"

    cfs = {}
    for f, spec in doc["firm_cfs"].items():
        spec = dict(spec)
        for ids in ("order", "columns"):
            if ids in spec:
                spec[ids] = [r(e) for e in spec[ids]]
        cfs[r(f)] = spec
    return instance_from_dict(
        {
            "workers": [r(w) for w in doc["workers"]],
            "firms": [r(f) for f in doc["firms"]],
            "edges": [
                dict(e, id=r(e["id"]), worker=r(e["worker"]), firm=r(e["firm"]))
                for e in doc["edges"]
            ],
            "worker_quotas": {r(w): q for w, q in doc["worker_quotas"].items()},
            "worker_orders": {
                r(w): [r(e) for e in order] for w, order in doc["worker_orders"].items()
            },
            "firm_cfs": cfs,
        }
    )


def disjoint_union(a, b):
    """Markets a and b side by side, relabelled apart with tags ":A" and ":B"."""
    docs = (relabelled(a, ":A").to_dict(), relabelled(b, ":B").to_dict())
    union = {}
    for key in ("workers", "firms", "edges"):
        union[key] = docs[0][key] + docs[1][key]
    for key in ("worker_quotas", "worker_orders", "firm_cfs"):
        union[key] = {**docs[0][key], **docs[1][key]}
    return instance_from_dict(union)


def tableau_market():
    """A connected 3 x 3 market of tableau firms whose poset is a two-chain."""
    return generate(
        GeneratorConfig(
            seed=275, workers=3, firms=3, density=0.8,
            capacity_bound=2, quota_bound=3, family="tableau",
        )
    )


def poset_corpus():
    """Small markets with non-empty rotation posets, each one the oracle lists.

    Connected ones: the rings q = 2..8 (chains of q general-mode
    elements, gapless only at q = 2), Latin 4 and 5, Latin 4 at capacity
    and quota 2, and the tableau market; then disjoint unions of them,
    whose posets are the parts side by side.
    """
    ring = {q: make_ring_instance(q) for q in (2, 4, 6, 8)}
    return [
        *ring.values(),
        latin(4),
        latin(5),
        latin(4, 2, 2),
        tableau_market(),
        disjoint_union(ring[2], ring[4]),
        disjoint_union(ring[2], ring[2]),
        disjoint_union(ring[6], latin(4)),
        disjoint_union(latin(4), latin(5)),
        disjoint_union(tableau_market(), ring[2]),
    ]
