"""Small hand-built instances shared by the test modules.

They live outside ``conftest.py`` so that ``from builders import ...``
cannot pick up another directory's conftest module.
"""

from galloc import instance_from_dict


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
