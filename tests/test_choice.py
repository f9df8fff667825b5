import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galloc import (
    GallocError,
    LimitError,
    TableauChoice,
    a3_filling,
    build_full_route,
    check_axioms,
    check_gapless,
    enumerate_stable,
    evaluator_for,
    instance_from_dict,
    make_ring_instance,
    solve_xmin_by_stages,
)
from galloc.choice import (
    ChoiceEvaluator,
    LinearChoice,
    eval_tableau_cf,
    eval_worker_cf,
    interesting_at,
    iter_box,
    join,
    single_unit_response,
    total_choice_calls,
    total_fresh_evaluations,
)
from galloc.errors import InvariantViolation

from builders import latin


def test_worker_rule_partial_fill():
    order = (0, 1, 2)
    assert eval_worker_cf((2, 2, 1), order, 3) == (2, 1, 0)
    assert eval_worker_cf((0, 0, 0), order, 3) == (0, 0, 0)
    assert eval_worker_cf((1, 1, 1), order, 3) == (1, 1, 1)
    assert eval_worker_cf((3, 2, 1), (2, 1, 0), 4) == (1, 2, 1)


def test_a3_filling_shape():
    assert a3_filling(4) == ((1, 4, 5, 6, 7), (2, 8, 10), (3, 9, 11))
    col1, col2, col3 = a3_filling(6)
    assert len(col1) == 7 and len(col2) == 4 and len(col3) == 4
    cells = [*col1, *col2, *col3]
    assert len(set(cells)) == len(cells)
    for col in (col1, col2, col3):
        assert list(col) == sorted(col)


def test_a3_tableau_frozen_values():
    cf = TableauChoice("f", (4, 2, 2), a3_filling(4), 4)
    assert cf((2, 2, 2)) == (2, 1, 1)
    assert cf((3, 2, 1)) == (3, 1, 0)
    assert cf((1, 2, 2)) == (1, 2, 1)
    assert cf((3, 1, 1)) == (3, 1, 0)
    assert cf((4, 2, 2)) == (4, 0, 0)
    assert cf((1, 1, 1)) == (1, 1, 1)


def test_evaluator_reorders_tableau_columns(ring4):
    # f1's canonical incident order is (a1, d2, c3) while its configured
    # columns are (a1, c3, d2), so the evaluator must permute both ways.
    cf = evaluator_for(ring4, "f1")
    assert cf.caps == (4, 2, 2)
    assert cf((1, 2, 2)) == (1, 1, 2)
    direct = TableauChoice("f", (4, 2, 2), a3_filling(4), 4)
    assert direct((1, 2, 2)) == (1, 2, 1)


def test_evaluator_kinds_and_memo(ring4):
    w = evaluator_for(ring4, "w1")
    assert w.kind == "worker-linear"
    assert w.call_count == 0
    w((0, 0, 0))
    w((0, 0, 0))
    assert w.call_count == 1
    for z in ((9, 0, 0), (0, -1, 0), (0, 0), (0, 0, 0, 0)):
        with pytest.raises(GallocError, match="outside its box"):
            w(z)
    assert w.call_count == 1


def test_box_choices_go_through_the_memo(ring4):
    w = evaluator_for(ring4, "w1")
    w((0, 0, 0))
    got = w.box_choices()
    assert got == [w(z) for z in iter_box(w.caps)]
    assert w.call_count == total_fresh_evaluations(ring4) == len(got)
    assert w.box_choices() == got
    assert w.call_count == len(got)


def test_the_fresh_total_is_the_sum_of_fresh_counts():
    # Each fresh evaluation fills one memo: the rule's or, for linear
    # evaluators, the closed form's table of totals and cuts.
    inst = latin(4)
    fresh = [total_fresh_evaluations(inst)]
    solve_xmin_by_stages(inst)
    fresh.append(total_fresh_evaluations(inst))
    build_full_route(inst)
    fresh.append(total_fresh_evaluations(inst))
    enumerate_stable(inst)
    fresh.append(total_fresh_evaluations(inst))
    assert fresh[0] == 0 and fresh == sorted(set(fresh))
    assert fresh[-1] == sum(
        len(ev._memo) + len(getattr(ev, "_shapes", ())) for ev in inst._evaluators.values()
    )


def test_single_unit_response_trichotomy():
    cf = LinearChoice("w", "worker-linear", (2, 2), (0, 1), 2)
    assert single_unit_response(cf, (2, 0), 1) == ("same", None)
    assert single_unit_response(cf, (1, 0), 1) == ("absorb", None)
    assert single_unit_response(cf, (0, 2), 0) == ("swap", 1)


def test_interesting_at_respects_capacity():
    cf = LinearChoice("w", "worker-linear", (1, 1), (0, 1), 1)
    assert not interesting_at(cf, (1, 0), 0)
    assert interesting_at(cf, (0, 1), 0)
    assert not interesting_at(cf, (1, 0), 1)


def test_revealed_preference_on_the_ring_tableau():
    # z is revealed-preferred to zp when the firm, offered both, keeps z.
    cf = TableauChoice("f", (4, 2, 2), a3_filling(4), 4)
    z, zp = (1, 2, 1), (0, 2, 2)
    assert cf.accepts(z) and cf.accepts(zp)
    assert cf(join(z, zp)) == z
    assert cf(join(zp, z)) != zp


def test_axioms_hold_for_builtin_rules():
    worker = LinearChoice("w", "worker-linear", (2, 3, 1), (1, 0, 2), 3)
    assert check_axioms(worker).passed
    firm = LinearChoice("f", "firm-linear", (2, 2), (1, 0), 2)
    assert check_axioms(firm).passed
    for q in (2, 4, 6):
        cf = TableauChoice("f", (q, q // 2, q // 2), a3_filling(q), q)
        report = check_axioms(cf)
        assert report.passed, report.failures


@pytest.mark.parametrize(
    "rule, quota, axioms",
    [
        (lambda z: z, 1, {"quota-filling"}),
        (
            lambda z: (z[1], z[0]),
            2,
            {"containment", "idempotence", "stationarity", "substitutability"},
        ),
        (
            lambda z: z if sum(z) <= 1 else (0, 0),
            2,
            {"consistence", "quota-filling", "size-monotonicity", "stationarity"},
        ),
    ],
    ids=["identity", "swap", "collapse"],
)
def test_axiom_checker_catches_a_bad_rule(rule, quota, axioms):
    # Between them the three rules fail every axiom the checker knows.
    class BadChoice(ChoiceEvaluator):
        def _evaluate(self, z):
            return rule(z)

    report = check_axioms(BadChoice("f", "tableau", (1, 1), quota))
    assert not report.passed
    assert {f.axiom for f in report.failures} == axioms


def test_axiom_checker_pair_limit():
    cf = LinearChoice("w", "worker-linear", (3, 3, 3), (0, 1, 2), 4)
    with pytest.raises(LimitError, match="over the limit"):
        check_axioms(cf, pair_limit=10)
    # The gapless check refuses the same way, before it reads a triple.
    with pytest.raises(LimitError, match="triples, over the limit of 10"):
        check_gapless(cf, triple_limit=10)


def tableau_specs():
    """Tableaux on 1-3 columns of capacity 0-3, with distinct entries of
    either sign and any quota from 0 to the total capacity."""
    caps = st.lists(st.integers(0, 3), min_size=1, max_size=3)

    @st.composite
    def build(draw):
        cs = tuple(draw(caps))
        n = sum(cs) + len(cs)
        cells = draw(st.permutations(range(-n, n)))[:n]
        filling = []
        at = 0
        for c in cs:
            filling.append(tuple(sorted(cells[at : at + c + 1])))
            at += c + 1
        quota = draw(st.integers(0, sum(cs)))
        return cs, tuple(filling), quota

    return build()


@given(tableau_specs())
@settings(max_examples=60, deadline=None)
def test_random_tableaux_satisfy_the_axioms(spec):
    cs, filling, quota = spec
    report = check_axioms(TableauChoice("f", cs, filling, quota))
    assert report.passed, report.failures


@given(tableau_specs())
@settings(max_examples=40, deadline=None)
def test_tableau_rule_keeps_smallest_cells(spec):
    cs, filling, quota = spec
    for z in iter_box(cs):
        out = eval_tableau_cf(z, filling, quota)
        assert sum(out) == min(sum(z), quota)
        assert all(0 <= o <= v for o, v in zip(out, z))
        kept = sorted(
            filling[j][r] for j, oj in enumerate(out) for r in range(1, oj + 1)
        )
        offered = sorted(
            filling[j][r] for j, zj in enumerate(z) for r in range(1, zj + 1)
        )
        assert kept == offered[: len(kept)]


def test_linear_rules_are_gapless():
    cf = LinearChoice("f", "firm-linear", (3, 2, 2), (2, 0, 1), 4)
    report = check_gapless(cf)
    assert report.holds
    assert report.violations == ()


def test_small_capacity_tableaux_are_gapless():
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(20):
        k = int(rng.integers(1, 4))
        cs = tuple(int(rng.integers(1, 3)) for _ in range(k))
        cells = rng.permutation(sum(cs) + k) + 1
        filling, at = [], 0
        for c in cs:
            filling.append(tuple(sorted(int(v) for v in cells[at : at + c + 1])))
            at += c + 1
        quota = int(rng.integers(0, sum(cs) + 1))
        report = check_gapless(TableauChoice("f", cs, tuple(filling), quota))
        assert report.holds, report.violations


def test_ring_tableau_has_the_known_gap():
    cf = TableauChoice("f", (4, 2, 2), a3_filling(4), 4)
    report = check_gapless(cf)
    assert not report.holds
    assert report.accepted == 27
    assert len(report.violations) == 4
    found = {
        (v.lower, v.middle, v.upper, v.pos, v.displaced) for v in report.violations
    }
    assert ((0, 2, 2), (1, 2, 1), (2, 1, 1), 0, (2, 1, 2)) in found


def test_acceptance_is_idempotence_of_the_call():
    cf = TableauChoice("f", (2, 2), ((1, 3, 5), (2, 4, 6)), 2)
    for z in itertools.product(range(3), range(3)):
        assert cf.accepts(z) == (cf(z) == z)


def outcome(probe, *args):
    """A probe's answer, or the type of what it raised."""
    try:
        return probe(*args)
    except (GallocError, InvariantViolation) as exc:
        return type(exc)


def small_linear_vertices():
    """Linear rules on 1-3 edges: every order, caps 0-2 (0-3 on fewer
    than three edges) and quotas from 0 to one past the total cap."""
    for k in (1, 2, 3):
        for caps in itertools.product(range(3 if k == 3 else 4), repeat=k):
            for order in itertools.permutations(range(k)):
                for quota in range(sum(caps) + 2):
                    yield LinearChoice("v", "firm-linear", caps, order, quota)


def outside_points(caps):
    """One point past the cap and one below zero at each position."""
    for i, cap in enumerate(caps):
        for v in (cap + 1, -1):
            yield tuple(v if j == i else 0 for j in range(len(caps)))


def compare_with_the_generic_probes(cf):
    """Check every closed-form probe of ``cf`` against the generic one.

    Every box point, including those over the quota, and every position,
    with or without room; every swap, self swaps, weight 0 and weights
    one past the room included; and points outside the box, where both
    sides ask the rule, which raises.  The list of interesting positions
    is checked against the rule itself at every accepted box point.
    Returns how many (point, position) pairs of the box were probed and
    how many probes outside it raised.
    """
    generic = ChoiceEvaluator
    table = cf.order if isinstance(cf, LinearChoice) else cf.filling
    k = len(cf.caps)
    probes = 0
    refused = 0
    for z in outside_points(cf.caps):
        for pos in range(k):
            mine = outcome(cf.interest(z), pos)
            assert mine == outcome(generic.interest(cf, z), pos), (table, z, pos)
            refused += mine is GallocError
        for plus, minus in itertools.permutations(range(k), 2):
            mine = outcome(cf.swaps, z, plus, minus, 1)
            assert mine == outcome(generic.swaps, cf, z, plus, minus, 1), (z, plus)
            refused += mine is GallocError
    for z in iter_box(cf.caps):
        assert cf.accepts(z) == generic.accepts(cf, z), (table, cf.quota, z)
        if cf(z) == z:
            wanted = [pos for pos in range(k) if interesting_at(cf, z, pos)]
            assert sorted(cf.interesting_positions(z)) == wanted, (table, cf.quota, z)
        mine, theirs = cf.interest(z), generic.interest(cf, z)
        for pos in range(k):
            where = (table, cf.quota, z, pos)
            assert outcome(mine, pos) == outcome(theirs, pos), where
            assert outcome(cf.unit_response, z, pos) == outcome(
                generic.unit_response, cf, z, pos
            ), where
            probes += 1
        for plus, minus in itertools.product(range(k), repeat=2):
            for mu in range(cf.caps[plus] - z[plus] + 2):
                assert outcome(cf.swaps, z, plus, minus, mu) == outcome(
                    generic.swaps, cf, z, plus, minus, mu
                ), (table, cf.quota, z, plus, minus, mu)
    return probes, refused


def test_linear_closed_form_matches_the_generic_probes():
    probes = 0
    refused = 0
    for cf in small_linear_vertices():
        p, r = compare_with_the_generic_probes(cf)
        probes += p
        refused += r
    assert probes > 10_000
    assert refused > 1_000


def test_a3_closed_form_matches_the_generic_probes():
    # The built-in ring tableau at every quota from 0 to one past its
    # total capacity, so that accepted vectors below, at and over the
    # quota all occur.
    probes = 0
    for q in range(2, 9, 2):
        caps = (q, q // 2, q // 2)
        for quota in range(sum(caps) + 2):
            probes += compare_with_the_generic_probes(
                TableauChoice("f", caps, a3_filling(q), quota)
            )[0]
    assert probes > 10_000


@given(tableau_specs())
@example(((0, 2), ((-3,), (-5, 1, 4)), 0))
@example(((2, 0, 1), ((-6, -4, -1), (-3,), (-5, 2)), 2))
@settings(max_examples=80, deadline=None)
def test_tableau_closed_form_matches_the_generic_probes(spec):
    cs, filling, quota = spec
    compare_with_the_generic_probes(TableauChoice("f", cs, filling, quota))


def compare_preferences(cf):
    """Check ``prefers`` and ``newly_interesting`` against the rule on
    every pair of accepted box vectors, and the delta rule's lemma: a
    vertex that weakly prefers y to x newly wants no position where the
    two agree.  Returns how many pairs the rule answered yes and no."""
    k = len(cf.caps)
    accepted = [z for z in iter_box(cf.caps) if cf(z) == z]
    answers = Counter()
    for x in accepted:
        was = [interesting_at(cf, x, pos) for pos in range(k)]
        for y in accepted:
            want = cf(join(x, y)) == y
            assert cf.prefers(x, y) == want, (cf.caps, cf.quota, x, y)
            answers[want] += 1
            newly = [
                pos
                for pos in range(k)
                if x[pos] == y[pos] and not was[pos] and interesting_at(cf, y, pos)
            ]
            assert sorted(cf.newly_interesting(x, y)) == newly, (cf.caps, cf.quota, x, y)
            assert not (want and newly), (cf.caps, cf.quota, x, y)
    return answers


def test_linear_preference_probe_matches_the_rule():
    answers = Counter()
    for cf in small_linear_vertices():
        answers += compare_preferences(cf)
        if cf.caps[0] == 1:  # a worker's rule is the same greedy one
            answers += compare_preferences(
                LinearChoice("w", "worker-linear", cf.caps, cf.order, cf.quota)
            )
    assert answers[True] > 10_000 and answers[False] > 10_000


def test_a3_preference_probe_matches_the_rule():
    answers = Counter()
    for q in (2, 4):
        caps = (q, q // 2, q // 2)
        for quota in range(sum(caps) + 1):
            answers += compare_preferences(TableauChoice("f", caps, a3_filling(q), quota))
    assert answers[True] > 1_000 and answers[False] > 1_000


@given(tableau_specs())
@settings(max_examples=60, deadline=None)
def test_tableau_preference_probe_matches_the_rule(spec):
    cs, filling, quota = spec
    compare_preferences(TableauChoice("f", cs, filling, quota))


def ask_every_probe(cf):
    """Ask every closed-form probe at every box point where it answers
    without a fallback."""
    k = len(cf.caps)
    for z in iter_box(cf.caps):
        cf.accepts(z)
        cf.interesting_positions(z)
        interested = cf.interest(z)
        for pos in range(k):
            interested(pos)
            if z[pos] < cf.caps[pos] and sum(z) <= cf.quota:
                cf.unit_response(z, pos)
        for plus, minus in itertools.permutations(range(k), 2):
            for mu in range(1, cf.caps[plus] - z[plus] + 1):
                cf.swaps(z, plus, minus, mu)
        if sum(z) <= cf.quota:
            for x in iter_box(cf.caps):
                cf.prefers(x, z)
                cf.newly_interesting(x, z)


def test_linear_probes_do_not_call_the_rule():
    cf = LinearChoice("w", "worker-linear", (2, 1, 2), (2, 0, 1), 3)
    ask_every_probe(cf)
    assert cf.call_count == 0
    with pytest.raises(GallocError, match="outside its box"):
        cf.accepts((3, 0, 0))
    with pytest.raises(GallocError, match="outside its box"):
        cf.unit_response((2, 1, 0), 1)


def test_tableau_probes_do_not_call_the_rule():
    cf = TableauChoice("f", (4, 2, 2), a3_filling(4), 4)
    ask_every_probe(cf)
    assert cf.call_count == 0
    assert cf.fresh_total[0] == len(cf._shapes) == 45
    with pytest.raises(GallocError, match="outside its box"):
        cf.accepts((5, 0, 0))
    with pytest.raises(GallocError, match="outside its box"):
        cf.unit_response((4, 1, 0), 0)
    with pytest.raises(GallocError, match="outside its box"):
        cf.swaps((3, 2, 2), 0, 1, 2)


def test_the_oracle_builds_its_tables_from_the_rule(monkeypatch):
    # Latin 3 has only linear rules; the ring has tableau firms.
    markets = [latin(3), make_ring_instance(4)]
    wants = [enumerate_stable(inst).elements for inst in markets]
    assert all(len(want) > 1 for want in wants)

    def refuse(*args):
        raise AssertionError("the oracle read a closed-form probe")

    for cls in (LinearChoice, TableauChoice):
        for name in ("accepts", "interest", "unit_response", "swaps"):
            monkeypatch.setattr(cls, name, refuse)
    for inst, want in zip(markets, wants):
        fresh = instance_from_dict(inst.to_dict())
        assert enumerate_stable(fresh).elements == want
        assert total_choice_calls(fresh) > 0
