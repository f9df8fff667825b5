"""The harness: the reference meter, passes and job judging."""

import signal
import time

from perfbench.harness import Meter, checking_pass, judge, run_pass
from perfbench.workloads import Job, Result, check_refusal, poset_rings


def test_meter_samples_inside_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with Meter(every_s=0.01) as meter:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(meter.samples) >= 5
    assert 0 < meter.spent < 0.2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_judge_reports_wrong_exit_codes_and_failed_checks():
    refusal = Job("r", "poset", ("poset", "x.json"), check_refusal, code=1)
    assert judge(refusal, Result(1, "", "galloc: error: no\n"), {}) is None
    assert "expected 1" in judge(refusal, Result(0, "{}", ""), {})
    assert judge(refusal, Result(1, "", "one\ntwo\n"), {}) == "refusal is not one error line"


def test_a_checked_pass_repeats_exactly(tmp_path):
    plan = poset_rings(3, tmp_path)
    first, problems = checking_pass(plan)
    assert problems == {}
    with Meter() as meter:
        again = run_pass(plan, meter)
    assert again.results == first.results
    assert again.oracle_calls == first.oracle_calls > 0
    assert set(again.refs) == {job.name for job in plan.jobs}
    assert all(v > 0 for v in again.refs.values())
