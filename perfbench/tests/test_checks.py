"""Output checks: every wrong output is counted as a failed operation."""

import copy

from repro.core.config import config_for
from repro.core.pipeline import simulate
from repro.workloads.kernels import build_trace

import simwork
import support
from checks import Checker


def _result(kernel="gather_stride", arch="ooo", ops=400, seed=1):
    trace = build_trace(kernel, target_ops=ops, seed=seed)
    config = config_for(arch)
    return simulate(trace, config).to_dict(), len(trace), config.issue_width


def test_perturbed_digest_counts_as_failure():
    result, length, width = _result()
    golden = {"cell": support.digest(result)}
    checker = Checker(golden)
    assert checker.check_result("cell", result, length, width, True)

    perturbed = copy.deepcopy(result)
    perturbed["stats"]["cycles"] += 1
    fresh = Checker(golden)
    assert not fresh.check_result("cell", perturbed, length, width, True)
    assert (fresh.attempted, fresh.failed) == (1, 1)
    assert "recorded" in fresh.failures[0]


def test_repeated_cell_must_repeat_its_first_digest():
    result, length, width = _result()
    checker = Checker(None)
    assert checker.check_result("cell", result, length, width, True)
    changed = copy.deepcopy(result)
    changed["stats"]["energy_events"]["fetch"] += 1
    assert not checker.check_result("cell", changed, length, width, True)
    assert checker.failed_frac == 0.5
    assert "first run" in checker.failures[0]


def test_invariants_hold_at_any_seed():
    result, length, width = _result(seed=12345)
    checker = Checker(None)
    assert not checker.check_result("a", result, length + 1, width, True)
    assert "trace length" in checker.failures[-1]
    assert not checker.check_result("b", result, length, 0, True)
    assert "issue width" in checker.failures[-1]
    assert checker.check_result("c", result, length, width, True)


def test_digest_ignores_wire_normalisation():
    payload = {"stats": {"scheduler": {3: 1.5, 10: 2}}, "t": (1, 2)}
    wire = {"stats": {"scheduler": {"10": 2, "3": 1.5}}, "t": [1, 2]}
    assert support.digest(payload) == support.digest(wire)


def test_recorded_digest_matches_a_fresh_simulation():
    golden = support.load_golden(support.DEFAULT_SEED)
    spec = simwork.MEMORY_BOUND
    trace = build_trace("gather_stride", target_ops=spec.ops,
                        seed=support.DEFAULT_SEED)
    config = config_for("ooo")
    key = simwork.cell_key(spec, "gather_stride", config.name,
                           support.DEFAULT_SEED)
    assert golden[key] == support.digest(simulate(trace, config).to_dict())
    assert support.load_golden(support.DEFAULT_SEED + 1) is None


def test_tail_percentile_leaves_ten_samples_beyond():
    values = list(range(1, 51))
    pct, value, n = support.tail_percentile(values)
    assert (pct, n) == (80, 50)
    assert sum(1 for v in values if v > value) >= 10
    assert support.tail_percentile(values[:10]) is None
