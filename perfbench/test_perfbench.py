"""Self-tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q

Run from the root of a checkout (the program is imported from ``src/``).
"""

from __future__ import annotations

import copy
import json
import re
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from checks import (  # noqa: E402
    count_mismatches,
    highest_supported,
    nearest_rank,
    rounds_agree,
)
from ledger import Ledger, Recorder, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())


@pytest.mark.parametrize("samples, percentile", [
    (19, None), (20, "50"), (99, "50"), (100, "90"), (999, "90"),
    (1000, "99"), (9999, "99"), (10000, "99.9"), (100000, "99.99"),
])
def test_highest_percentile_keeps_ten_samples_beyond(samples, percentile):
    assert highest_supported(samples) == percentile


def test_nearest_rank():
    values = list(range(1000, 0, -1))
    assert nearest_rank(values, "99") == 990      # 10 samples beyond
    assert nearest_rank(values, "50") == 500
    with pytest.raises(ValueError):
        nearest_rank([], "50")


def _hand_built() -> Recorder:
    """root [0, 100] -> a [10, 40] -> a1 [20, 30]; root -> b [50, 90]."""
    recorder = Recorder()
    for name, parent, start, end in (("root", -1, 0, 100), ("a", 0, 10, 40),
                                     ("a1", 1, 20, 30), ("b", 0, 50, 90)):
        recorder.name_id.append(recorder._intern(name))
        recorder.parent.append(parent)
        recorder.request.append(1)
        recorder.start.append(start)
        recorder.end.append(end)
    return recorder


def test_self_time_from_hand_built_span_tree():
    recorder = _hand_built()
    dur = np.array(recorder.end) - np.array(recorder.start)
    assert self_times(np.array(recorder.parent), dur).tolist() == \
        [30, 20, 10, 40]
    ledger = Ledger(recorder)
    assert ledger.self_ns("root") == 30
    assert ledger.total_ns("a") == 30
    assert ledger.self_ns("a") == 20
    assert ledger.total_self_ns == ledger.total_ns("root") == 100


def test_recorder_nests_spans_it_opens():
    recorder = Recorder()
    outer = recorder.open("outer", new_request=True)
    inner = recorder.open("inner")
    recorder.close(inner)
    recorder.rename(inner, "inner.hit")
    recorder.close(outer)
    assert list(recorder.parent) == [-1, outer]
    assert list(recorder.request) == [1, 1]
    ledger = Ledger(recorder)
    assert ledger.count("inner.hit") == 1 and ledger.count("inner") == 0
    assert ledger.total_self_ns == ledger.total_ns("outer")


def test_metric_and_workload_names_are_well_formed():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    bad = [name for name in names if not NAME.match(name)]
    assert not bad


def test_declared_metrics_match_what_the_benchmark_reports():
    from layers import per_layer
    from workloads import WORKLOADS, Round

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    mapping = json.loads((HERE / "layers.json").read_text())
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert list(mapping["per_layer"]) == declared
    assert set(mapping["workloads"]) == set(WORKLOADS)
    reported = per_layer(Round(seed=0, requests=1), Ledger(Recorder()), 1.0)
    assert sorted(reported) == sorted(declared)


def test_checker_rejects_a_corrupted_expected_count():
    for counts in EXPECTED["workloads"].values():
        assert count_mismatches(counts, counts) == []
        corrupted = copy.deepcopy(counts)
        name = sorted(corrupted)[0]
        corrupted[name] += 1
        problems = count_mismatches(counts, corrupted)
        assert len(problems) == 1 and name in problems[0]
        missing = {k: v for k, v in counts.items() if k != name}
        assert count_mismatches(missing, counts)


class _Fixed:
    """A stand-in workload whose every round reports *counts*."""

    name = "serve-hot"

    def __init__(self, counts):
        self.counts = counts

    def setup(self, seed):
        return type("State", (), {"generate_s": 0.0})()

    def measure(self, state, recorder, rnd):
        rnd.requests = rnd.misses = 1
        rnd.counts = dict(self.counts)

    def reference_check(self, seed, rnd):
        pass


def test_run_fails_when_a_default_seed_count_is_corrupted(capsys):
    import run
    from workloads import DEFAULT_SEED, run_round

    good = EXPECTED["workloads"]["serve-hot"]
    corrupted = copy.deepcopy(EXPECTED)
    corrupted["workloads"]["serve-hot"]["hit"] += 1
    for expected, status in ((EXPECTED, 0), (corrupted, 1)):
        workload = _Fixed(good)
        rounds = [run_round(workload, DEFAULT_SEED + 5)]
        checked = run._check_seeds(workload, DEFAULT_SEED + 5, rounds,
                                   expected)
        assert [r.seed for r in checked] == [DEFAULT_SEED + 5, DEFAULT_SEED]
        assert run._finish(checked, {}, []) == status
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_latencies_scaled_by_the_smoothed_kernel_of_their_window():
    import run
    from workloads import CALIBRATION_REF_NS, WINDOW, Round

    rnd = Round(seed=0)
    rnd.latencies_ns = np.full(2 * WINDOW + 1, 1000, dtype=np.int64)
    rnd.calibration_ns = np.array([CALIBRATION_REF_NS,
                                   CALIBRATION_REF_NS - run.SMOOTH * 1000])
    scaled = run._normalised_ns(rnd)
    # Edge padding: window 0 averages SMOOTH // 2 + 1 steady runs and
    # SMOOTH // 2 fast ones.
    kernel_0 = CALIBRATION_REF_NS - 1000 * (run.SMOOTH // 2)
    assert scaled.size == 2 * WINDOW + 1
    assert scaled[0] == pytest.approx(1000 * CALIBRATION_REF_NS / kernel_0)
    assert scaled[-1] == scaled[WINDOW]     # partial window: last run


def test_rounds_of_one_seed_must_agree():
    assert rounds_agree([{"hit": 3}, {"hit": 3}]) == []
    assert rounds_agree([{"hit": 3}, {"hit": 4}])


def test_spans_round_trip_through_the_written_file(tmp_path):
    recorder = _hand_built()
    path = tmp_path / "spans.npz"
    recorder.write(path)
    with np.load(path) as data:
        assert json.loads(str(data["names"])) == ["root", "a", "a1", "b"]
        assert data["end_ns"].tolist() == list(array("q", recorder.end))
        assert data["parent"].tolist() == [-1, 0, 1, 0]
