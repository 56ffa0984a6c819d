"""Tests of the benchmark's own arithmetic and failure accounting.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import statistics
from collections import Counter
from fractions import Fraction

import pytest

import run
import spans
import steady
from percentiles import percentile


def test_p90_needs_ten_samples_above():
    assert percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError, match="at least 10"):
        percentile(list(range(99)), 90)
    assert percentile(list(range(21)), 50) == 10


def _recorder(times):
    ticks = iter(times)
    return spans.Recorder(clock=lambda: next(ticks))


def test_self_time_on_hand_built_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
    rec = _recorder([0, 1, 4, 5, 6, 7, 9, 10])
    a = rec.begin("adhm", "a")
    b = rec.begin("exactalg", "b")
    rec.end(b)
    c = rec.begin("quotmod", "c")
    d = rec.begin("exactalg", "d")
    rec.end(d)
    rec.end(c)
    rec.end(a)
    assert [s.parent for s in rec.spans] == [-1, a, a, c]
    assert spans.self_times(rec.spans) == [3, 3, 3, 1]
    metrics = spans.layer_metrics(rec)
    assert metrics["exactalg.self_s"] == (4, "s")
    assert metrics["exactalg.calls"] == (2, "count")
    assert metrics["adhm.self_s"] == (3, "s")


def test_overlapping_children_are_covered_once():
    rec = _recorder([])
    rec.spans = [
        spans.Span("p", "adhm", 0.0, -1, "items", end=10.0),
        spans.Span("x", "exactalg", 2.0, 0, "items", end=6.0),
        spans.Span("y", "exactalg", 4.0, 0, "items", end=8.0),
    ]
    assert spans.self_times(rec.spans)[0] == pytest.approx(4.0)


@pytest.fixture
def items():
    from workloads import Item

    def make(answer, problems=()):
        return Item("item", 0, lambda: answer, lambda ans: list(problems))

    return make


def test_wrong_expected_digest_counts_as_failure(items):
    good = items({"rank": 3})
    other = items({"rank": 4})
    right = run.answer_digest({"rank": 3})
    problems: list[str] = []
    digests = run.run_pass([good, other], [right, right], [], [], Counter(), problems)
    assert digests == [right, None]
    assert len(problems) == 1 and "digest" in problems[0]
    loop = run.run_loop([good, other], 0, [right, right])
    assert loop["failed"] == 1 and [len(p) for p in loop["passes"]] == [2]


def test_failed_claim_and_exception_count_as_failures(items):
    def boom():
        raise ZeroDivisionError("x")

    from workloads import Item

    claim = items({"moduli_dim": 5}, problems=["moduli dimension 5, want 6"])
    raising = Item("raising", 0, boom, lambda ans: [])
    loop = run.run_loop([claim, raising], 0, None)
    assert loop["failed"] == 2
    assert any("want 6" in p for p in loop["problems"])
    assert any("ZeroDivisionError" in p for p in loop["problems"])


def test_dimension_item_with_wrong_expectation_fails():
    import random

    import workloads
    from adhmquot import geometry

    x = geometry.sample_generic_commuting(2, 2, 1, random.Random(0))
    system = geometry.EquationSystem(commutators=True)
    right = workloads._dimension_item("right", 0, x, system, 2 * (1 + 1))
    wrong = workloads._dimension_item("wrong", 0, x, system, 2 * (1 + 1) + 1)
    loop = run.run_loop([right, wrong], 0, None)
    assert loop["failed"] == 1
    assert loop["problems"][0].startswith("wrong:")


def test_install_wraps_nested_calls_and_uninstall_restores():
    from adhmquot import adhm, exactalg, quotmod

    originals = (adhm.is_stable, quotmod.is_stable, exactalg.Matrix.__matmul__,
                 exactalg.Subspace.__dict__["from_vectors"])
    x = adhm.random_datum(2, 2, 1, seed=3, stable=True)
    rec = spans.Recorder()
    installed = spans.install(rec)
    try:
        assert adhm.is_stable(x)
    finally:
        installed.uninstall()
    assert (adhm.is_stable, quotmod.is_stable, exactalg.Matrix.__matmul__,
            exactalg.Subspace.__dict__["from_vectors"]) == originals
    names = [s.name for s in rec.spans]
    assert names[0] == "is_stable" and "krylov_closure" in names
    closure = names.index("krylov_closure")
    assert rec.spans[closure].parent == 0
    from_vectors = rec.spans[names.index("Subspace.from_vectors")]
    assert from_vectors.info["cells"] > 0 and from_vectors.info["bits"] >= 1


def test_coefficient_bits():
    from adhmquot.exactalg import GF

    assert spans._coeff_bits([Fraction(-5, 3), Fraction(1, 1024)]) == 11
    assert spans._coeff_bits([GF(7).coerce(6)]) == 3


def test_steadiness_summary_against_bounds():
    specs = {
        "items_per_s": {"unit": "items/s", "better": "higher", "bound": 0.15},
        "item_p90_ms": {"unit": "ms", "better": "lower", "bound": 0.15},
        "setup_s": {"unit": "s", "better": "lower", "bound": 0.25},
    }
    steady_values = [10.0, 10.1, 10.2, 9.9, 10.0, 10.05, 9.95, 10.1, 10.0, 9.9]
    wide_values = [10.0, 14.0, 7.0, 12.0, 9.0, 13.0, 8.0, 10.0, 11.0, 6.0]
    rows = {r["name"]: r for r in steady.summarize(
        {"items_per_s": steady_values, "item_p90_ms": wide_values, "setup_s": wide_values},
        specs)}
    q1, med, q3 = statistics.quantiles(steady_values, n=4)
    assert (rows["items_per_s"]["q1"], rows["items_per_s"]["median"],
            rows["items_per_s"]["q3"]) == (q1, med, q3)
    assert rows["items_per_s"]["spread"] == pytest.approx((q3 - q1) / med)
    assert rows["items_per_s"]["verdict"] == "steady"
    assert rows["item_p90_ms"]["verdict"] == "too wide"
    assert rows["setup_s"]["verdict"] == "not judged"
    assert steady.parse_seeds("0-2,7") == [0, 1, 2, 7]


def test_scaled_clock_divides_out_machine_speed(monkeypatch):
    speeds = iter([2 * run.REFERENCE_CALIBRATION_S, 2 * run.REFERENCE_CALIBRATION_S,
                   run.REFERENCE_CALIBRATION_S])
    monkeypatch.setattr(run, "calibration_s", lambda: next(speeds))
    clock = run.ScaledClock()
    assert clock.scale(1.0) == pytest.approx(0.5)  # machine at half speed
    assert clock.scale(1.0) == pytest.approx(1 / 1.5)  # mean of the two around it


def test_ratio_metrics_on_hand_built_spans():
    def span(name, layer, parent, error=False):
        return spans.Span(name, layer, 0.0, parent, "items", end=1.0, error=error)

    rec = spans.Recorder()
    rec.spans = [
        span("equivalence", "adhm", -1),            # 0: two candidates tried
        span("Matrix.inverse", "exactalg", 0),
        span("Matrix.inverse", "exactalg", 0),
        span("equivalence", "adhm", -1),            # 3: first candidate decided
        span("Matrix.inverse", "exactalg", 3),
        span("module_from_generators", "quotmod", -1),  # 5: two certifications
        span("is_stable", "adhm", 5),
        span("is_stable", "adhm", 5),
        span("is_stable", "adhm", -1),              # not under a build
    ]
    metrics = spans.layer_metrics(rec)
    assert metrics["adhm.equiv_first_try_ratio"] == (0.5, "ratio")
    assert metrics["quotmod.certify_ratio"] == (0.5, "ratio")
    assert metrics["exactalg.elim_calls"] == (3, "count")
