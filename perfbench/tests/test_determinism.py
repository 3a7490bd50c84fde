"""The benchmark's own checks: wrappers and repeats do not change results.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
The two sweep tests run the full c4 reference sweep three times (about
1.5 minutes on a 2-core machine).
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import summarize  # noqa: E402


def _canonical(res):
    assert res["exit"] == 0, res["log_tail"]
    return run.canonical(res["report"])


@pytest.fixture(scope="module")
def c4_plain(tmp_path_factory):
    work = tmp_path_factory.mktemp("plain")
    deadline = time.monotonic() + 600
    return work, [run.run_sweep("c4", run.sweep_for("c4", 0), work, f"s{i}", deadline)
                  for i in range(2)]


def test_two_untraced_runs_are_byte_identical(c4_plain):
    _, (a, b) = c4_plain
    assert _canonical(a) == _canonical(b)
    assert run.gate(a, "c4") == []


def test_traced_run_is_byte_identical_to_untraced(c4_plain):
    # the report path is part of the config, so reuse the untraced runs' one
    work, (plain, _) = c4_plain
    traced = run.run_sweep("c4", run.sweep_for("c4", 0), work, "traced",
                           time.monotonic() + 600, traced=True)
    assert _canonical(traced) == _canonical(plain)
    stats = summarize(traced["trace"])
    assert stats["pipeline.run_pipeline.calls"] == 1
    assert stats["solver.newton_solve.calls"] == 4


def test_canonical_matches_run_report():
    from sobemb.pipeline import RunConfig, run_pipeline
    from sobemb.series import DomainRect

    report = run_pipeline(RunConfig(p=3, domain=DomainRect(1.0, 1.0), N=[6]))
    assert run.canonical(json.loads(report.to_json())) == report.canonical_json()


def test_seeds_keep_first_and_last_n():
    for w, spec in run.WORKLOADS.items():
        base = spec.sweep
        assert run.sweep_for(w, 0) == list(base)
        for seed in range(1, 20):
            sweep = run.sweep_for(w, seed)
            assert sweep == run.sweep_for(w, seed)
            assert sweep[0] == base[0] and sweep[-1] == base[-1]
            assert all(n - b in (0, 1) for n, b in zip(sweep, base))
            assert sweep == sorted(set(sweep))


def test_self_time_subtracts_children_and_bookkeeping():
    spans = [
        ["pipeline.run_pipeline", -1, 10.0, 0.0, 100, 100],
        ["certify.certify_ball", 0, 6.0, 0.5, 100, 300],
        ["symeig.eig_enclosures", 1, 4.0, 0.25, 100, 250],
        ["symeig.eig_enclosures", 1, 1.0, 0.25, 250, 260],
    ]
    stats = summarize({"spans": spans, "counts": {}, "values": {}})
    assert stats["pipeline.run_pipeline.self_s"] == pytest.approx(3.5)
    assert stats["certify.certify_ball.self_s"] == pytest.approx(0.5)
    assert stats["certify.certify_ball.total_s"] == pytest.approx(6.0)
    assert stats["symeig.eig_enclosures.self_s"] == pytest.approx(5.0)
    assert stats["symeig.blocks"] == 2
    assert stats["certify.rss_raise_mb"] == pytest.approx(200 / 1024)
    assert stats["symeig.rss_raise_mb"] == pytest.approx(160 / 1024)
