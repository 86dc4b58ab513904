"""Fast self-test of the benchmark on tiny inputs.

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _p in (str(ROOT / "src"), str(HERE)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import harness  # noqa: E402
import workloads  # noqa: E402
from repro.graph.generators import generate_rmat, generate_road  # noqa: E402
from repro.primitives.bfs import BFSProblem  # noqa: E402
from repro.primitives.pr import PRProblem  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: same primitives and GPU counts as the real workloads, tiny graphs
TINY = {
    "rmat-bfs": functools.partial(generate_rmat, 7, 8),
    "road-bfs": functools.partial(generate_road, 12, 12),
    "rmat-pagerank": functools.partial(generate_rmat, 6, 8),
}


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], make_graph=TINY[name])


def _units(spec_key: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[spec_key]}


def _units_of(report: harness.Report) -> dict:
    return {name: unit for name, (_value, unit) in report.metrics.items()}


@pytest.fixture(scope="module")
def layer_reports():
    return {name: harness.per_layer(tiny(name), seed=3, seconds=0.3)
            for name in TINY}


def test_spec_lists_exactly_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.fixture(autouse=True)
def _two_rounds(monkeypatch):
    monkeypatch.setattr(harness, "ROUNDS", 2)


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_emits_every_metric_with_its_unit(name):
    report = harness.end_to_end(tiny(name), seed=3, seconds=0.2)
    assert _units_of(report) == _units("end_to_end")
    assert report.failed == 0 and report.attempted > 0
    assert all(value > 0 for value, _unit in report.metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_emits_every_metric_with_its_unit(name, layer_reports):
    report = layer_reports[name]
    assert _units_of(report) == _units("per_layer")
    assert report.failed == 0
    assert report.metrics["failed_frac"][0] == 0.0


#: layers whose spans must cover part of every workload's traced query
COVERED = {
    "rmat-bfs": ("sim", "comm.split", "comm.package", "backend",
                 "operators", "primitives.core", "primitives.combine",
                 "problem.reset", "problem.extract"),
    "rmat-pagerank": ("sim", "comm.split", "comm.package", "backend",
                      "primitives.core", "primitives.combine",
                      "problem.reset", "problem.extract"),
}
COVERED["road-bfs"] = COVERED["rmat-bfs"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_layer_spans_account_for_traced_query_wall(name, layer_reports):
    m = layer_reports[name].metrics
    wall = m["trace.query_ms"][0]
    for layer in COVERED[name]:
        assert m[harness.SELF_MS[layer]][0] > 0, layer
    # time that no layer boundary covers lands in the query's root span
    # or in the enactor's own self time; both must stay small
    assert m["trace.harness_self_ms"][0] < 0.05 * wall
    assert m["enactor.self_ms"][0] < 0.15 * wall
    # sanity check of the recorder's accounting
    total = sum(m[metric][0] for metric in harness.SELF_MS.values())
    assert total == pytest.approx(wall, rel=1e-9)


def test_operators_never_called_by_pagerank(layer_reports):
    m = layer_reports["rmat-pagerank"].metrics
    assert m["operators.calls"][0] == 0
    assert layer_reports["rmat-bfs"].metrics["operators.calls"][0] > 0


def _corrupt_once(monkeypatch, cls, attr, corrupt):
    original = getattr(cls, attr)
    calls = []

    def corrupted(self):
        out = original(self)
        calls.append(1)
        if len(calls) == 2:  # the first query after the warm-up
            corrupt(out)
        return out

    monkeypatch.setattr(cls, attr, corrupted)


def _bump_label(labels):
    labels[labels.argmax()] += 5


def _halve_rank(ranks):
    ranks[0] *= 0.5


@pytest.mark.parametrize("name,cls,attr,corrupt", [
    ("rmat-bfs", BFSProblem, "labels", _bump_label),
    ("rmat-pagerank", PRProblem, "ranks", _halve_rank),
])
def test_corrupted_result_is_counted_in_failed_frac(monkeypatch, name, cls,
                                                    attr, corrupt):
    _corrupt_once(monkeypatch, cls, attr, corrupt)
    report = harness.per_layer(tiny(name), seed=3, seconds=0.1)
    assert report.failed == 1
    assert report.metrics["failed_frac"][0] == pytest.approx(
        1 / report.attempted)
    assert report.as_json()["correct"] is False


def test_raising_query_is_counted_as_failed(monkeypatch):
    original = BFSProblem.labels
    calls = []

    def flaky(self):
        calls.append(1)
        if len(calls) == 2:  # the first timed query, after the warm-up
            raise RuntimeError("injected")
        return original(self)

    monkeypatch.setattr(BFSProblem, "labels", flaky)
    report = harness.end_to_end(tiny("road-bfs"), seed=3, seconds=0.1)
    assert report.failed == 1
    assert report.as_json()["correct"] is False


def test_tracing_restores_every_wrapped_attribute():
    w = tiny("rmat-bfs")
    boundaries = harness.setup_boundaries(w) + harness.query_boundaries(w)
    before = [(b.owner, b.attr, vars(b.owner).get(b.attr)) for b in boundaries]
    harness.per_layer(w, seed=3, seconds=0.1)
    for owner, attr, original in before:
        assert vars(owner).get(attr) is original, (owner, attr)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "rmat-bfs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
