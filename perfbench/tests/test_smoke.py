"""Smoke tests for the benchmark itself, on tiny versions of each workload.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import bench, references, run, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, seed: int = 0) -> workloads.Workload:
    rng = random.Random(seed)
    if name == "compact-studies":
        items = (
            workloads.experiment_item("su2", "dirichlet", (50, 8), rng),
            workloads.experiment_item("chebyshev", "fejer", (8, 16), rng),
            workloads.experiment_item("chebyshev", "fejer-signed", (8,), rng),
            workloads.Tz2Item(3),
        )
    elif name == "order-ladder":
        items = tuple(workloads.group_item(g, rng) for g in ("Z6", "S3", "Q8", "Z2xZ2", "S3xS3"))
    else:
        d10 = dataclasses.replace(workloads.group_item("D10", rng), verify_diagonal=True)
        items = (workloads.group_item("Q8xZ4", rng), d10)
    return workloads.Workload(name, items)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(tmp_path, name):
    result = bench.timed_run(lambda: tiny(name), 0, 0.1, ROOT, tmp_path / "work", setup_repeats=1)
    assert result.failed == 0, result.problems
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: unit for k, (_, unit) in result.metrics.items()} == expected
    assert all(value > 0 for value, _ in result.metrics.values())
    line = json.loads(result.line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"} and line["correct"]
    # every pass item plus every CLI command is one operation
    commands = 1 if name != "compact-studies" else len(tiny(name).items)
    assert result.attempted == result.notes["passes"] * len(tiny(name).items) + bench.CLI_ROUNDS * commands


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(tmp_path, name):
    result = bench.traced_run(lambda: tiny(name), 0, 0.1, ROOT, tmp_path / "work")
    assert result.failed == 0, result.problems
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: unit for k, (_, unit) in result.metrics.items()} == expected
    metrics = {k: v for k, (v, _) in result.metrics.items()}
    assert metrics["trace.accounted_ratio"] > 0.9
    assert metrics["cli.main_s"] > 0
    if name == "compact-studies":
        assert metrics["hypergroups.rows"] == 5
        assert metrics["hypergroups.unconverged_rows"] >= 1  # SU(2) Dirichlet at n=50
        assert metrics["tz2.pairs"] == 2 * 25
    else:
        assert metrics["cache.hit_ratio"] == 0.5 and metrics["characters.classes"] > 0
        assert metrics["zoo.build_s"] > 0  # Q8 comes from the zoo's table
    if name == "class-ladder":
        assert metrics["central.convolve_calls"] > 0

    spans = json.loads((tmp_path / f"{name}-seed0-spans.json").read_text())
    assert spans
    for index, span in enumerate(spans):
        assert span["item"] and span["start"] <= span["end"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert span["parent"] < index
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


def test_reference_checks_fire(monkeypatch, tmp_path):
    monkeypatch.setitem(references.CLOSED_FORM, "S3", Fraction(2))
    outcomes = workloads.run_pass(tiny("order-ladder"), tmp_path / "cache")
    failing = {o.name for o in outcomes if o.problems}
    assert failing == {"S3", "S3xS3"}

    monkeypatch.setattr(workloads, "TZ2_CONTROL_WEIGHT", Fraction(-2))
    assert workloads.Tz2Item(2).run(tmp_path).problems

    fejer = workloads.experiment_item("chebyshev", "fejer", (8,), random.Random(0))
    row = {"n": 8, "diagonal_norm": 1.01, "diagonal_error_estimate": 0.0, "bai_norm": 1.0, "bai_error_estimate": 0.0}
    assert workloads.check_rows(fejer, [row])
    signed = workloads.experiment_item("chebyshev", "fejer-signed", (8,), random.Random(0))
    assert workloads.check_rows(signed, [dict(row, bai_norm=1.0 + 1e-9)])
    assert workloads.check_constant("S4", 7.0, 1.0, True)  # wrong constant
    assert workloads.check_constant("Z5", 1.0, 1.5, True)  # HS bound above AM


def test_a_raising_item_is_a_failed_operation(tmp_path):
    broken = workloads.GroupItem("S3", '{"format": "zamen-group", "version": 1, "kind": "nope"}')
    (outcome,) = workloads.run_pass(workloads.Workload("order-ladder", (broken,)), tmp_path)
    assert "raised SpecError" in outcome.problems[0]


def test_seed_relabels_elements_but_not_constants(tmp_path):
    docs = {seed: workloads.group_item("D8", random.Random(seed)).doc for seed in (1, 2)}
    assert docs[1] != docs[2]
    for seed, doc in docs.items():
        assert not workloads.GroupItem("D8", doc).run(tmp_path / str(seed)).problems


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_documents(name):
    assert workloads.build(name, 7) == workloads.build(name, 7)
    assert workloads.build(name, 7) != workloads.build(name, 8)


def test_tail_has_ten_samples_above_it():
    assert bench.tail([float(x) for x in range(1, 21)]) == (10.0, 10)
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 3)


def test_benchmark_json_matches_the_code():
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_exits_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "order-ladder", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and "correct" not in done.stdout
