"""The benchmark's own tests, at a tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers
from perfbench.run import run
from perfbench.workloads import TINY, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAMES = list(WORKLOADS)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """One untraced and one traced tiny run per workload (seed 3)."""
    work = tmp_path_factory.mktemp("work")
    return {(name, trace): run(name, 3, 1.0, trace, scale=TINY, workdir=work)
            for name in NAMES for trace in (False, True)}


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(layers.WORKLOADS)
    assert list(WORKLOADS) == list(layers.WORKLOADS)
    for key, catalogue in (("end_to_end", layers.END_TO_END),
                           ("per_layer", layers.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == \
            [(m.name, m.unit, m.better) for m in catalogue]
    for metric in layers.PER_LAYER:
        for e2e, workload in metric.moves:
            assert e2e in {m.name for m in layers.END_TO_END}
            assert workload in layers.WORKLOADS


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(results, name, trace):
    result = results[(name, trace)]["result"]
    catalogue = layers.PER_LAYER if trace else layers.END_TO_END
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m.name: m.unit for m in catalogue}
    for value in result["metrics"].values():
        assert np.isfinite(value["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_attributes_the_kernel(results, name):
    metrics = {k: v["value"]
               for k, v in results[(name, True)]["result"]["metrics"].items()}
    assert metrics["trace.spans"] > 0
    assert metrics["session.spawns"] == 1
    assert metrics["kernel.us_per_perm"] >= metrics["kernel.self_us_per_perm"] > 0
    children = sum(metrics[m] for m in (
        "stats.batch_us_per_perm", "permute.take_batch_us_per_perm",
        "adjust.side_adjust_us_per_perm",
        "adjust.successive_maxima_us_per_perm"))
    assert children + metrics["kernel.self_us_per_perm"] == \
        pytest.approx(metrics["kernel.us_per_perm"])
    # Observed scores, rank-0 kernel time and steal-master overhead make
    # up the main_kernel section; the rest is small set-up glue.
    assert abs(metrics["pmaxt.main_kernel_unaccounted_ms"]) <= \
        0.25 * metrics["pmaxt.main_kernel_ms"]


def test_layer_counters_follow_the_workload(results):
    def metrics(name):
        return {k: v["value"] for k, v in
                results[(name, True)]["result"]["metrics"].items()}

    bulk, service, reanalysis = (metrics(n) for n in NAMES)
    assert bulk["cache.hits"] == bulk["serve.run_ms"] == 0
    assert service["cache.hits"] == 0 and service["cache.misses"] > 0
    assert service["corr.pcor_ms"] > 0 and service["serve.run_ms"] > 0
    assert reanalysis["cache.hits"] > reanalysis["cache.misses"] > 0
    assert reanalysis["cache.extended"] > 0
    assert reanalysis["checkpoint.saves"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_inputs_not_metric_set(tmp_path, name):
    def first_matrix(workload):
        if hasattr(workload, "X"):
            return workload.X
        first = workload.datasets[0]
        return first[0] if isinstance(first, tuple) else first

    a = WORKLOADS[name](3, TINY, tmp_path)
    b = WORKLOADS[name](4, TINY, tmp_path)
    assert first_matrix(a).shape == first_matrix(b).shape
    assert not np.array_equal(first_matrix(a), first_matrix(b))
    assert np.array_equal(first_matrix(a),
                          first_matrix(WORKLOADS[name](3, TINY, tmp_path)))
    out = run(name, 4, 0.5, False, scale=TINY, workdir=tmp_path)
    assert set(out["result"]["metrics"]) == {m.name for m in layers.END_TO_END}


def _wrong(reference):
    def call():
        want = reference()
        if isinstance(want, np.ndarray):
            return want + 1.0
        want.teststat = want.teststat + 1.0
        return want
    return call


@pytest.mark.parametrize("name", NAMES)
def test_wrong_reference_counts_as_failed(tmp_path, name):
    def plant(workload):
        request = workload.request

        def wrong_request(i):
            req = request(i)
            req.reference = _wrong(req.reference)
            return req
        workload.request = wrong_request

    out = run(name, 3, 0.5, False, scale=TINY, workdir=tmp_path,
              workload_hook=plant)["result"]
    assert not out["correct"]
    assert 1 <= out["failed"] <= out["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk-exon36k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
