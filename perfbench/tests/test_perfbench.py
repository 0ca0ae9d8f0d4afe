"""Tests of the benchmark itself: inputs, gate, span arithmetic, tracing.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import spans  # noqa: E402
import workloads  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(SRC))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_deterministic_per_seed_and_differ_across_seeds(name):
    a = workloads.input_texts(name, 1)
    assert a == workloads.input_texts(name, 1)
    assert a != workloads.input_texts(name, 2)
    assert set(a) == {f"{name}.facets"} | (
        {f"{name}.charmap"} if workloads.WORKLOADS[name]["charmap"] else set())


def test_relabelling_keeps_the_complex():
    from torushom.formats import parse_facet_list
    from torushom.poset import face_counts

    for seed in (1, 2, 3):
        text = workloads.input_texts("torus7_Q", seed)["torus7_Q.facets"]
        S = parse_facet_list(text)
        assert face_counts(S) == (1, 7, 21, 14)
        assert S.vertex_labels() == list(range(1, 8))


@pytest.fixture(scope="module")
def cross4_fp_report(tmp_path_factory):
    d = tmp_path_factory.mktemp("cross4_Fp")
    argv = workloads.write_inputs("cross4_Fp", workloads.DEFAULT_SEED, d)
    p = subprocess.run([sys.executable, "-m", "torushom.cli", *argv], env=ENV,
                       capture_output=True, check=False, timeout=120)
    return p.returncode, p.stdout


def test_gate_accepts_a_real_report(cross4_fp_report):
    assert workloads.check_report("cross4_Fp", *cross4_fp_report) == []


def test_gate_rejects_flipped_h_entry(cross4_fp_report):
    rc, out = cross4_fp_report
    report = json.loads(out)
    report["results"]["vectors"]["vectors"]["h"][2] += 1
    problems = workloads.check_report("cross4_Fp", rc, json.dumps(report).encode())
    assert any(p.startswith("h:") for p in problems)


def test_gate_rejects_nonzero_exit(cross4_fp_report):
    assert workloads.check_report("cross4_Fp", 1, cross4_fp_report[1]) == ["exit status 1"]


def test_gate_rejects_ok_false(cross4_fp_report):
    report = json.loads(cross4_fp_report[1])
    report["ok"] = False
    assert workloads.check_report("cross4_Fp", 0, json.dumps(report).encode()) \
        == ['"ok" is not true']


def test_gate_rejects_wrong_workload(cross4_fp_report):
    assert workloads.check_report("torus7_Q", *cross4_fp_report) != []


def test_self_times_on_nested_spans():
    tree = [
        ["cli.main", -1, 0.0, 10.0, 0],
        ["poset.link", 0, 1.0, 3.0, 0],
        ["exactlin.Matrix.rref", 1, 1.5, 2.5, 12],
        ["exactlin.Matrix.rref", 0, 4.0, 8.0, 6],
        ["exactlin.Matrix.rref", 3, 5.0, 6.0, 2],
        ["exactlin.Matrix.mul", 3, 6.5, 7.0, 0],
    ]
    assert spans.self_times(tree) == [4.0, 1.0, 1.0, 2.5, 1.0, 0.5]
    m = spans.layer_metrics(tree, {"face_vectors": 0})
    assert m["cli.self_s"] == 4.0 and m["cli.calls"] == 1
    assert m["poset.self_s"] == 1.0 and m["poset.link_calls"] == 1
    assert m["exactlin.self_s"] == 5.0 and m["exactlin.calls"] == 4
    assert m["exactlin.rref_calls"] == 3
    assert m["exactlin.rref_cells"] == 20
    assert m["exactlin.rref_s"] == 5.0      # the nested rref is not counted twice
    assert m["exactlin.mul_s"] == 0.5
    assert m["torusalg.calls"] == 0 and m["redundancy.face_vectors"] == 0.0
    assert list(m) == spans.METRICS


def test_traced_job_prints_the_same_stdout(tmp_path):
    from torushom.fixtures import preset_charmap
    from torushom.formats import write_charmap

    preset = "boundary_of_simplex(2)"
    (tmp_path / "b2.charmap").write_text(write_charmap(preset_charmap(preset)))
    argv = ["all", "--preset", preset, "--charmap", str(tmp_path / "b2.charmap")]
    plain = subprocess.run([sys.executable, "-m", "torushom.cli", *argv], env=ENV,
                           capture_output=True, check=True, timeout=120)
    out = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(BENCH / "spans.py"), str(out), "b2", *argv],
                            env=ENV, capture_output=True, check=True, timeout=120)
    assert traced.stdout == plain.stdout
    data = json.loads(out.read_text())
    assert data["job"] == "b2"
    m = spans.layer_metrics(data["spans"], data["distinct"])
    assert m["cli.calls"] >= 1 and m["torusalg.kit_builds"] >= 1
    assert m["exactlin.rref_calls"] > 0
    assert m["redundancy.face_vectors"] >= 1.0


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    for w in bench["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]]["why"]
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = spans.METRICS + ["trace.overhead"]
    assert per_layer == {k: spans.unit(k) for k in names}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cross4_Q",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, timeout=120)
    assert p.returncode != 0
    assert p.stdout == b""


def _run(workload, trace):
    p = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                        "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, timeout=170, check=True)
    detail, result = [json.loads(line) for line in p.stdout.splitlines()[-2:]]
    assert result["correct"] and result["failed"] == 0, detail["problems"]
    return detail, result


def test_run_reports_the_end_to_end_metrics_and_the_jobs_own_rss():
    detail, result = _run("cross4_Fp", 0)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert result["attempted"] == 1 and detail["fail_frac"] == 0.0
    # otherwise peak_rss_mb would read the runner's own high-water mark
    assert detail["runner_rss_mb"] < min(detail["peak_rss_mb"])


def test_traced_run_on_cross4_q_skips_the_torus_layers():
    detail, result = _run("cross4_Q", 1)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in bench["per_layer"]}
    assert detail["samples"]["traced_jobs"] == 1
    assert all(v == 0 for k, v in metrics.items() if k.startswith(("torusalg.", "facering.")))
    assert metrics["exactlin.rref_calls"] > 0 and metrics["trace.overhead"] > 0
