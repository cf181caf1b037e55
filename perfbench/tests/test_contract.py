"""BENCHMARK.json agrees with what the benchmark prints."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import run, workloads

ROOT = run.ROOT
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_spec_has_exactly_the_contract_keys():
    assert set(spec()) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }


def test_every_metric_name_is_well_formed_and_unique():
    s = spec()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in s[key]]
    names += [w["name"] for w in s["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_spec_workloads_and_layers_match_the_code():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in s["per_layer"]] == list(workloads.PER_LAYER)
    setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert max(m["bound"] for m in s["end_to_end"]) == setup[0]["bound"] <= 0.25


def fake_workload(names, mismatches=0):
    def workload(ctx):
        res = workloads.Result(attempted=3, failed=0, mismatches=mismatches)
        res.metrics = {name: 1.5 for name in names}
        return res

    return workload


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(monkeypatch, capsys, tmp_path, trace, key):
    metrics = spec()[key]
    monkeypatch.setitem(
        workloads.WORKLOADS, "fake", fake_workload([m["name"] for m in metrics])
    )
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    code = run.main(["--workload", "fake", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    final = json.loads(out[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["metrics"] == {
        m["name"]: {"value": 1.5, "unit": m["unit"]} for m in metrics
    }
    for m in metrics:  # and in the human-readable table
        assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"])
                   for line in out)


def test_a_mismatch_exits_nonzero(monkeypatch, capsys, tmp_path):
    names = [m["name"] for m in spec()["end_to_end"]]
    monkeypatch.setitem(workloads.WORKLOADS, "fake", fake_workload(names, mismatches=1))
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    code = run.main(["--workload", "fake", "--seed", "3", "--seconds", "1"])
    assert code == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_a_missing_metric_is_refused(monkeypatch, capsys, tmp_path):
    names = [m["name"] for m in spec()["end_to_end"]][1:]
    monkeypatch.setitem(workloads.WORKLOADS, "fake", fake_workload(names))
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    assert run.main(["--workload", "fake", "--seed", "3", "--seconds", "1"]) == 3
    assert '"metrics"' not in capsys.readouterr().out


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_cv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

