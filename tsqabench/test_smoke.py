"""Smoke test of the benchmark: every workload at minimal size, untraced and
traced, must emit every metric and span by name with its unit.

    python3 -m pytest -q -p no:cacheprovider tsqabench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import NAMED  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

ENV_KEYS = ("workload", "seed", "blas_threads", "nproc", "cpu", "python", "numpy", "blas")
SPAN_SUFFIXES = (".calls", ".self_ms", ".ms_p50")
ISSUE_SPANS = [
    "data.load_series", "encoder.patchify", "encoder.encode", "encoder.tpe",
    "model.encode_series", "model.temporal_tokens", "model.augmented_prompt", "model.loss",
    "model.rank_choices", "model.answer_greedy", "fusion.fuse", "fusion.refine",
    "fusion.channel", "fusion.time", "fusion.inject", "lm.embed", "lm.logits", "lm.score",
    "lm.decode", "tensor.backward", "train.step", "train.clip", "train.adam",
    "train.checksum", "metrics.evaluate", "metrics.text",
]
ISSUE_COUNTS = [
    "model.encode_cache.hit_ratio", "encoder.encode.calls", "model.encode_series.calls",
    "lm.logits.rows", "lm.decode.tokens", "fusion.channel.tokens",
    "workload.multi_series_share",
]


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "tsqabench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _metric_lines(stdout):
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            out[name] = (float(value), unit)
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name

    env = lines[0]
    assert env.startswith("env ")
    for key in ENV_KEYS:
        assert f" {key}=" in env, key

    printed = _metric_lines(proc.stdout)
    assert printed["ops_attempted"] == (result["attempted"], "count")
    assert printed["ops_failed"] == (0, "count")
    for name, m in result["metrics"].items():
        assert printed[name] == (m["value"], m["unit"])
    if trace:
        for span in ISSUE_SPANS:
            for suffix in SPAN_SUFFIXES:
                assert span + suffix in printed, span + suffix
        for name in ISSUE_COUNTS:
            assert name in printed, name
        assert "check trace_coverage ok" in lines
    else:
        for name in NAMED[workload].values():
            assert printed[name][0] > 0, name
        assert (printed["setup_s"][1], printed["peak_rss_mb"][1]) == ("s", "MB")
        if workload == "train":
            assert printed["train_loss_final"][1] == "nats"
    assert "check op_failures 0 of" in proc.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "tsqabench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("train", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
