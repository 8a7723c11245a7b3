"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpora  # noqa: E402
from layers import LAYERS  # noqa: E402
from tracer import Layer, Tracer, metric_names  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("make", [corpora.nested_corpus, corpora.logs_corpus])
def test_one_seed_reproduces_byte_identical_corpora(make):
    first = [corpora.to_jsonl(split) for split in make(3)]
    again = [corpora.to_jsonl(split) for split in make(3)]
    other = [corpora.to_jsonl(split) for split in make(4)]
    assert first == again
    assert first[0] != other[0]


def test_log_records_have_the_documented_shape():
    _, corpus = corpora.logs_corpus(0)
    for doc in corpus:
        for field in ("path", "agent", "message"):
            assert 20 <= len(doc[field].encode("utf-8")) <= 160
        assert 1 <= len(doc["headers"]) <= 5
    # more distinct values than the categorical threshold: n-gram leaves
    assert len({d["message"] for d in corpus}) > 32


def _bindings(package: str) -> dict:
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
            for attr, value in vars(module).items()}


def test_tracer_restores_every_name_it_patched():
    import hmil.cli  # noqa: F401  (imports every hmil module)
    before = _bindings("hmil")
    tracer = Tracer(LAYERS, "hmil")
    with pytest.raises(RuntimeError):
        with tracer.installed():
            during = _bindings("hmil")
            patched = {k for k in before if during[k] is not before[k]}
            raise RuntimeError("leave the block early")
    after = _bindings("hmil")
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # the callers' names were wrapped, not only the defining module's
    assert ("hmil.training", "build_batch") in patched
    assert ("hmil.model", "dense_forward") in patched
    assert ("hmil.cli", "encode_document") in patched
    assert ("hmil.verification", "infer_schema") in patched
    assert {layer.function for layer in LAYERS} == {k[1] for k in patched}


def test_self_time_is_span_time_minus_child_spans():
    pkg = types.ModuleType("fakepkg")

    def inner(n):
        time.sleep(0.01)
        return pkg.inner(n - 1) if n else 0

    def outer():
        time.sleep(0.02)
        return pkg.inner(2) + pkg.inner(0)

    pkg.inner, pkg.outer = inner, outer
    sys.modules["fakepkg"] = pkg
    try:
        tracer = Tracer([Layer("pkg.outer", "fakepkg", "outer", ()),
                         Layer("pkg.inner", "fakepkg", "inner", (),
                               ("n",), lambda a, k, r: (a[0],))], "fakepkg")
        tracer.run_id = "r1"
        with tracer.installed():
            pkg.outer()
        m = tracer.metrics()
    finally:
        del sys.modules["fakepkg"]
    assert pkg.outer is outer and pkg.inner is inner
    # recursion stays inside the outermost span
    assert m["pkg.inner.calls"] == 2 and m["pkg.outer.calls"] == 1
    assert m["pkg.inner.n"] == 2
    assert m["pkg.outer.self_s"] == pytest.approx(
        m["pkg.outer.s"] - m["pkg.inner.s"])
    assert 0.015 < m["pkg.outer.self_s"] < m["pkg.outer.s"]
    outer_span = next(s for s in tracer.spans if s.name == "pkg.outer")
    assert outer_span.parent is None
    assert all(s.parent == outer_span.id and s.run == "r1"
               for s in tracer.spans if s.name == "pkg.inner")


def test_every_metric_name_is_well_formed():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_per_layer_metrics_match_the_tracer():
    assert [m["name"] for m in SPEC["per_layer"]] == (
        metric_names(LAYERS) + ["trace_overhead_s"])


def test_every_layer_names_the_end_to_end_metric_it_should_move():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for layer in LAYERS:
        assert layer.moves, layer.name
        for metric, workload in layer.moves:
            assert metric in end_to_end, (layer.name, metric)
            assert workload in workloads, (layer.name, workload)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nested-train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
