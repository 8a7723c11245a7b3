"""Command line behavior: exit codes, file outputs, determinism, and
the injected-fault check on the verify suite."""

import contextlib
import errno
import hashlib
import inspect
import io
import json
import os
import resource
import signal
import stat
import struct
import subprocess
import sys
import tempfile
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from conftest import kernel_note, pinned
from hypothesis import given, strategies as st

import hmil.cli as cli_mod
import hmil.model as model_mod
import hmil.schema as schema_mod
import hmil.training as training_mod
from hmil.batching import build_batch
from hmil.cli import main
from hmil.model import Model, ModelConfig, build_model, forward, save_model
from hmil.nn import Tensor
from hmil.schema import StringLeaf, loads_schema, node_paths
from hmil.training import CHUNK_SIZE, TrainConfig
from hmil.verification import PLAIN_BAG


def write_jsonl(path, docs):
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def edit_container(path, schema=None, config=None):
    """Rewrite a model container with its schema and config blobs passed
    through ``schema`` and ``config`` (bytes to bytes), fixing their
    length fields."""
    raw, pos, blobs = path.read_bytes(), 8, []
    for edit in (schema, config):
        (n,) = struct.unpack("<Q", raw[pos:pos + 8])
        blob = raw[pos + 8:pos + 8 + n]
        blob = edit(blob) if edit else blob
        blobs.append(struct.pack("<Q", len(blob)) + blob)
        pos += 8 + n
    path.write_bytes(raw[:8] + b"".join(blobs) + raw[pos:])


@pytest.fixture
def corpus(tmp_path):
    """Small two-class bag corpus plus inferred schema on disk."""
    rng = np.random.default_rng(0)
    docs = []
    for i in range(120):
        label = i % 2
        docs.append({"values": [float(v) for v in
                                rng.normal(0, 2.0 if label else 1.0, 20)],
                     "kind": "hot" if label else "cold"})
    train = tmp_path / "train.jsonl"
    write_jsonl(train, docs)
    schema = tmp_path / "schema.json"
    assert main(["infer", "--input", str(train),
                 "--output", str(schema)]) == 0
    return {"dir": tmp_path, "train": train, "schema": schema, "docs": docs}


class TestInfer:
    def test_writes_schema_and_summary(self, tmp_path, capsys):
        src = tmp_path / "d.jsonl"
        write_jsonl(src, [{"values": [1.0, 2.0], "kind": "a"}])
        out_path = tmp_path / "s.json"
        assert main(["infer", "--input", str(src),
                     "--output", str(out_path)]) == 0
        schema = loads_schema(out_path.read_text())
        assert set(schema.field_names) == {"values", "kind"}
        out = capsys.readouterr().out
        assert "bag" in out and "product" in out

    def test_empty_corpus_exits_2(self, tmp_path, capsys):
        src = tmp_path / "empty.jsonl"
        src.write_text("\n\n")
        rc = main(["infer", "--input", str(src),
                   "--output", str(tmp_path / "s.json")])
        assert rc == 2
        assert "empty corpus" in capsys.readouterr().err

    def test_conflict_exits_2_naming_path(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        write_jsonl(src, [{"a": 1.0}, {"a": "text"}])
        rc = main(["infer", "--input", str(src),
                   "--output", str(tmp_path / "s.json")])
        assert rc == 2
        assert "$.a" in capsys.readouterr().err

    def test_malformed_line_exits_2_with_number(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        src.write_text('{"a": 1}\nnot json\n')
        rc = main(["infer", "--input", str(src),
                   "--output", str(tmp_path / "s.json")])
        assert rc == 2
        assert ":2:" in capsys.readouterr().err

    def test_categorical_threshold_flag(self, tmp_path):
        src = tmp_path / "c.jsonl"
        write_jsonl(src, [{"tag": "x"}, {"tag": "y"}])
        out = tmp_path / "s.json"
        assert main(["infer", "--input", str(src), "--output", str(out),
                     "--categorical-threshold", "0"]) == 0
        schema = loads_schema(out.read_text())
        assert isinstance(schema.field("tag").schema, StringLeaf)

    def test_schema_bytes_do_not_depend_on_line_order(self, tmp_path):
        """Numeric statistics are rounded once from exact sums, so the
        lines of a file and the same lines reversed give one schema."""
        rng = np.random.default_rng(3)
        lines = [json.dumps({"x": float(rng.normal(0, 9)),
                             "xs": rng.normal(5, 2, size=3).tolist()})
                 for _ in range(50)]
        schemas = []
        for order in (lines, lines[::-1]):
            src, out = tmp_path / "in.jsonl", tmp_path / "s.json"
            src.write_text("".join(line + "\n" for line in order))
            assert main(["infer", "--input", str(src),
                         "--output", str(out)]) == 0
            schemas.append(out.read_bytes())
        assert schemas[0] == schemas[1]

    def test_missing_input_exits_2(self, tmp_path, capsys):
        rc = main(["infer", "--input", str(tmp_path / "nope.jsonl"),
                   "--output", str(tmp_path / "s.json")])
        assert rc == 2

    def test_negative_threshold_exits_2(self, tmp_path, capsys):
        src = tmp_path / "c.jsonl"
        write_jsonl(src, [{"tag": "x"}, {"tag": "y"}])
        out = tmp_path / "s.json"
        rc = main(["infer", "--input", str(src), "--output", str(out),
                   "--categorical-threshold", "-3"])
        assert rc == 2
        assert "--categorical-threshold must be >= 0, got -3" in \
            capsys.readouterr().err
        assert not out.exists()


def run_train(corpus, out_name="model.bin", extra_args=()):
    out = corpus["dir"] / out_name
    rc = main(["train", "--schema", str(corpus["schema"]),
               "--train", str(corpus["train"]),
               "--label-field", "kind", "--output", str(out),
               "--epochs", "4", "--seed", "7", *extra_args])
    return rc, out


class TestTrain:
    def test_writes_model_and_report(self, corpus):
        rc, out = run_train(corpus)
        assert rc == 0
        assert out.exists()
        report = json.loads((corpus["dir"] / "model.bin.report.json")
                            .read_text())
        assert report["n_documents"] == 120
        assert report["classes"] == ["cold", "hot"]
        assert report["model_config"]["embed_dim"] == 32
        assert report["train_config"]["epochs"] == 4
        assert len(report["epoch_loss"]) == 4

    def test_label_field_stripped_from_schema(self, corpus):
        # the schema was inferred from the labeled file, so the label
        # column must not leak into the model inputs
        rc, out = run_train(corpus)
        from hmil.model import load_model
        model, extra = load_model(str(out))
        assert "kind" not in model.schema.field_names
        assert extra["label_field"] == "kind"

    def test_same_seed_byte_identical(self, corpus):
        _, a = run_train(corpus, "a.bin")
        _, b = run_train(corpus, "b.bin")
        assert a.read_bytes() == b.read_bytes()
        ra = (corpus["dir"] / "a.bin.report.json").read_text()
        rb = (corpus["dir"] / "b.bin.report.json").read_text()
        assert ra == rb

    def test_different_seed_differs(self, corpus):
        _, a = run_train(corpus, "a.bin")
        out = corpus["dir"] / "c.bin"
        main(["train", "--schema", str(corpus["schema"]),
              "--train", str(corpus["train"]), "--label-field", "kind",
              "--output", str(out), "--epochs", "4", "--seed", "8"])
        assert a.read_bytes() != out.read_bytes()

    def test_zero_epochs_initial_model_empty_report(self, corpus):
        rc, out = run_train(corpus, "z.bin", ("--epochs", "0"))
        # the later --epochs flag wins over the helper's default
        assert rc == 0
        report = json.loads((corpus["dir"] / "z.bin.report.json").read_text())
        assert report["epoch_loss"] == []
        assert report["epoch_metric"] == []
        from hmil.model import load_model
        load_model(str(out))

    def test_missing_label_field_exits_2(self, corpus, capsys):
        bad = corpus["dir"] / "bad.jsonl"
        docs = [dict(d) for d in corpus["docs"][:3]]
        del docs[1]["kind"]
        write_jsonl(bad, docs)
        rc = main(["train", "--schema", str(corpus["schema"]),
                   "--train", str(bad), "--label-field", "kind",
                   "--output", str(corpus["dir"] / "m.bin")])
        assert rc == 2
        assert ":2:" in capsys.readouterr().err

    def test_report_naming_the_model_file_exits_2(self, corpus, capsys):
        """Checked before any input is read, through a link as well, and
        only for a regular file: /dev/null takes both."""
        out = corpus["dir"] / "m.bin"
        (corpus["dir"] / "link.bin").symlink_to(out)
        for report, train in ((out, corpus["train"]),
                              (corpus["dir"] / "link.bin",
                               corpus["dir"] / "missing.jsonl")):
            rc = main(["train", "--schema", str(corpus["schema"]),
                       "--train", str(train), "--label-field", "kind",
                       "--output", str(out), "--report", str(report)])
            assert rc == 2
            assert capsys.readouterr().err == (
                f"error: --report {report} would replace the model file "
                f"--output {out}\n")
            assert not out.exists()
        rc, _ = run_train(corpus, os.devnull, ("--report", os.devnull))
        assert rc == 0

    @pytest.mark.parametrize("flag", ["--output", "--report"])
    def test_output_or_report_naming_the_schema_file_exits_2(
            self, corpus, capsys, flag):
        """Checked before any input is read, through a link as well: the
        schema file is left as it was."""
        schema = corpus["schema"]
        kept = schema.read_bytes()
        link = corpus["dir"] / "link.json"
        link.symlink_to(schema)
        for path in (schema, link):
            names = {"--output": corpus["dir"] / "m.bin", flag: path}
            rc = main(["train", "--schema", str(schema),
                       "--train", str(corpus["dir"] / "missing.jsonl"),
                       "--label-field", "kind",
                       *(str(a) for kv in names.items() for a in kv)])
            assert rc == 2
            assert capsys.readouterr().err == (
                f"error: {flag} {path} would replace the schema file "
                f"--schema {schema}\n")
            assert schema.read_bytes() == kept

    def test_divergence_exits_3(self, tmp_path, capsys):
        src = tmp_path / "t.jsonl"
        write_jsonl(src, [{"xs": [1.0, 2.0], "y": 1e200},
                          {"xs": [0.5], "y": -1e200}] * 10)
        schema = tmp_path / "s.json"
        docs = [{"xs": d["xs"]} for d in read_jsonl(src)]
        write_jsonl(tmp_path / "u.jsonl", docs)
        assert main(["infer", "--input", str(tmp_path / "u.jsonl"),
                     "--output", str(schema)]) == 0
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["train", "--schema", str(schema),
                       "--train", str(src), "--label-field", "y",
                       "--output", str(tmp_path / "m.bin"),
                       "--loss", "mse", "--epochs", "2"])
        assert rc == 3
        assert "diverged" in capsys.readouterr().err

    def test_config_file_and_flag_precedence(self, corpus):
        cfg = corpus["dir"] / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 9, "embed_dim": 8}))
        rc, _ = run_train(corpus, "p.bin", ("--config", str(cfg)))
        report = json.loads((corpus["dir"] / "p.bin.report.json").read_text())
        # the flag from run_train wins over the file for epochs, the
        # file wins over the default for embed_dim
        assert report["train_config"]["epochs"] == 4
        assert report["model_config"]["embed_dim"] == 8

    def test_every_setting_has_a_flag(self, corpus):
        """Each ModelConfig and TrainConfig field has a flag, which wins
        over a config file that sets every field otherwise."""
        model = {"embed_dim": 5, "hidden_dim": 6, "output_dim": 3,
                 "activation": "relu", "aggregation": "max", "seed": 2}
        trainer = {"epochs": 1, "batch_size": 9, "learning_rate": 0.01,
                   "seed": 2, "loss": "ce"}
        assert model.keys() == {f.name for f in fields(ModelConfig)}
        assert trainer.keys() == {f.name for f in fields(TrainConfig)}
        cfg = corpus["dir"] / "cfg.json"
        cfg.write_text(json.dumps({
            "embed_dim": 4, "hidden_dim": 4, "output_dim": 1,
            "activation": "tanh", "aggregation": "mean", "seed": 1,
            "epochs": 3, "batch_size": 5, "learning_rate": 0.5,
            "loss": "mse"}))
        flags = [arg for name, value in {**model, **trainer}.items()
                 for arg in ("--" + name.replace("_", "-"), str(value))]
        rc, _ = run_train(corpus, "f.bin", ("--config", str(cfg), *flags))
        assert rc == 0
        report = json.loads((corpus["dir"] / "f.bin.report.json").read_text())
        assert report["model_config"] == model
        assert report["train_config"] == trainer

    def test_unknown_config_key_exits_2(self, corpus, capsys):
        cfg = corpus["dir"] / "cfg.json"
        cfg.write_text(json.dumps({"width": 3}))
        rc, _ = run_train(corpus, "q.bin", ("--config", str(cfg)))
        assert rc == 2
        assert "width" in capsys.readouterr().err

    def test_output_dim_below_classes_exits_2(self, corpus, capsys):
        rc, _ = run_train(corpus, "r.bin", ("--output-dim", "1"))
        assert rc == 2
        assert "output_dim" in capsys.readouterr().err

    @staticmethod
    def train_labelled(tmp_path, labels, *flags):
        """Train on one bag document per label; returns the exit code."""
        src = tmp_path / "t.jsonl"
        write_jsonl(src, [{"xs": [float(i)], "y": y}
                          for i, y in enumerate(labels)])
        write_jsonl(tmp_path / "u.jsonl",
                    [{"xs": [float(i)]} for i in range(len(labels))])
        assert main(["infer", "--input", str(tmp_path / "u.jsonl"),
                     "--output", str(tmp_path / "s.json")]) == 0
        return main(["train", "--schema", str(tmp_path / "s.json"),
                     "--train", str(src), "--label-field", "y",
                     "--output", str(tmp_path / "m.bin"), "--epochs", "1",
                     *flags])

    def test_mse_output_dim_above_1_exits_2(self, tmp_path, capsys):
        rc = self.train_labelled(tmp_path, [0.5, 1.5], "--loss", "mse",
                                 "--output-dim", "2")
        assert rc == 2
        assert "mse loss needs output_dim 1, got 2" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [[1], {"a": 1}])
    def test_array_or_object_label_names_the_line(self, tmp_path, capsys,
                                                   bad):
        rc = self.train_labelled(tmp_path, [0, bad, 1])
        assert rc == 2
        assert "t.jsonl:2: label field 'y' is an array or object" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("loss", ["ce", "mse"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_nonfinite_label_names_the_line(self, tmp_path, capsys, loss,
                                            bad):
        # json writes these as NaN, Infinity and -Infinity, which json
        # reads back as floats
        rc = self.train_labelled(tmp_path, [0, 1, bad, 1], "--loss", loss)
        assert rc == 2
        assert "t.jsonl:3: label field 'y' is not a finite number" in \
            capsys.readouterr().err
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("bad", ["nan", "3"])
    def test_string_label_under_mse_names_the_line(self, tmp_path, capsys,
                                                   bad):
        rc = self.train_labelled(tmp_path, [0.5, bad, 1.5], "--loss", "mse")
        assert rc == 2
        assert f"t.jsonl:2: mse loss needs a numeric label, got the string " \
            f"{bad!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [10 ** 400, -10 ** 400])
    def test_label_past_float_range_under_mse_names_the_line(
            self, tmp_path, capsys, bad):
        rc = self.train_labelled(tmp_path, [0.5, 1.5, bad], "--loss", "mse")
        assert rc == 2
        assert "t.jsonl:3: mse loss needs numeric labels within float " \
            "range" in capsys.readouterr().err

    def test_bool_labels_are_not_merged_with_ints(self, tmp_path, capsys):
        assert self.train_labelled(tmp_path, [1, True, 0, False, 1]) == 0
        report = json.loads((tmp_path / "m.bin.report.json").read_text())
        assert report["classes"] == [False, True, 0, 1]
        assert report["model_config"]["output_dim"] == 4
        capsys.readouterr()
        assert main(["predict", "--model", str(tmp_path / "m.bin"),
                     "--input", str(tmp_path / "u.jsonl")]) == 0
        predictions = [json.loads(line)["prediction"]
                       for line in capsys.readouterr().out.splitlines()]
        assert all(p in (False, True, 0, 1) for p in predictions)


class TestPredict:
    def test_scores_and_per_line_errors(self, corpus, tmp_path, capsys):
        _, model = run_train(corpus)
        capsys.readouterr()
        src = tmp_path / "in.jsonl"
        with open(src, "w") as fh:
            fh.write(json.dumps({"values": [1.0, -2.0]}) + "\n")
            fh.write("garbage\n")
            fh.write("\n")
            fh.write(json.dumps({"values": [5.0], "other": 1}) + "\n")
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", "-"])
        assert rc == 1
        lines = [json.loads(l) for l in
                 capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 3
        assert lines[0]["prediction"] in ("hot", "cold")
        assert len(lines[0]["scores"]) == 2
        assert lines[1] == {"line": 2,
                            "error": lines[1]["error"]}
        assert "invalid JSON" in lines[1]["error"]
        assert lines[2]["line"] == 4
        assert "other" in lines[2]["error"]

    def test_label_field_ignored_in_input(self, corpus, tmp_path, capsys):
        _, model = run_train(corpus)
        capsys.readouterr()
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [corpus["docs"][0]])
        assert main(["predict", "--model", str(model), "--input", str(src),
                     "--output", "-"]) == 0
        line = json.loads(capsys.readouterr().out.strip())
        assert "prediction" in line

    def test_permuted_arrays_identical_scores(self, corpus, tmp_path,
                                              capsys):
        _, model = run_train(corpus)
        capsys.readouterr()
        values = corpus["docs"][0]["values"]
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [{"values": values},
                          {"values": list(reversed(values))}])
        assert main(["predict", "--model", str(model), "--input", str(src),
                     "--output", "-"]) == 0
        a, b = [json.loads(l) for l in
                capsys.readouterr().out.strip().splitlines()]
        assert np.max(np.abs(np.array(a["scores"])
                             - np.array(b["scores"]))) < 1e-9

    def test_output_file(self, corpus, tmp_path):
        _, model = run_train(corpus)
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [{"values": [0.1]}])
        dst = tmp_path / "out.jsonl"
        assert main(["predict", "--model", str(model), "--input", str(src),
                     "--output", str(dst)]) == 0
        assert "scores" in read_jsonl(dst)[0]

    def test_chunks_match_batched_forward(self, corpus, tmp_path, capsys):
        """Each scored line equals its row of one forward pass over its
        chunk, every CHUNK_SIZE documents that fit; error records keep
        their line order."""
        _, path = run_train(corpus)
        model, _ = model_mod.load_model(str(path))
        rng = np.random.default_rng(1)
        lines, fitting = [], []
        for i in range(2 * CHUNK_SIZE + 100):
            misfit = {3: "garbage", 5: "", 7: "null",
                      9: '{"values": "x"}'}.get(i % 11)
            if misfit is None:
                doc = {"values": [float(v) for v in rng.normal(size=i % 4)]}
                fitting.append(doc)
                lines.append(json.dumps(doc))
            else:
                lines.append(misfit)
        src = tmp_path / "in.jsonl"
        src.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["predict", "--model", str(path), "--input", str(src),
                     "--output", "-"]) == 1
        records = iter(json.loads(l)
                       for l in capsys.readouterr().out.splitlines())
        rows = iter(np.vstack([
            forward(model, build_batch(fitting[i:i + CHUNK_SIZE],
                                       model.schema)).data
            for i in range(0, len(fitting), CHUNK_SIZE)]))
        for number, line in enumerate(lines, start=1):
            if not line:
                continue  # a blank line has no record
            record = next(records)
            if line in ("garbage", "null", '{"values": "x"}'):
                assert record == {"line": number, "error": record["error"]}
            else:
                assert record["scores"] == [float(v) for v in next(rows)]
        assert next(records, None) is None and next(rows, None) is None

    def test_walker_compiles_once_per_run(self, corpus, tmp_path,
                                          monkeypatch):
        """Every chunk of a predict run validates with the one walker
        compiled from the model's schema: each node compiles once."""
        _, path = run_train(corpus)
        src = tmp_path / "in.jsonl"
        write_jsonl(src, corpus["docs"] * 5)
        assert len(corpus["docs"] * 5) > 2 * CHUNK_SIZE
        compiled, compile_node = [], schema_mod._compile

        def counting(node, column_path):
            compiled.append(column_path)
            return compile_node(node, column_path)

        monkeypatch.setattr(schema_mod, "_compile", counting)
        assert main(["predict", "--model", str(path), "--input", str(src),
                     "--output", str(tmp_path / "out.jsonl")]) == 0
        model, _ = model_mod.load_model(str(path))
        assert compiled == [p for p, _ in node_paths(model.schema)]

    def test_misfits_at_chunk_edges_keep_records_and_chunks(
            self, corpus, tmp_path, capsys):
        """Misfits as the first document, the last of the first chunk,
        the first of the second and the last document: each gets its
        error record, and every other line the row of one forward pass
        over its chunk of CHUNK_SIZE fitting documents."""
        _, path = run_train(corpus)
        model, _ = model_mod.load_model(str(path))
        n = 3 * CHUNK_SIZE + 7
        docs = [{"values": [i / 8, -1.0][:i % 3]} for i in range(n)]
        misfits = [{"values": "x"}, {"values": [1.0, None]},
                   {"values": [0.5], "extra": 1}, ["values"]]
        for place, misfit in zip((0, CHUNK_SIZE - 1, CHUNK_SIZE, n - 1),
                                 misfits):
            docs[place] = misfit
        src = tmp_path / "in.jsonl"
        write_jsonl(src, docs)
        capsys.readouterr()
        assert main(["predict", "--model", str(path), "--input", str(src),
                     "--output", "-"]) == 1
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        fitting = [doc for doc in docs if doc not in misfits]
        rows = iter(np.vstack([
            forward(model, build_batch(fitting[i:i + CHUNK_SIZE],
                                       model.schema)).data
            for i in range(0, len(fitting), CHUNK_SIZE)]))
        assert len(records) == n
        for number, (doc, record) in enumerate(zip(docs, records), start=1):
            if doc in misfits:
                violations = schema_mod.validate(doc, model.schema)
                assert record == {"line": number, "error": "; ".join(
                    str(v) for v in violations)}
            else:
                assert record["scores"] == [float(v) for v in next(rows)]
        assert next(rows, None) is None

    def test_output_may_be_the_input(self, corpus, tmp_path):
        _, model = run_train(corpus)
        src = tmp_path / "in.jsonl"
        src.write_text("garbage\n" + "".join(
            json.dumps(d) + "\n" for d in corpus["docs"] * 3))
        separate = tmp_path / "out.jsonl"
        argv = ["predict", "--model", str(model), "--input", str(src)]
        assert main([*argv, "--output", str(separate)]) == 1
        assert main([*argv, "--output", str(src)]) == 1
        assert src.read_bytes() == separate.read_bytes()
        assert len(read_jsonl(src)) == 1 + 3 * len(corpus["docs"])

    def test_failed_run_leaves_no_output(self, corpus, tmp_path,
                                         monkeypatch, capsys):
        _, model = run_train(corpus)
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [{"values": [0.1]}] * (CHUNK_SIZE + 1))
        scored = []

        def fail_second_chunk(*args):
            if scored:
                raise RecursionError  # as from a too deep model
            scored.append(1)
            return forward(*args)

        monkeypatch.setattr(training_mod, "forward", fail_second_chunk)
        before = sorted(os.listdir(tmp_path))
        assert main(["predict", "--model", str(model), "--input", str(src),
                     "--output", str(tmp_path / "out.jsonl")]) == 2
        assert scored and sorted(os.listdir(tmp_path)) == before

    def test_output_naming_the_model_file_exits_2(self, corpus, tmp_path,
                                                  capsys):
        """Checked before any input is read, through a link as well: the
        model file is left as it was, and a device takes both."""
        _, model = run_train(corpus)
        kept = model.read_bytes()
        link = tmp_path / "link.bin"
        link.symlink_to(model)
        for out in (model, link):
            rc = main(["predict", "--model", str(model),
                       "--input", str(tmp_path / "missing.jsonl"),
                       "--output", str(out)])
            assert rc == 2
            assert capsys.readouterr().err == (
                f"error: --output {out} would replace the model file "
                f"--model {model}\n")
            assert model.read_bytes() == kept
        src = tmp_path / "in.jsonl"
        write_jsonl(src, corpus["docs"][:3])
        assert main(["predict", "--model", os.devnull, "--input", str(src),
                     "--output", os.devnull]) == 2  # no model, no clash
        assert "would replace" not in capsys.readouterr().err

    def test_output_may_be_a_device(self, corpus, tmp_path):
        """A device is written in place, not replaced by a regular file."""
        _, model = run_train(corpus)
        src = tmp_path / "in.jsonl"
        write_jsonl(src, corpus["docs"][:3])
        assert main(["predict", "--model", str(model), "--input", str(src),
                     "--output", os.devnull]) == 0
        assert main(["infer", "--input", str(src),
                     "--output", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_output_through_a_symlink(self, corpus, tmp_path):
        """The link stays; the file it names is replaced."""
        _, model = run_train(corpus)
        src = tmp_path / "in.jsonl"
        write_jsonl(src, corpus["docs"][:3])
        target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        target.write_text("old\n")
        link.symlink_to(target)
        assert main(["predict", "--model", str(model), "--input", str(src),
                     "--output", str(link)]) == 0
        assert link.is_symlink() and len(read_jsonl(target)) == 3

    def test_read_error_names_the_input(self, corpus, tmp_path,
                                        monkeypatch, capsys):
        _, model = run_train(corpus)
        src = tmp_path / "in.jsonl"
        write_jsonl(src, corpus["docs"][:3])

        def failing_read(fh):
            yield 1, {"values": [0.1]}, None
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(cli_mod, "_parse_lines", failing_read)
        before = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--input", str(src),
                     "--output", str(tmp_path / "out.jsonl")]) == 2
        assert f"cannot read {src}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before

    def test_output_dim_above_class_count(self, corpus, tmp_path, capsys):
        rc, model = run_train(corpus, "wide.bin", (
            "--output-dim", "6", "--epochs", "0", "--seed", "0"))
        assert rc == 0
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [{"values": d["values"]} for d in corpus["docs"]])
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--input", str(src),
                     "--output", "-"]) == 0
        for line in capsys.readouterr().out.splitlines():
            record = json.loads(line)
            assert len(record["scores"]) == 6
            # the four outputs past the two classes name no class
            best = int(np.argmax(record["scores"][:2]))
            assert record["prediction"] == ["cold", "hot"][best]

    def test_nonfinite_outputs_are_line_errors(self, corpus, tmp_path):
        """Saturated hidden units times head weights of 1e308 overflow
        every score: each line gets an error record in strict JSON, and
        numpy prints no warning."""
        model = build_model(loads_schema(corpus["schema"].read_text()),
                            ModelConfig(output_dim=2))
        _, b1, w2, _ = model.layers["head"]
        b1.data[...], w2.data[...] = 100.0, 1e308
        path = tmp_path / "overflow.bin"
        save_model(model, str(path))

        def strict(token):
            raise ValueError(f"{token} is not strict JSON")

        proc = run_child(["predict", "--model", str(path),
                          "--input", str(corpus["train"])],
                         stdout=subprocess.PIPE)
        assert proc.returncode == 1, proc.stderr
        records = [json.loads(line, parse_constant=strict)
                   for line in proc.stdout.splitlines()]
        assert records == [{"line": n, "error": "non-finite model output"}
                           for n in range(1, len(corpus["docs"]) + 1)]
        assert "RuntimeWarning" not in proc.stderr

    def test_output_overflowing_after_the_last_step_exits_3(self, tmp_path):
        """One epoch at a learning rate of 1e308 leaves finite parameters
        whose every output overflows; no later loss would notice."""
        rng = np.random.default_rng(0)
        src = tmp_path / "xs.jsonl"
        write_jsonl(src, [{"xs": [float(v) for v in rng.normal(size=5)],
                           "y": i % 2} for i in range(40)])
        schema, model = tmp_path / "s.json", tmp_path / "m.bin"
        assert main(["infer", "--input", str(src),
                     "--output", str(schema)]) == 0
        proc = run_child(["train", "--schema", str(schema), "--train",
                          str(src), "--label-field", "y", "--output",
                          str(model), "--learning-rate", "1e308",
                          "--epochs", "1"], stdout=subprocess.PIPE)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == ("error: training diverged: non-finite model "
                               "output after the last step in epoch 0, "
                               "batch 0\n")
        assert not model.exists()

    def test_bad_model_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "m.bin"
        bad.write_bytes(b"not a container")
        rc = main(["predict", "--model", str(bad),
                   "--input", str(tmp_path / "in.jsonl"), "--output", "-"])
        assert rc == 2

    def test_huge_value_count_exits_2(self, corpus, tmp_path, capsys):
        _, model = run_train(corpus)
        blob = bytearray(model.read_bytes())
        loaded, _ = model_mod.load_model(str(model))
        n_values = sum(p.data.size for p in loaded.parameters())
        at = len(blob) - 8 * n_values - 8  # the u64 value count
        assert struct.unpack("<Q", blob[at:at + 8]) == (n_values,)
        blob[at:at + 8] = struct.pack("<Q", 2**62)
        model.write_bytes(bytes(blob))
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [{"values": [0.1]}])
        capsys.readouterr()
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", "-"])
        assert rc == 2
        assert "truncated container: parameters" in capsys.readouterr().err

    @pytest.mark.parametrize("at", [16, 17])
    def test_corrupt_schema_blob_exits_2(self, corpus, tmp_path, capsys, at):
        _, model = run_train(corpus)
        blob = bytearray(model.read_bytes())
        blob[at:at + 1] = b"\xff"
        model.write_bytes(bytes(blob))
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [{"values": [0.1]}])
        capsys.readouterr()
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", "-"])
        assert rc == 2
        assert "corrupt schema" in capsys.readouterr().err

    def test_corrupt_config_blob_exits_2(self, corpus, tmp_path, capsys):
        _, model = run_train(corpus)
        blob = bytearray(model.read_bytes())
        (n_schema,) = struct.unpack("<Q", blob[8:16])
        blob[16 + n_schema + 8 + 1] = ord("x")  # inside the config JSON
        model.write_bytes(bytes(blob))
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [{"values": [0.1]}])
        capsys.readouterr()
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", "-"])
        assert rc == 2
        assert "corrupt config blob" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["label_field", "kind"],
        {"label_field": ["kind"], "classes": ["cold", "hot"]},
        {"label_field": "kind", "classes": []},
    ], ids=["extra_array", "label_field_array", "classes_empty"])
    def test_malformed_metadata_exits_2(self, corpus, tmp_path, capsys,
                                        extra):
        _, model = run_train(corpus)
        edit_container(model, config=lambda blob: json.dumps(
            {**json.loads(blob), "extra": extra}).encode())
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [{"values": [0.1]}])
        capsys.readouterr()
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", "-"])
        assert rc == 2
        assert "malformed config blob" in capsys.readouterr().err


# a JSON integer too large for float64
HUGE = "9" * 401
# and one too long for json.loads to parse at all
LONG = "9" * 5000


class TestHugeIntegers:
    def test_infer_reports_a_conflict(self, tmp_path, capsys):
        src = tmp_path / "d.jsonl"
        src.write_text('{"a": 1}\n{"a": %s}\n' % HUGE)
        rc = main(["infer", "--input", str(src),
                   "--output", str(tmp_path / "s.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "$.a" in err and "finite number" in err

    def test_train_names_the_line(self, corpus, capsys):
        bad = corpus["dir"] / "bad.jsonl"
        lines = [json.dumps(d) for d in corpus["docs"][:3]]
        lines[2] = '{"values": [1.0, %s], "kind": "hot"}' % HUGE
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["train", "--schema", str(corpus["schema"]),
                   "--train", str(bad), "--label-field", "kind",
                   "--output", str(corpus["dir"] / "m.bin")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{bad}:3: $.values[1]: expected finite number" in err

    def test_predict_writes_an_error_record(self, corpus, tmp_path, capsys):
        _, model = run_train(corpus)
        capsys.readouterr()
        src = tmp_path / "in.jsonl"
        src.write_text('{"values": [%s]}\n{"values": [1.0]}\n' % HUGE)
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", "-"])
        assert rc == 1
        first, second = [json.loads(l) for l in
                         capsys.readouterr().out.strip().splitlines()]
        assert first["line"] == 1 and "finite number" in first["error"]
        assert second["prediction"] in ("hot", "cold")

    # json.loads refuses integer literals over 4300 digits with a plain
    # ValueError, not a JSONDecodeError
    def test_infer_long_literal_names_the_line(self, tmp_path, capsys):
        src = tmp_path / "d.jsonl"
        src.write_text('{"a": 1}\n{"a": %s}\n' % LONG)
        rc = main(["infer", "--input", str(src),
                   "--output", str(tmp_path / "s.json")])
        assert rc == 2
        assert f"{src}:2: invalid JSON" in capsys.readouterr().err

    def test_train_long_literal_names_the_line(self, corpus, capsys):
        bad = corpus["dir"] / "bad.jsonl"
        lines = [json.dumps(d) for d in corpus["docs"][:3]]
        lines[2] = '{"values": [1.0, %s], "kind": "hot"}' % LONG
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["train", "--schema", str(corpus["schema"]),
                   "--train", str(bad), "--label-field", "kind",
                   "--output", str(corpus["dir"] / "m.bin")])
        assert rc == 2
        assert f"{bad}:3: invalid JSON" in capsys.readouterr().err

    def test_predict_long_literal_writes_an_error_record(self, corpus,
                                                         tmp_path, capsys):
        _, model = run_train(corpus)
        capsys.readouterr()
        src = tmp_path / "in.jsonl"
        src.write_text('{"values": [%s]}\n{"values": [1.0]}\n' % LONG)
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", "-"])
        assert rc == 1
        first, second = [json.loads(l) for l in
                         capsys.readouterr().out.strip().splitlines()]
        assert first["line"] == 1 and "invalid JSON" in first["error"]
        assert second["prediction"] in ("hot", "cold")

    def test_mse_label_exits_2(self, tmp_path, capsys):
        src = tmp_path / "t.jsonl"
        src.write_text('{"xs": [1.0], "y": 1}\n{"xs": [2.0], "y": %s}\n'
                       % HUGE)
        schema = tmp_path / "s.json"
        write_jsonl(tmp_path / "u.jsonl", [{"xs": [1.0]}, {"xs": [2.0]}])
        assert main(["infer", "--input", str(tmp_path / "u.jsonl"),
                     "--output", str(schema)]) == 0
        rc = main(["train", "--schema", str(schema), "--train", str(src),
                   "--label-field", "y", "--output", str(tmp_path / "m.bin"),
                   "--loss", "mse"])
        assert rc == 2
        assert "mse loss needs numeric labels" in capsys.readouterr().err


@pytest.fixture
def text_corpus(tmp_path):
    """Two-class corpus whose field ``s`` is an n-gram string leaf."""
    docs = [{"s": f"word {i}", "y": i % 2} for i in range(20)]
    train = tmp_path / "text.jsonl"
    write_jsonl(train, docs)
    schema = tmp_path / "text_schema.json"
    assert main(["infer", "--input", str(train), "--output", str(schema),
                 "--categorical-threshold", "0"]) == 0
    return {"dir": tmp_path, "train": train, "schema": schema}


def train_text(corpus, train):
    return main(["train", "--schema", str(corpus["schema"]),
                 "--train", str(train), "--label-field", "y",
                 "--output", str(corpus["dir"] / "text.bin"),
                 "--epochs", "1"])


class TestInputBoundaries:
    # a lone surrogate is valid JSON text but has no UTF-8 bytes
    SURROGATE = '{"s": "bad \\ud800 x", "y": 1}'

    def test_train_lone_surrogate_names_the_line(self, text_corpus, capsys):
        bad = text_corpus["dir"] / "bad.jsonl"
        bad.write_text('{"s": "ok", "y": 0}\n' + self.SURROGATE + "\n")
        assert train_text(text_corpus, bad) == 2
        assert f"{bad}:2: $.s: expected string encodable as UTF-8" \
            in capsys.readouterr().err

    def test_predict_lone_surrogate_writes_an_error_record(
            self, text_corpus, tmp_path, capsys):
        assert train_text(text_corpus, text_corpus["train"]) == 0
        capsys.readouterr()
        src = tmp_path / "in.jsonl"
        src.write_text(self.SURROGATE + '\n{"s": "word 3"}\n')
        rc = main(["predict", "--model", str(text_corpus["dir"] / "text.bin"),
                   "--input", str(src), "--output", "-"])
        assert rc == 1
        first, second = [json.loads(l) for l in
                         capsys.readouterr().out.strip().splitlines()]
        assert first["line"] == 1 and "surrogate" in first["error"]
        assert second["prediction"] in (0, 1)

    def test_infer_invalid_utf8_names_the_line(self, tmp_path, capsys):
        src = tmp_path / "d.jsonl"
        src.write_bytes(b'{"s": "a"}\n{"s": "\xff\xfe"}\n')
        rc = main(["infer", "--input", str(src),
                   "--output", str(tmp_path / "s.json")])
        assert rc == 2
        assert f"{src}:2: invalid UTF-8" in capsys.readouterr().err

    def test_train_invalid_utf8_names_the_line(self, text_corpus, capsys):
        bad = text_corpus["dir"] / "bad.jsonl"
        bad.write_bytes(b'{"s": "ok", "y": 0}\n\n{"s": "\xff", "y": 1}\n')
        assert train_text(text_corpus, bad) == 2
        assert f"{bad}:3: invalid UTF-8" in capsys.readouterr().err

    def test_predict_invalid_utf8_writes_an_error_record(
            self, corpus, tmp_path, capsys):
        _, model = run_train(corpus)
        capsys.readouterr()
        src = tmp_path / "in.jsonl"
        src.write_bytes(b'{"values": [1.0], "kind": "\xff"}\n'
                        b'{"values": [1.0]}\n')
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", "-"])
        assert rc == 1
        first, second = [json.loads(l) for l in
                         capsys.readouterr().out.strip().splitlines()]
        assert first == {"line": 1, "error": "invalid UTF-8"}
        assert second["prediction"] in ("hot", "cold")

    @pytest.mark.parametrize("flag", ["--schema", "--config"])
    def test_train_invalid_utf8_side_file_exits_2(self, corpus, flag, capsys):
        side = corpus["dir"] / "side.json"
        side.write_bytes(b'{"a": "\xff"}')
        files = {"--schema": str(corpus["schema"]), flag: str(side)}
        rc = main(["train", "--train", str(corpus["train"]),
                   "--label-field", "kind",
                   "--output", str(corpus["dir"] / "m.bin"),
                   *[arg for item in files.items() for arg in item]])
        assert rc == 2
        assert str(side) in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"schema_version": 1}',
        '{"schema_version": 1, "root": {"kind": "numeric"}}',
        '{"schema_version": 1, "root": {"kind": "product", "count": 1, '
        '"fields": []}}',
        '{"schema_version": 1, "root": {"kind": "string", "count": 1, '
        '"ngram_n": 3, "hash_dim": 0}}',
        '{"schema_version": 1, "root": {"kind": "string", "count": 1, '
        '"ngram_n": "3", "hash_dim": 8}}',
        '{"schema_version": 1, "root": {"kind": "numeric", "count": 1, '
        '"mean": "x", "std": 1.0}}',
    ], ids=["no_root", "no_count", "fields_list", "hash_dim_0",
            "ngram_n_string", "mean_string"])
    def test_train_malformed_schema_exits_2(self, corpus, text, capsys):
        schema = corpus["dir"] / "bad_schema.json"
        schema.write_text(text)
        rc = main(["train", "--schema", str(schema),
                   "--train", str(corpus["train"]), "--label-field", "kind",
                   "--output", str(corpus["dir"] / "m.bin")])
        assert rc == 2
        assert "malformed schema" in capsys.readouterr().err

    def test_predict_schema_blob_missing_a_key_exits_2(self, corpus, tmp_path,
                                                       capsys):
        _, model = run_train(corpus)
        blob = model.read_bytes()
        # same length, still valid JSON, but no node has a "count" key
        model.write_bytes(blob.replace(b'"count":', b'"cOunt":'))
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [{"values": [0.1]}])
        capsys.readouterr()
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", "-"])
        assert rc == 2
        assert "corrupt schema: malformed schema" in capsys.readouterr().err

    def test_numbers_near_the_float_limit(self, tmp_path, capsys):
        src = tmp_path / "t.jsonl"
        write_jsonl(src, [{"a": 1e308, "y": 0}, {"a": 1e308, "y": 0},
                          {"a": 1.0, "y": 1}, {"a": 2.0, "y": 1}])
        schema = tmp_path / "s.json"
        assert main(["infer", "--input", str(src),
                     "--output", str(schema)]) == 0

        def refuse(name):
            raise ValueError(f"{name} is not strict JSON")

        json.loads(schema.read_text(), parse_constant=refuse)
        assert main(["train", "--schema", str(schema), "--train", str(src),
                     "--label-field", "y",
                     "--output", str(tmp_path / "m.bin")]) == 0


class TestValueChecks:
    def test_predict_container_schema_value_exits_2(self, text_corpus,
                                                    tmp_path, capsys):
        assert train_text(text_corpus, text_corpus["train"]) == 0
        model = text_corpus["dir"] / "text.bin"
        # same length, so every length field still holds
        model.write_bytes(model.read_bytes().replace(b'"hash_dim":64',
                                                     b'"hash_dim":-4'))
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [{"s": "word 1"}])
        capsys.readouterr()
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", "-"])
        assert rc == 2
        assert "corrupt schema: malformed schema" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [
        '{"seed": 1.5}', '{"seed": -1}', '{"batch_size": 2.5}',
        '{"epochs": "3"}', '{"embed_dim": true}', '{"learning_rate": "x"}',
        '{"learning_rate": NaN}', '{"activation": []}',
    ])
    def test_train_config_value_exits_2(self, corpus, config, capsys):
        path = corpus["dir"] / "config.json"
        path.write_text(config)
        rc = main(["train", "--schema", str(corpus["schema"]),
                   "--train", str(corpus["train"]), "--label-field", "kind",
                   "--output", str(corpus["dir"] / "m.bin"),
                   "--config", str(path)])
        assert rc == 2
        assert "error: " in capsys.readouterr().err

    def test_train_negative_seed_exits_2(self, corpus, capsys):
        rc, _ = run_train(corpus, extra_args=("--seed", "-1"))
        assert rc == 2
        assert "seed must be an int >= 0" in capsys.readouterr().err

    def test_verify_negative_seed_exits_2(self, capsys):
        assert main(["verify", "--suite", "invariants", "--seed", "-1"]) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err

    def test_predict_container_unknown_activation_exits_2(
            self, corpus, tmp_path, capsys):
        _, model = run_train(corpus)
        model.write_bytes(model.read_bytes().replace(b'"tanh"', b'"tanx"'))
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [{"values": [0.1]}])
        capsys.readouterr()
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", "-"])
        assert rc == 2
        assert "unknown activation 'tanx'" in capsys.readouterr().err

    def test_corrupt_container_sweep(self, tmp_path):
        """Every byte of the header and both blobs, replaced by 0x00,
        0xff or itself ^ 0x01: predict exits 0, 1 or 2, never raises."""
        docs = [{"values": [0.5 * i, -1.0], "kind": ("hot", "cold")[i % 2]}
                for i in range(4)]
        train = tmp_path / "t.jsonl"
        write_jsonl(train, docs)
        schema, model = tmp_path / "s.json", tmp_path / "m.bin"
        assert main(["infer", "--input", str(train),
                     "--output", str(schema)]) == 0
        assert main(["train", "--schema", str(schema), "--train", str(train),
                     "--label-field", "kind", "--output", str(model),
                     "--epochs", "0", "--embed-dim", "2",
                     "--hidden-dim", "2"]) == 0
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [{"values": [0.1]}])
        blob = model.read_bytes()
        (n_schema,) = struct.unpack("<Q", blob[8:16])
        (n_config,) = struct.unpack("<Q", blob[16 + n_schema:24 + n_schema])
        codes = set()
        for at in range(24 + n_schema + n_config):
            for value in {0x00, 0xFF, blob[at] ^ 0x01} - {blob[at]}:
                corrupt = bytearray(blob)
                corrupt[at] = value
                model.write_bytes(bytes(corrupt))
                with contextlib.redirect_stderr(io.StringIO()):
                    codes.add(main(["predict", "--model", str(model),
                                    "--input", str(src),
                                    "--output", str(tmp_path / "p.jsonl")]))
        assert codes <= {0, 1, 2}


class TestHugeDimensions:
    """Widths whose parameters numpy refuses to allocate exit 2 before
    anything is allocated."""
    HUGE_HASH_DIM = b'"hash_dim":%d' % 10**15

    def test_train_embed_dim_flag(self, corpus, capsys):
        rc, _ = run_train(corpus, extra_args=("--embed-dim", str(10**18)))
        assert rc == 2
        assert "more than the limit" in capsys.readouterr().err

    def test_train_schema_hash_dim(self, text_corpus, capsys):
        schema = text_corpus["schema"]
        schema.write_bytes(schema.read_bytes().replace(
            b'"hash_dim":64', self.HUGE_HASH_DIM))
        assert train_text(text_corpus, text_corpus["train"]) == 2
        assert "more than the limit" in capsys.readouterr().err

    def test_predict_container_hash_dim(self, text_corpus, tmp_path, capsys):
        assert train_text(text_corpus, text_corpus["train"]) == 0
        model = text_corpus["dir"] / "text.bin"
        edit_container(model, schema=lambda blob: blob.replace(
            b'"hash_dim":64', self.HUGE_HASH_DIM))
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [{"s": "word 1"}])
        capsys.readouterr()
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", "-"])
        assert rc == 2
        assert "more than the limit" in capsys.readouterr().err

    def test_predict_container_wrong_value_count(self, tmp_path, capsys):
        """Refused on the count alone: the schema and config would need
        18021002 values, which are never drawn."""
        model = tmp_path / "m.bin"
        values = np.zeros(10)
        save_model(Model(PLAIN_BAG, ModelConfig(
            embed_dim=3000, hidden_dim=3000, output_dim=2),
            {"head": (Tensor(values),)}, values), str(model))
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [[1.0]])
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", "-"])
        assert rc == 2
        assert ("parameter count mismatch: container has 10, schema and "
                "config need 18021002") in capsys.readouterr().err

    def test_allocation_failure_exits_2(self, text_corpus, tmp_path,
                                        monkeypatch, capsys):
        """A model under the limit may still have leaves too wide to
        encode a chunk of; MemoryError is injected rather than provoked,
        which would allocate gigabytes first."""
        assert train_text(text_corpus, text_corpus["train"]) == 0

        def out_of_memory(*args):
            raise MemoryError

        monkeypatch.setattr(training_mod, "finish_batch", out_of_memory)
        before = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        rc = main(["predict", "--model", str(text_corpus["dir"] / "text.bin"),
                   "--input", str(text_corpus["train"]),
                   "--output", str(tmp_path / "out.jsonl")])
        assert rc == 2
        assert "input too large" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before


def _nested(depth: int) -> str:
    return "[" * depth + "1.0" + "]" * depth


def reference_parse(fh):
    """The line parser ``cli._parse_lines`` replaced: json.loads on each
    line."""
    for number, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            yield number, None, "invalid UTF-8"
            continue
        try:
            doc = json.loads(line)
        except (ValueError, RecursionError) as exc:
            yield number, None, f"invalid JSON: {exc}"
            continue
        yield number, doc, None


# lines whose parse json.loads decides: JSON whitespace around a value,
# other Unicode whitespace, a byte order mark, trailing data, NaN and
# Infinity, integers past 4300 digits, lone surrogate escapes, and
# undecodable bytes as the input file's surrogateescape reads them
PARSE_LINES = [
    '{"a": 1}\n', '{"a": 1}', ' {"a": 1}\n', '\t[1, 2]\r\n', '[1] \t \n',
    '"x"\r', '\u00a0{"a": 1}\n', '{"a": 1}\u00a0\n', '{"a": 1}\u2028\n',
    '\u3000 1\n', '1\u3000\n', '\ufeff{"a": 1}\n', '{"a": 1}\ufeff\n',
    '{"a": 1} {"b": 2}\n', '1 2\n', '[]x\n', '{"a": 1}}\n', 'nul\n',
    '{"a": NaN}\n', '[Infinity, -Infinity]\n', 'NaN\n', '-Infinity \n',
    "7" * 4301 + "\n", '{"a": %s}\n' % ("9" * 5000), "-" + "1" * 4300 + "\n",
    '"\\ud800"\n', '{"\\udfff": "\\ud83d x"}\n', '"\\ud83d\\ude00"\n',
    '"caf\udce9"\n', '{"a": "\udcff"}\n', '\udc80\n', '"é ü 日本"\n',
    '{"a": 1, "a": 2}\n', '[1.5e400, -0.0, 1e-400]\n', '"\x01"\n', '{"a"}\n',
    "[" * 100000 + "]" * 100000 + "\n", '{"a": ' * 5000 + "1" + "}" * 5000,
]


def _parsed(parse, lines):
    # repr: NaN equals itself, and 1 differs from 1.0
    return repr(list(parse(lines)))


def test_lines_parse_as_json_loads_parses_them():
    assert _parsed(cli_mod._parse_lines, PARSE_LINES) == _parsed(
        reference_parse, PARSE_LINES)


def test_nesting_meets_the_recursion_limit_where_json_loads_does():
    """Each line is parsed at the same depth json.loads would parse it,
    so a line nested just past what json.loads reads still fails."""
    def lines(depth):
        return ["[" * depth + "]" * depth + "\n"]

    low, high = 1, sys.getrecursionlimit()  # json.loads reads low, not high
    while high - low > 1:
        mid = (low + high) // 2
        if "invalid JSON" in _parsed(reference_parse, lines(mid)):
            high = mid
        else:
            low = mid
    for depth in range(low - 3, low + 4):
        assert _parsed(cli_mod._parse_lines, lines(depth)) == _parsed(
            reference_parse, lines(depth)), depth


class TestDeepJson:
    @pytest.fixture
    def deep_line(self, tmp_path):
        src = tmp_path / "deep.jsonl"
        src.write_text('{"values": [1.0], "kind": "hot"}\n'
                       + _nested(3000) + "\n")
        return src

    def test_infer_names_the_line(self, deep_line, tmp_path, capsys):
        rc = main(["infer", "--input", str(deep_line),
                   "--output", str(tmp_path / "s.json")])
        assert rc == 2
        assert f"{deep_line}:2: invalid JSON: maximum recursion depth" in \
            capsys.readouterr().err

    def test_train_names_the_line(self, corpus, deep_line, capsys):
        rc = main(["train", "--schema", str(corpus["schema"]),
                   "--train", str(deep_line), "--label-field", "kind",
                   "--output", str(corpus["dir"] / "m.bin")])
        assert rc == 2
        assert f"{deep_line}:2: invalid JSON: maximum recursion depth" in \
            capsys.readouterr().err

    def test_predict_writes_an_error_record(self, corpus, deep_line, capsys):
        _, model = run_train(corpus)
        capsys.readouterr()
        rc = main(["predict", "--model", str(model),
                   "--input", str(deep_line), "--output", "-"])
        assert rc == 1
        first, second = [json.loads(l) for l in
                         capsys.readouterr().out.strip().splitlines()]
        assert first["prediction"] in ("hot", "cold")
        assert second["line"] == 2
        assert second["error"].startswith("invalid JSON: maximum recursion")

    def test_parsed_but_too_deep(self, tmp_path):
        """Under lowered recursion limits a document parses but is too
        deep for a later stage: every command still exits with a code."""
        depth = 60
        train = tmp_path / "t.jsonl"
        train.write_text("".join(
            f'{{"x": {_nested(depth)}, "y": {i % 2}}}\n' for i in range(4)))
        schema, model = tmp_path / "s.json", tmp_path / "m.bin"
        commands = {
            "infer": ["infer", "--input", str(train),
                      "--output", str(tmp_path / "s2.json")],
            "train": ["train", "--schema", str(schema), "--train", str(train),
                      "--label-field", "y", "--output", str(tmp_path / "m2"),
                      "--epochs", "1"],
            "predict": ["predict", "--model", str(model),
                        "--input", str(train),
                        "--output", str(tmp_path / "p.jsonl")],
        }
        assert main(["infer", "--input", str(train),
                     "--output", str(schema)]) == 0
        assert main([*commands["train"][:-3], str(model), "--epochs", "1"]) \
            == 0
        past_parsing = {"infer": False, "train": False}
        base = len(inspect.stack())
        limit = sys.getrecursionlimit()
        for headroom in range(depth - 10, depth + 40):
            for name, argv in commands.items():
                err = io.StringIO()
                sys.setrecursionlimit(base + headroom)
                try:
                    with contextlib.redirect_stderr(err), \
                            contextlib.redirect_stdout(io.StringIO()):
                        rc = main(argv)
                finally:
                    sys.setrecursionlimit(limit)
                assert rc in (0, 1, 2)
                if rc == 2 and "input nested too deeply" in err.getvalue():
                    past_parsing[name] = True
        assert past_parsing == {"infer": True, "train": True}


# a document whose field name spells the path of another node: "."
# steps into a field and "[]" into a bag's element
COLLISIONS = [
    ({"a.b": 1.5, "a": {"b": "x"}}, "a.b", "$.a.b"),
    ({"a": {"b": 1.0}, "a.b": 2.0}, "a.b", "$.a.b"),
    ({"a": ["x"], "a[]": 1.0}, "a[]", "$.a[]"),
]


class TestPathCollisions:
    @staticmethod
    def labeled(doc, name):
        """Two labeled documents, with field ``name`` renamed to "z"
        when ``name`` is not None."""
        if name is not None:
            doc = {("z" if k == name else k): v for k, v in doc.items()}
        return [{**doc, "y": 0}, {**doc, "y": 1}]

    @pytest.mark.parametrize("doc, name, path", COLLISIONS)
    def test_infer_exits_2(self, tmp_path, capsys, doc, name, path):
        src = tmp_path / "d.jsonl"
        write_jsonl(src, self.labeled(doc, None))
        rc = main(["infer", "--input", str(src),
                   "--output", str(tmp_path / "s.json")])
        assert rc == 2
        assert f"error: {path}: two schema nodes share this path" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("doc, name, path", COLLISIONS)
    def test_train_schema_file_exits_2(self, tmp_path, capsys, doc, name,
                                       path):
        src, schema = tmp_path / "d.jsonl", tmp_path / "s.json"
        write_jsonl(src, self.labeled(doc, name))
        assert main(["infer", "--input", str(src),
                     "--output", str(schema)]) == 0
        schema.write_text(schema.read_text().replace(
            '"z":', json.dumps(name) + ":"))
        write_jsonl(src, self.labeled(doc, None))
        rc = main(["train", "--schema", str(schema), "--train", str(src),
                   "--label-field", "y", "--output", str(tmp_path / "m.bin"),
                   "--epochs", "1"])
        assert rc == 2
        assert f"{schema}: {path}: two schema nodes share this path" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("doc, name, path", COLLISIONS)
    def test_predict_container_exits_2(self, tmp_path, capsys, doc, name,
                                       path):
        src, schema = tmp_path / "d.jsonl", tmp_path / "s.json"
        model = tmp_path / "m.bin"
        write_jsonl(src, self.labeled(doc, name))
        assert main(["infer", "--input", str(src),
                     "--output", str(schema)]) == 0
        assert main(["train", "--schema", str(schema), "--train", str(src),
                     "--label-field", "y", "--output", str(model),
                     "--epochs", "1"]) == 0
        edit_container(model, schema=lambda b: b.replace(
            b'"z":', json.dumps(name).encode() + b":"))
        write_jsonl(src, [doc])
        capsys.readouterr()
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", "-"])
        assert rc == 2
        assert f"corrupt schema: {path}: two schema nodes share this path" \
            in capsys.readouterr().err

    def test_dotted_name_without_collision_works(self, tmp_path):
        src, schema = tmp_path / "d.jsonl", tmp_path / "s.json"
        model = tmp_path / "m.bin"
        write_jsonl(src, [{"a.b": float(i), "a[]": [1.0], "c": {"b": "x"},
                           "y": i % 2} for i in range(4)])
        assert main(["infer", "--input", str(src),
                     "--output", str(schema)]) == 0
        assert main(["train", "--schema", str(schema), "--train", str(src),
                     "--label-field", "y", "--output", str(model),
                     "--epochs", "1"]) == 0
        assert main(["predict", "--model", str(model), "--input", str(src),
                     "--output", str(tmp_path / "p.jsonl")]) == 0

# JSON values at the edges of what the CLI reads: deep nesting, integers
# past float64, -0.0, NaN and infinities, non-BMP characters and lone
# surrogates, empty containers, nulls, and keys that hold path syntax
_KEYS = st.text(alphabet="ab.[]\u00e9\ud800", max_size=4)
_LEAVES = (st.none() | st.booleans() | st.integers()
           | st.sampled_from([-0.0, 10**400, -(2**64), 1e308])
           | st.floats() | st.text(st.sampled_from(["\ud800", "\U0001f600"])
                                   | st.characters(exclude_categories=()),
                                   max_size=6))
_VALUES = st.recursive(_LEAVES, lambda inner: (
    st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=12)
# one JSONL line for a given label: a document of random fields, or
# one field nested up to past the recursion limit
_LINES = (st.builds(lambda d: lambda y: json.dumps({**d, "y": y}),
                    st.dictionaries(_KEYS, _VALUES, max_size=4))
          | st.builds(lambda depth, leaf: lambda y: '{"x": %s, "y": %d}' % (
              _nested(depth).replace("1.0", json.dumps(leaf)), y),
              st.integers(0, 1200), _LEAVES))


# a corpus of one repeated shape trains more often than a random mix
@given(lines=st.lists(_LINES, min_size=1, max_size=5)
       | _LINES.map(lambda line: [line] * 4),
       raw=st.lists(_VALUES.map(json.dumps), max_size=3),
       junk=st.lists(st.binary(max_size=30), max_size=3))
def test_cli_boundary_fuzz(lines, raw, junk):
    """infer -> train -> predict on arbitrary JSON and byte lines ends
    with a documented exit code, never an exception."""
    docs = [line(i % 2) for i, line in enumerate(lines)]
    codes = []
    with tempfile.TemporaryDirectory() as work, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        src, loose, mixed, schema, model = (
            os.path.join(work, name) for name in "dlxsm")
        for path, text in ((src, docs), (loose, raw)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in text))
        with open(mixed, "wb") as fh:
            fh.write(b"".join(line.encode() + b"\n" for line in docs + raw)
                     + b"\n".join(junk))
        codes.append(main(["infer", "--input", loose, "--output", schema]))
        codes.append(main(["infer", "--input", src, "--output", schema]))
        if codes[-1] == 0:
            codes.append(main(["train", "--schema", schema, "--train", src,
                               "--label-field", "y", "--output", model,
                               "--epochs", "1"]))
        if codes[-1] == 0:
            codes.append(main(["predict", "--model", model, "--input", mixed,
                               "--output", os.path.join(work, "p")]))
    assert set(codes) <= {0, 1, 2, 3}, codes


class TestVerify:
    def test_concentration_suite_passes(self, capsys):
        assert main(["verify", "--suite", "concentration",
                     "--seed", "0"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["passed"] is True
        assert "concentration_decay" in captured.err

    def test_report_byte_identical(self, capsys):
        main(["verify", "--suite", "concentration", "--seed", "5"])
        first = capsys.readouterr().out
        main(["verify", "--suite", "concentration", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_injected_aggregation_fault_fails(self, capsys):
        # replace mean pooling with first-instance selection; the
        # invariants suite must notice and exit 1
        def first_row(instances, offsets, tape=None):
            if instances.rows == 0:
                return Tensor(np.zeros((len(offsets) - 1, instances.cols)))
            rows = np.minimum(np.asarray(offsets)[:-1], instances.rows - 1)
            return Tensor(instances.data[rows])

        original = model_mod.segment_mean
        model_mod.segment_mean = first_row
        try:
            rc = main(["verify", "--suite", "invariants", "--seed", "0"])
        finally:
            model_mod.segment_mean = original
        captured = capsys.readouterr()
        assert rc == 1
        report = json.loads(captured.out)
        assert report["passed"] is False
        assert "failed: permutation_invariance" in captured.err

    def test_unknown_suite_exits_2(self):
        assert main(["verify", "--suite", "nope"]) == 2

    def test_failed_worker_exits_1_naming_its_checks(
            self, capsys, monkeypatch, tmp_path):
        worker = tmp_path / "worker"
        worker.write_text("#!/bin/sh\nexit 3\n")
        worker.chmod(0o755)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(sys, "executable", str(worker))
        assert main(["verify", "--suite", "invariants", "--seed", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the verify worker running check_dirac_identity, "
            "check_gradients, check_pipeline_round_trip exited with code 3\n")

    def test_sigint_to_the_parent_ends_every_worker(self):
        """Ctrl-C sent to the parent alone: exit 130, one line on stderr
        and no traceback from any process, and no worker left behind."""
        code = ("import os, signal\n"
                # a shell starts a background job with SIGINT ignored
                "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
                # two usable CPUs, so that a worker starts on any machine
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "from hmil.cli import entry\n"
                "entry()\n")
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "verify", "--suite", "all",
             "--seed", "0"], stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC))
        listing = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")

        def loaded_numpy(pid):
            with contextlib.suppress(OSError):
                return "numpy" in Path(f"/proc/{pid}/maps").read_text()
            return False

        try:
            # wait until a worker has got as far as loading numpy, so the
            # parent is past starting it: while it forks, its main thread
            # blocks SIGINT, a BLAS thread may take the signal, and the
            # interpreter then notices it only at its next signal check
            workers, deadline = [], time.monotonic() + 60
            while (not any(map(loaded_numpy, workers))
                   and proc.poll() is None and time.monotonic() < deadline):
                workers = listing.read_text().split()
                time.sleep(0.01)
            assert workers, "no worker started"
            proc.send_signal(signal.SIGINT)
            err = proc.communicate(timeout=60)[1]
        finally:
            proc.kill()
            proc.wait()
        assert (proc.returncode, err) == (130, "error: interrupted\n")
        assert not [pid for pid in workers if Path(f"/proc/{pid}").exists()]


class TestEntry:
    def test_module_invocation(self, tmp_path):
        src = tmp_path / "d.jsonl"
        write_jsonl(src, [{"a": 1.0}])
        proc = run_child(["infer", "--input", str(src),
                          "--output", str(tmp_path / "s.json")],
                         stdout=subprocess.PIPE)
        assert proc.returncode == 0
        assert "wrote" in proc.stdout

    def test_output_to_stdout_through_a_pipe(self, tmp_path):
        """/dev/stdout names a pipe here, which is written in place."""
        src = tmp_path / "d.jsonl"
        write_jsonl(src, [{"a": 1.0}])
        proc = run_child(["infer", "--input", str(src),
                          "--output", "/dev/stdout"], stdout=subprocess.PIPE)
        assert proc.returncode == 0, proc.stderr
        assert list(loads_schema(proc.stdout.splitlines()[0]).field_names) \
            == ["a"]

    def test_no_arguments_exits_2(self):
        assert main([]) == 2

    def test_import_loads_no_process_machinery(self):
        """``import hmil.cli`` is the start-up cost of every command:
        verify loads what its workers need only when it starts some."""
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, hmil.cli; print(sorted("
             "{'subprocess', 'multiprocessing', 'concurrent.futures'}"
             " & set(sys.modules)))"], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    def test_blas_thread_count_leaves_the_container_as_it_is(self, tmp_path):
        """OpenBLAS's Haswell kernel sums a GEMM in another order at two
        threads than at one; the CLI runs one unless told otherwise."""
        rng = np.random.default_rng(0)
        write_jsonl(tmp_path / "t.jsonl", [
            {"xs": [{"a": round(v, 3), "b": round(v * v, 3),
                     "c": "abc"[int(v) % 3]}
                    for v in rng.normal(i % 2, 1, rng.integers(1, 10))],
             "label": i % 2} for i in range(100)])
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
        env.update(PYTHONPATH=SRC, OPENBLAS_CORETYPE="Haswell")
        blobs = []
        for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
            for argv in (["infer", "--input", "t.jsonl", "--output", "s.json"],
                         ["train", "--schema", "s.json", "--train", "t.jsonl",
                          "--label-field", "label", "--output", "m.bin",
                          "--epochs", "1", "--embed-dim", "64",
                          "--hidden-dim", "64"]):
                subprocess.run([sys.executable, "-m", "hmil.cli", *argv],
                               cwd=tmp_path, env={**env, **threads},
                               check=True, capture_output=True, timeout=120)
            blobs.append((tmp_path / "m.bin").read_bytes())
        assert blobs[0] == blobs[1]


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_child(argv, **kwargs):
    """``python -m hmil.cli argv`` in a child process; stderr as text
    unless ``kwargs`` send it elsewhere."""
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, "-m", "hmil.cli", *argv], text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=300, **kwargs)


@pytest.fixture(params=["closed", "broken"])
def dead_stderr(request):
    """``run_child`` keywords that leave the child no working stderr:
    fd 2 closed at start, or a pipe whose read end is closed."""
    if request.param == "closed":
        yield {"stderr": None, "preexec_fn": lambda: os.close(2)}
        return
    read_end, write_end = os.pipe()
    os.close(read_end)
    yield {"stderr": write_end}
    os.close(write_end)


def stdout_writers(corpus, model):
    """One argv per command that writes stdout."""
    return {"infer": ["infer", "--input", str(corpus["train"]),
                      "--output", str(corpus["dir"] / "again.json")],
            "predict": ["predict", "--model", str(model),
                        "--input", str(corpus["train"])],
            "verify": ["verify", "--suite", "concentration"]}


class TestOutputFailures:
    """A failed write or an interrupt ends in its documented exit code,
    with no traceback and no partial or temporary file left behind."""

    def test_failed_container_write_keeps_the_old_one(self, corpus):
        rc, model = run_train(corpus)
        assert rc == 0
        old = model.read_bytes()
        limit = len(old) // 2  # bytes any file of the child may reach
        proc = run_child(
            ["train", "--schema", str(corpus["schema"]),
             "--train", str(corpus["train"]), "--label-field", "kind",
             "--output", str(model), "--epochs", "1", "--seed", "8"],
            preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_FSIZE, (limit, limit)))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: cannot write {model}")
        assert model.read_bytes() == old
        assert not list(corpus["dir"].glob("*.tmp"))

    @pytest.mark.parametrize("command", ["infer", "predict", "verify"])
    def test_stdout_pipe_closed_exits_2(self, corpus, command):
        _, model = run_train(corpus)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_child(stdout_writers(corpus, model)[command],
                             stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 2, proc.stderr
        # no traceback, and no second report from the flush at exit
        assert proc.stderr.splitlines()[-1] == "error: cannot write stdout"
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    @pytest.mark.parametrize("command", ["infer", "predict", "verify"])
    def test_closed_stdout_exits_2_before_any_work(self, corpus, command):
        _, model = run_train(corpus)
        proc = run_child(stdout_writers(corpus, model)[command],
                         preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr) == (
            2, "error: cannot write stdout\n")
        assert not (corpus["dir"] / "again.json").exists()

    def test_closed_stdout_is_fine_for_predict_into_a_file(self, corpus):
        _, model = run_train(corpus)
        out = corpus["dir"] / "out.jsonl"
        proc = run_child(stdout_writers(corpus, model)["predict"]
                         + ["--output", str(out)],
                         preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(read_jsonl(out)) == len(corpus["docs"])

    def test_dead_stderr_keeps_the_usage_exit(self, tmp_path, dead_stderr):
        proc = run_child(["infer", "--input", str(tmp_path / "none.jsonl"),
                          "--output", str(tmp_path / "s.json")],
                         stdout=subprocess.PIPE, **dead_stderr)
        assert (proc.returncode, proc.stdout) == (2, "")

    def test_dead_stderr_leaves_verify_one_report(self, dead_stderr):
        proc = run_child(["verify", "--suite", "concentration"],
                         stdout=subprocess.PIPE, **dead_stderr)
        assert proc.returncode == 0
        # json.loads rejects any text after the report
        assert json.loads(proc.stdout)["passed"] is True

    def test_dead_stderr_keeps_the_divergence_exit(self, tmp_path,
                                                   dead_stderr):
        src, schema = tmp_path / "t.jsonl", tmp_path / "s.json"
        write_jsonl(src, [{"xs": [1.0, 2.0], "y": 1e200},
                          {"xs": [0.5], "y": -1e200}] * 10)
        write_jsonl(tmp_path / "u.jsonl", [{"xs": [1.0, 2.0]}, {"xs": [0.5]}])
        assert main(["infer", "--input", str(tmp_path / "u.jsonl"),
                     "--output", str(schema)]) == 0
        proc = run_child(["train", "--schema", str(schema),
                          "--train", str(src), "--label-field", "y",
                          "--output", str(tmp_path / "m.bin"),
                          "--loss", "mse", "--epochs", "2"],
                         stdout=subprocess.PIPE, **dead_stderr)
        assert (proc.returncode, proc.stdout) == (3, "")

    def test_interrupt_exits_130(self, corpus, monkeypatch, capsys):
        _, model = run_train(corpus)

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        def call(argv):
            try:
                return main(argv)
            except KeyboardInterrupt:
                pytest.fail("KeyboardInterrupt escaped main")

        monkeypatch.setattr(cli_mod, "run_suite", interrupt)
        monkeypatch.setattr(cli_mod, "predict_scores", interrupt)
        capsys.readouterr()
        out = corpus["dir"] / "out.jsonl"
        assert call(["verify", "--suite", "concentration"]) == 130
        assert call(["predict", "--model", str(model),
                     "--input", str(corpus["train"]),
                     "--output", str(out)]) == 130
        assert capsys.readouterr().err == "error: interrupted\n" * 2
        assert not out.exists()
        assert not list(corpus["dir"].glob("*.tmp"))


# a small fixed corpus with every node kind: a bag of bags (some empty),
# a bag of records, a record with an optional field, an optional field,
# numeric, categorical and n-gram leaves
GOLDEN_TRAIN = [
    {"groups": [[round(((i * 7 + j * 3 + k) % 11) / 4 - 1.2, 3)
                 for k in range((i + j) % 3)] for j in range(i % 4)],
     "kind": "abc"[i % 3],
     "msg": f"request {i * 37 % 101} took {i % 5} steps",
     "hits": [{"at": i + j, "tag": "xy"[j % 2]} for j in range(i % 3)],
     "sub": {"x": i / 3, **({"note": "n"} if i % 4 else {})},
     **({"extra": i * 0.5} if i % 3 else {}),
     "label": i % 2}
    for i in range(12)]

# bags of 9 to 14 numbers, and bags of 9 to 11 such bags: numpy sums a
# slice this long pairwise at width 1, and relu units tie at zero
GOLDEN_LONG_BAGS = [
    {"xs": [round(((i * 5 + k * 3) % 13) / 3 - 2, 3)
            for k in range(9 + i % 6)],
     "groups": [[round(((i + j * 7 + k) % 17) / 5 - 1.6, 3)
                 for k in range(9 + (i + j) % 4)] for j in range(9 + i % 3)],
     "label": i % 2}
    for i in range(12)]

GOLDEN_CORPORA = {"mixed": GOLDEN_TRAIN, "long-bags": GOLDEN_LONG_BAGS}

# sha256 of the container and of the report written by `hmil train
# --epochs 1`, per (corpus, aggregation, activation, --embed-dim or None
# for the default); pins the init draw order, the parameter order and
# the tape arithmetic; recorded with the schema statistics rounded once
# from exact sums, per OpenBLAS kernel (conftest.PINNED_KERNELS)
GOLDEN_CONTAINER_SKYLAKEX = {
    ("mixed", "mean", "tanh", None): (
        "26759cba39d8e7c449fdd0e956ff19ffc5e002a5dcd417c25a50fbddb550fa46",
        "bc9bee519518087969e253be9f236826130f807115cd2c2f61cd2e11b7b0627d"),
    ("mixed", "mean", "relu", None): (
        "9b23315ff6303adc3e4d9891fdaaeb44854b82ca9bcc286dcf0b264638f970df",
        "60b32a8f0b690b2b341fd3b5a38ba60c7ec06794323017893dbe558233084871"),
    ("mixed", "max", "tanh", None): (
        "e2675cc185ac0c480502cdb293f32b35b9fdac12e7c9c0fddf156081d109a360",
        "78e2c7320cce0d0ecaa4da45f2e369bb5f2e0713d24424acd16fa79fd21bf78b"),
    ("mixed", "max", "relu", None): (
        "57c0f32a7b5277f6f3efab6aaafac502f1d0861f09dcb3804ab7e4d73eaa2449",
        "cf6729ec858208387cc9bb50a6b0ff60ff981020cf3b54cad29664d0087a82a4"),
    ("mixed", "meanmax", "tanh", None): (
        "3c89d9e967b6e1202a7d3187573b46d4ef66078593059e993df7032d539bddde",
        "c802f0a700ca598d53c2e659cc944e2bebc4aa4c515d9ce3c052982a1e3e9db0"),
    ("mixed", "meanmax", "relu", None): (
        "153dce4c3f25cc22359cc4a586c60371c1c661a7d5e45df7aae523c45369f035",
        "562fbfb54223da786ac5b26f7c79398cae7d4c3d575bfc9b20fa18d34618b341"),
    ("long-bags", "mean", "tanh", 1): (
        "b467ca6d3fac84d007896701713375f6da4facc544bbd36261863f297de17f4f",
        "ac1940abb866aecccc1fdf7d9a5ccdc347943296e691ed933772d6bfde93b78a"),
    ("long-bags", "meanmax", "tanh", None): (
        "c61297ea2b878e451d386be79dcb306bf840f11f752ce21ba64dad59fe4d3b62",
        "28fc84383450458ad4d3c002f44d23b9e8352bea3640fbbdb3f0032a8b01f151"),
    ("long-bags", "max", "relu", None): (
        "35bc4a2f864eae2c1e35209f6e86468afb1361c6a4a7b45d26767dbab425b04b",
        "3b5e30f4d506c3b353e6aa5e31cfffc19cad8473ec2b10b8a02c14616d0e97fd"),
}
GOLDEN_CONTAINER_HASWELL = {
    ("mixed", "mean", "tanh", None): (
        "8a870146562453f32e73190471207dd3db6608c7e13b13c3345012809711f1fa",
        "bc9bee519518087969e253be9f236826130f807115cd2c2f61cd2e11b7b0627d"),
    ("mixed", "mean", "relu", None): (
        "7ad341f219e42f5e9f33412c225650599aed1a13e92d3a963f6a084c81f06bee",
        "60b32a8f0b690b2b341fd3b5a38ba60c7ec06794323017893dbe558233084871"),
    ("mixed", "max", "tanh", None): (
        "298201dee5ac7ccd518c91716e951ef9ca5d8c94c886ad1e8e2dbc6fa6ad7055",
        "78e2c7320cce0d0ecaa4da45f2e369bb5f2e0713d24424acd16fa79fd21bf78b"),
    ("mixed", "max", "relu", None): (
        "2b8049771f2a40b887577201d03e0582399818e143a52a647e3b57b64dd78ff1",
        "cf6729ec858208387cc9bb50a6b0ff60ff981020cf3b54cad29664d0087a82a4"),
    ("mixed", "meanmax", "tanh", None): (
        "f47dc6f8d905550a153d4ce8cec2d76545b41adc23cda3f19b8fafeab38bcb10",
        "036de7dc4f7e6ab9e4912be29b8bb69df48765006bb4d77437aa55185f91c8cc"),
    ("mixed", "meanmax", "relu", None): (
        "62be892380e4eb0f0e3deb966c62b9a06f3ac26632ab6ca169fd62d37d2ada27",
        "562fbfb54223da786ac5b26f7c79398cae7d4c3d575bfc9b20fa18d34618b341"),
    ("long-bags", "mean", "tanh", 1): (
        "fb979d9825190a927711240826f3ec1e4f263b275ef1601679031ba498b5afb6",
        "00d034d9fe96ba4b49ca42e617308ae292c575f7b8b59059be04d1e6393cf753"),
    ("long-bags", "meanmax", "tanh", None): (
        "97bbc9aa463d3dcdabe351d7a902dbb080f1b7cad3bcfd26f138e1427e29d1fd",
        "28fc84383450458ad4d3c002f44d23b9e8352bea3640fbbdb3f0032a8b01f151"),
    ("long-bags", "max", "relu", None): (
        "a97c078e8b82c461a904c1b77bb9e51e8e404fcd5bcf90108bf87cd51141b2ee",
        "3b5e30f4d506c3b353e6aa5e31cfffc19cad8473ec2b10b8a02c14616d0e97fd"),
}
GOLDEN_CONTAINER_SANDYBRIDGE = {
    ("mixed", "mean", "tanh", None): (
        "f30cbab3cf6df272a7a7568034165069daf3612331e66a1f1ec1dfa818ffd3f8",
        "bc9bee519518087969e253be9f236826130f807115cd2c2f61cd2e11b7b0627d"),
    ("mixed", "mean", "relu", None): (
        "72c9ab7901c1133ce7dc5198a617f2376eabf066d53beb81d489ef2ce36a0ac9",
        "153dd99558eab697f099084c172e448dcec52569ce8e8b95ba2422b98bce6cc5"),
    ("mixed", "max", "tanh", None): (
        "a3def1b205f71ad4a6b783d7b45ae610f1f39f74c4d7b58fd480aa70b25e5383",
        "78e2c7320cce0d0ecaa4da45f2e369bb5f2e0713d24424acd16fa79fd21bf78b"),
    ("mixed", "max", "relu", None): (
        "f9068c8886b5cfd1a7b4bf6cf483a4c955f5821b95cbe3eca3d4fedbcc6a94ae",
        "cf6729ec858208387cc9bb50a6b0ff60ff981020cf3b54cad29664d0087a82a4"),
    ("mixed", "meanmax", "tanh", None): (
        "1a75e7aee0d19653622529c1e8ebd7a3457afe39380f45e77c06f15d33253f7d",
        "036de7dc4f7e6ab9e4912be29b8bb69df48765006bb4d77437aa55185f91c8cc"),
    ("mixed", "meanmax", "relu", None): (
        "47b0d3a6ea4ef69a1de089d83f58b5d1cfcc96a2515adf5da5f921681392d2e1",
        "127fdf790ae0909b63c773d8613817867d6e8c0d43c3a9bb3d40ecb0b393a506"),
    ("long-bags", "mean", "tanh", 1): (
        "58cfc60d6bc066f2c0c4b1ecafdef58c7c154c0ba235e4a5d2a9eaa4eb4b9311",
        "ac1940abb866aecccc1fdf7d9a5ccdc347943296e691ed933772d6bfde93b78a"),
    ("long-bags", "meanmax", "tanh", None): (
        "31ab2acd5260353c2d3b3bfaf7b959175d903a131d63f5dfb800a1c9a11a8515",
        "28fc84383450458ad4d3c002f44d23b9e8352bea3640fbbdb3f0032a8b01f151"),
    ("long-bags", "max", "relu", None): (
        "9a12f47e4b8931bb4646ce629033f8d0f2cd6556bffa95a0b16de2913736e41f",
        "3b5e30f4d506c3b353e6aa5e31cfffc19cad8473ec2b10b8a02c14616d0e97fd"),
}
GOLDEN_CONTAINER_KATMAI = {
    ("mixed", "mean", "tanh", None): (
        "ea79336a61c012c621ed764216f2e21d4c85ae8d071dddc02c4a084a36eccd32",
        "6a772ed348da59f529801e88f58dcc067bcf134802983a84888df5509c4e4a4e"),
    ("mixed", "mean", "relu", None): (
        "3dac482cd106f305cbe6a88660358dccefd88f11a2e68ae328f2cc840a2fd92a",
        "153dd99558eab697f099084c172e448dcec52569ce8e8b95ba2422b98bce6cc5"),
    ("mixed", "max", "tanh", None): (
        "01169f9fc4d5dd7b0096ac487e47d4e5898cd55223f68320db6e6eaddd5f20e9",
        "78e2c7320cce0d0ecaa4da45f2e369bb5f2e0713d24424acd16fa79fd21bf78b"),
    ("mixed", "max", "relu", None): (
        "63e272a2f5f8c1e804b6630becf46b8a4de5bb04eed36bb1fb2b56137b72920c",
        "cf6729ec858208387cc9bb50a6b0ff60ff981020cf3b54cad29664d0087a82a4"),
    ("mixed", "meanmax", "tanh", None): (
        "724aa56ee93383a49f8437b8c49272d85bba594cd7dde09d3bda21bc60cdd7a6",
        "036de7dc4f7e6ab9e4912be29b8bb69df48765006bb4d77437aa55185f91c8cc"),
    ("mixed", "meanmax", "relu", None): (
        "13f224670f2f722997dc18d537633c28268fff9029348a0315b32c7eb4a8fd6c",
        "562fbfb54223da786ac5b26f7c79398cae7d4c3d575bfc9b20fa18d34618b341"),
    ("long-bags", "mean", "tanh", 1): (
        "58cfc60d6bc066f2c0c4b1ecafdef58c7c154c0ba235e4a5d2a9eaa4eb4b9311",
        "ac1940abb866aecccc1fdf7d9a5ccdc347943296e691ed933772d6bfde93b78a"),
    ("long-bags", "meanmax", "tanh", None): (
        "726af0fea45a0c82869c1da0790ff6180788c174469867859b5c92748edc2f6f",
        "28fc84383450458ad4d3c002f44d23b9e8352bea3640fbbdb3f0032a8b01f151"),
    ("long-bags", "max", "relu", None): (
        "b822b1e89fbe5d87136fa93606369e6b6d7d209f50ea2a9a173ef23f880cfac4",
        "3b5e30f4d506c3b353e6aa5e31cfffc19cad8473ec2b10b8a02c14616d0e97fd"),
}
GOLDEN_CONTAINER_SHA256 = {
    "SkylakeX": GOLDEN_CONTAINER_SKYLAKEX,
    "Haswell": GOLDEN_CONTAINER_HASWELL,
    "Sandybridge": GOLDEN_CONTAINER_SANDYBRIDGE,
    "Katmai": GOLDEN_CONTAINER_KATMAI,
}


def test_golden_container_digest(tmp_path):
    got = {}
    for corpus, aggregation, activation, embed_dim in GOLDEN_CONTAINER_SKYLAKEX:
        train = tmp_path / f"{corpus}.jsonl"
        write_jsonl(train, GOLDEN_CORPORA[corpus])
        schema = tmp_path / f"{corpus}.schema.json"
        assert main(["infer", "--input", str(train), "--output", str(schema),
                     "--categorical-threshold", "3"]) == 0
        out = tmp_path / f"{corpus}-{aggregation}-{activation}.bin"
        args = ["train", "--schema", str(schema), "--train", str(train),
                "--label-field", "label", "--output", str(out),
                "--epochs", "1", "--batch-size", "4", "--seed", "0",
                "--aggregation", aggregation, "--activation", activation]
        if embed_dim is not None:
            args += ["--embed-dim", str(embed_dim)]
        assert main(args) == 0
        got[corpus, aggregation, activation, embed_dim] = tuple(
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (out, tmp_path / (out.name + ".report.json")))
    assert got == pinned(GOLDEN_CONTAINER_SHA256), kernel_note()


# corpora `hmil infer` rejects, one JSON text per line: kind conflicts
# inside one document and across documents (at every depth, before and
# after a vocabulary outgrows the threshold), nulls, non-finite and huge
# numbers, arrays empty in every document, an empty corpus and a
# malformed line
BAD_INFER_CORPORA = [
    ['[1, "x"]'],
    ['{"a": 1}', '{"a": "x"}'],
    ['{"a": "x"}', '{"a": "y"}', '{"a": 5}'],
    ['{"a": "x"}', '{"a": ["x"]}'],
    ['["x", "y", "z", 1]'],
    ['[1.0, 2.5, "x"]'],
    ['[[1], ["a"]]'],
    ['[[1], [2, "a"]]'],
    ['[[1.0, 2.0], [3.0, "a"]]'],
    ['[{"a": 1}, {"a": "s", "b": [1, "x"]}]'],
    ['{"a": 1, "b": [1]}', '{"a": "x", "b": [1, "y"]}'],
    ['{"a": {"b": 1}}', '{"a": {"b": [1]}}'],
    ['{"a": [{"b": 1}, {"b": [2]}]}'],
    ['{"a": [[1, 2], [[3]]]}'],
    ['1', '{"a": 1}'],
    ['{"a": 1}', '{"a": true}', '{"a": [1]}'],
    ['{"a": [true, 2, -0.0]}', '{"a": [[]]}'],
    ['{"a": NaN}'],
    ['{"a": [1.0, Infinity]}'],
    ['[1.0, 2.0, -Infinity, "x"]'],
    ['{"a": 1e400}'],
    ['{"a": [1.5, %s]}' % ("7" * 400)],
    ['null'],
    ['[null]'],
    ['{"a": [1, null]}'],
    ['{"a": [[null]]}', '{"a": 1}'],
    ['{"xs": []}', '{"xs": []}'],
    ['{"a": [[]]}'],
    ['{"a": [], "b": [[], [[]]]}', '{"a": [1e308], "b": []}'],
    ['["u", "v"]', '["w", "x"]', '[["y"]]'],
    ['{"a": ["p", "q"], "b": 1}', '{"a": "p", "b": 2}'],
    [],
    ['{"a": 1}', 'not json'],
]

# sha256 of the exit code and stderr of `hmil infer` on every corpus of
# BAD_INFER_CORPORA at categorical thresholds 0, 1, 3 and 32; recorded
# with the inference that merged one frozen schema per document
GOLDEN_CONFLICTS_SHA256 = (
    "7f8bac8835e2be12fbaeaf1204493f675d515aaf83a23b0cfce3ec716466b685")


def test_golden_conflict_digest(tmp_path, capsys):
    src = tmp_path / "bad.jsonl"
    digest = hashlib.sha256()
    for lines in BAD_INFER_CORPORA:
        src.write_text("".join(line + "\n" for line in lines))
        for threshold in ("0", "1", "3", "32"):
            rc = main(["infer", "--input", str(src), "--output",
                       str(tmp_path / "s.json"),
                       "--categorical-threshold", threshold])
            err = capsys.readouterr().err.replace(str(src), "<input>")
            assert rc == 2 and err.startswith("error: ")
            digest.update(f"{rc} {err}".encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_CONFLICTS_SHA256


# `hmil predict` input: GOLDEN_TRAIN's documents, a third of them still
# labelled, then an invalid JSON line and two schema misfits
GOLDEN_PREDICT_INPUT = (
    [json.dumps(doc if i % 3 else {k: v for k, v in doc.items()
                                   if k != "label"}, ensure_ascii=False)
     for i, doc in enumerate(GOLDEN_TRAIN)]
    + ['{"kind": "a", ', json.dumps({**GOLDEN_TRAIN[0], "kind": 5}),
       json.dumps({**GOLDEN_TRAIN[1], "unknown": [1]})])

# per case: the label of GOLDEN_TRAIN's i-th document, and extra
# `hmil train` flags
GOLDEN_PREDICT_CASES = {
    "text": (lambda i: ["café", "naïve", "日本", "x\u2028y"][i % 4], []),
    "int-bool-float": (lambda i: [1, True, 2.5, 0, False, -3][i % 6], []),
    "wide": (lambda i: i % 3, ["--output-dim", "5"]),
    "mse": (lambda i: i * 0.25 - 1.375, ["--loss", "mse"]),
}

# sha256 of the exit code and output of `hmil predict` on
# GOLDEN_PREDICT_INPUT, per case, with models from `hmil train --epochs 1`
# on GOLDEN_TRAIN relabelled, and with two hand-made containers: one of
# three outputs and no classes, one whose classes are an object, an
# array and null; recorded with the predict that wrote each record with
# json.dumps, and re-recorded with the schema statistics rounded once
# from exact sums; per OpenBLAS kernel (conftest.PINNED_KERNELS)
GOLDEN_PREDICT_SHA256 = {
    "SkylakeX": {
        "text":
            "f8136f91eeabc257a1840eb5a13f19c7774ee991805451873edd3d3eda61ce70",
        "int-bool-float":
            "3937fedcf36be7c6eb3cd0ad526e6bc8b4699e7c99e355f5f4ec9148b70ef5fd",
        "wide":
            "6dd7f8e6213593647206844b9958101a8aa0cf9c0b7d07fb713832cdc6f24aac",
        "mse":
            "892202f7d4d7291283cda8fc1bd0c5ecce7892f0467ea8c88c4dec253bbc3881",
        "no-classes":
            "a7d00875b8ef48b06055bb1db893e5c87417cc673d941d7b01c5e9e4511e1c92",
        "object-classes":
            "ed7fa3af9ba1c4a522039310a5225683c3b92eeb26f06da176f59981a8c1caf2",
    },
    "Haswell": {
        "text":
            "8fae338eb4137a642ffc137a0597a9c5d103932d94598f7788ae8d788c5fa632",
        "int-bool-float":
            "1c7dd8d5ba4f04f8d56231545eaa2fc8454af348ff309b3c62444356ff453b1c",
        "wide":
            "188257382a7b0b536fdb808c185d16f8149b89df584ac22ec6e5b1910e4d0060",
        "mse":
            "31b17c4ab5e9a3e1c9cfc32cd092f618658ebf0e64169e04e0c963746e16300c",
        "no-classes":
            "e5df8b2acec72fb3b6af2e06b13f3f6a697f3fba26867bffbba9701425b0d2a1",
        "object-classes":
            "01d84c853f6d3c2dfff8dde769c53f9222fa0af4dc5f331b5faeeb759b138aba",
    },
    "Sandybridge": {
        "text":
            "ecaa54a96a7344a9395353f3b4e13355252fdcb7bb51dad09504d948bfefe11b",
        "int-bool-float":
            "f974b5ddb6da2d893cb74c8d65ed159b419989694e6f2ee11d9824605dec5a4f",
        "wide":
            "9b2d19ca712da7206a66038c4a3c2b8432627f0a419e3762d168d3e3ca3a0c0d",
        "mse":
            "ec3b1f396c3d15b5e34938bba01dc4b0fbb00e3dc145d5b86c0a320003e1c291",
        "no-classes":
            "b2a274a6584bd0c40fe3ac1a4157cdacb0847d9022619e2d63a22a5e7c5b04dc",
        "object-classes":
            "e529b95efca57c54abc09b4c1e1b50d235f445934fa8390dc02dc0dc56b1293b",
    },
    "Katmai": {
        "text":
            "5c3f5dec9e182d451b9554f520456c5ec90d8c7db48899892788a5061150468d",
        "int-bool-float":
            "95c50c01f5e842b2f5e7783cb8d0dde8ecb62378ac319ed0aa9e69eec7522691",
        "wide":
            "a681653b9d4208166169b1ff64068becf75dcaa8ab99262e490023ec1af9a07b",
        "mse":
            "29e7076b1198b10e76a69de611946bcec32e8e903a0639f439b3850afe5ff3f9",
        "no-classes":
            "f7512e3de457a042a0e02b445aed41ea423030022df53305b0b333d5760618b9",
        "object-classes":
            "62c12d3bc5b23a98860b82103540d9bf36ec82c92a73b088f11ed58303ca3a5b",
    },
}


def test_golden_predict_digest(tmp_path):
    schema_path = tmp_path / "schema.json"
    write_jsonl(tmp_path / "train.jsonl", GOLDEN_TRAIN)
    assert main(["infer", "--input", str(tmp_path / "train.jsonl"),
                 "--output", str(schema_path),
                 "--categorical-threshold", "3"]) == 0
    models = {}
    for case, (label, flags) in GOLDEN_PREDICT_CASES.items():
        train = tmp_path / f"{case}.jsonl"
        write_jsonl(train, [{**doc, "label": label(i)}
                            for i, doc in enumerate(GOLDEN_TRAIN)])
        models[case] = tmp_path / f"{case}.bin"
        assert main(["train", "--schema", str(schema_path),
                     "--train", str(train), "--label-field", "label",
                     "--output", str(models[case]), "--epochs", "1",
                     "--batch-size", "4", *flags]) == 0
    schema = loads_schema(schema_path.read_text())
    schema = schema_mod.Product(schema.count, tuple(
        f for f in schema.fields if f.name != "label"))
    for case, extra in (
            ("no-classes", {}),
            ("object-classes", {"label_field": "label", "classes": [
                {"z": [1, "é"], "a": {"y": None, "b": 2.5}}, [3, 1], None]})):
        models[case] = tmp_path / f"{case}.bin"
        save_model(build_model(schema, ModelConfig(output_dim=3, seed=5)),
                   str(models[case]), extra=extra)
    src = tmp_path / "in.jsonl"
    src.write_text("".join(line + "\n" for line in GOLDEN_PREDICT_INPUT),
                   encoding="utf-8")
    got = {}
    for case, model in models.items():
        out = tmp_path / f"{case}.out.jsonl"
        rc = main(["predict", "--model", str(model), "--input", str(src),
                   "--output", str(out)])
        got[case] = hashlib.sha256(
            f"{rc} ".encode() + out.read_bytes()).hexdigest()
    assert got == pinned(GOLDEN_PREDICT_SHA256), kernel_note()


class TestPredictRecords:
    """Records spelled from the scores as json.dumps spelled the record
    dict, on scores given straight to the writer."""

    def predict(self, tmp_path, monkeypatch, capsys, rows, classes):
        path = tmp_path / "model.bin"
        extra = {} if classes is None else {"label_field": "y",
                                            "classes": classes}
        save_model(build_model(PLAIN_BAG, ModelConfig(output_dim=len(rows[0]))),
                   str(path), extra=extra)
        monkeypatch.setattr(cli_mod, "predict_scores", lambda model, items: (
            (number, np.array(row), None)
            for (number, _, _), row in zip(items, rows)))
        src = tmp_path / "in.jsonl"
        src.write_text("[1.0]\n" * len(rows))
        capsys.readouterr()
        assert main(["predict", "--model", str(path), "--input", str(src),
                     "--output", "-"]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("classes", [["a", "b", "c"], None])
    def test_a_score_tie_picks_the_first_class(self, tmp_path, monkeypatch,
                                               capsys, classes):
        out = self.predict(tmp_path, monkeypatch, capsys,
                           [[0.25, 0.5, 0.5], [0.5, 0.5, 0.25]], classes)
        first, second = ('"b"', '"a"') if classes else ("1", "0")
        assert out == (
            f'{{"prediction": {first}, "scores": [0.25, 0.5, 0.5]}}\n'
            f'{{"prediction": {second}, "scores": [0.5, 0.5, 0.25]}}\n')

    def test_a_signed_zero_tie_picks_the_first_class(self, tmp_path,
                                                     monkeypatch, capsys):
        out = self.predict(tmp_path, monkeypatch, capsys,
                           [[-0.0, 0.0], [0.0, -0.0], [-1.0, -0.0]],
                           ["a", "b"])
        assert out == ('{"prediction": "a", "scores": [-0.0, 0.0]}\n'
                       '{"prediction": "a", "scores": [0.0, -0.0]}\n'
                       '{"prediction": "b", "scores": [-1.0, -0.0]}\n')
        assert [np.argmax(json.loads(line)["scores"])
                for line in out.splitlines()] == [0, 0, 1]

    def test_an_object_class_is_written_with_its_keys_sorted(
            self, tmp_path, monkeypatch, capsys):
        out = self.predict(tmp_path, monkeypatch, capsys, [[2.0, 1e-300]],
                           [{"z": 1, "a": {"y": "é", "b": None}}, "x"])
        assert out == ('{"prediction": {"a": {"b": null, "y": "\\u00e9"}, '
                       '"z": 1}, "scores": [2.0, 1e-300]}\n')
