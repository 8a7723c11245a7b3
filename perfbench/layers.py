"""The hmil layers the traced run splits time across.

Each entry names the public function it wraps, the work counters taken
at that boundary, and the end-to-end metrics (with the workload) that a
change to the layer should move.  A layer that a workload never calls
reports zeros there, and the prediction for that workload is no change.
"""

from __future__ import annotations

from tracer import Layer

NESTED, LOGS, VERIFY = "nested-train", "logs-predict", "verify-invariants"


def _string_bytes(args, kwargs, result):
    s = args[0] if args else kwargs["s"]
    return (len(s.encode("utf-8")),)


def _leaf_rows(args, kwargs, result):
    return (sum(m.shape[0] for m in result.data.values()),)


def _dense_flops(args, kwargs, result):
    x, w = args[0], args[1]
    return (2 * x.rows * w.rows * w.cols,)


def _segments(args, kwargs, result):
    return (result.rows,)


def _tape_nodes(args, kwargs, result):
    tape = args[0] if args else kwargs["tape"]
    return (len(tape.nodes),)


def _all(metric):
    return tuple((metric, w) for w in (NESTED, LOGS, VERIFY))


_CHECKS = ("check_permutation_invariance", "check_dirac_identity",
           "check_matrix_collapse", "check_gradients",
           "check_embedding_bounds", "check_pipeline_round_trip")

LAYERS: list[Layer] = [
    Layer("schema.infer_schema", "hmil.schema", "infer_schema",
          (("wall_s", LOGS), ("wall_s", VERIFY), ("setup_s", NESTED))),
    Layer("schema.validate", "hmil.schema", "validate", _all("wall_s")),
    Layer("encoding.encode_document", "hmil.encoding", "encode_document",
          _all("wall_s")),
    # zero calls on nested-train: its documents hold no strings
    Layer("encoding.encode_string_ngram", "hmil.encoding",
          "encode_string_ngram", (("wall_s", LOGS), ("wall_s", VERIFY)),
          ("bytes",), _string_bytes),
    Layer("batching.build_batch", "hmil.batching", "build_batch",
          (("wall_s", NESTED), ("wall_s", VERIFY), ("peak_rss_mb", NESTED)),
          ("leaf_rows",), _leaf_rows),
    Layer("model.build_model", "hmil.model", "build_model",
          (("wall_s", VERIFY),)),
    Layer("model.forward", "hmil.model", "forward", _all("wall_s")),
    Layer("model.forward_with_embeddings", "hmil.model",
          "forward_with_embeddings", (("wall_s", VERIFY),)),
    Layer("model.save_model", "hmil.model", "save_model",
          (("wall_s", NESTED),)),
    Layer("model.load_model", "hmil.model", "load_model",
          (("wall_s", LOGS),)),
    Layer("nn.dense_forward", "hmil.nn", "dense_forward",
          (("wall_s", NESTED), ("wall_s", VERIFY)), ("flops",), _dense_flops),
    Layer("nn.segment_mean", "hmil.nn", "segment_mean",
          (("wall_s", NESTED), ("wall_s", VERIFY)), ("segments",), _segments),
    # the CLI trains with mean pooling, so only verify pools by max
    Layer("nn.segment_max", "hmil.nn", "segment_max",
          (("wall_s", VERIFY),), ("segments",), _segments),
    # forward-only inference: no tape, no backward, no Adam on logs-predict
    Layer("nn.backward", "hmil.nn", "backward",
          (("wall_s", NESTED), ("wall_s", VERIFY)), ("tape_nodes",),
          _tape_nodes),
    Layer("nn.adam_step", "hmil.nn", "adam_step", (("wall_s", NESTED),)),
    Layer("training.train", "hmil.training", "train",
          (("wall_s", NESTED), ("setup_s", LOGS))),
    Layer("training.predict_scores", "hmil.training", "predict_scores",
          (("wall_s", LOGS),)),
    Layer("generators.random_document", "hmil.generators", "random_document",
          (("wall_s", VERIFY),)),
    *(Layer(f"verification.{check}", "hmil.verification", check,
            (("wall_s", VERIFY),)) for check in _CHECKS),
    # self time here is JSONL parsing, JSON dumping and file I/O
    Layer("cli.main", "hmil.cli", "main",
          _all("wall_s") + (("peak_rss_mb", LOGS),)),
]
