"""Seeded corpus generators for the hmil benchmark.

Every corpus is a pure function of the workload seed: the same seed gives
byte-identical JSONL.  The generators live here, not in hmil, so the
program under test only ever sees the generated files.
"""

from __future__ import annotations

import json

import numpy as np

# nested-train: the bags-of-bags grouping task of the paper's nested
# benchmark (10 inner bags of 20 numbers per document, label = whether
# the inner bags keep their own centres).
NESTED_TRAIN_DOCS = 1000
NESTED_HELDOUT_DOCS = 400
NESTED_BAGS = 10
NESTED_BAG_SIZE = 20

# logs-predict: flat request-log records with three free-text fields.
LOGS_TRAIN_DOCS = 600
LOGS_PREDICT_DOCS = 3000

_METHODS = ("GET", "POST", "PUT", "DELETE", "PATCH")
_REGIONS = ("eu-west", "eu-north", "us-east", "us-west", "ap-south", "ap-east")
_HEADER_NAMES = ("accept", "accept-encoding", "cache-control", "content-type",
                 "user-agent-class", "x-trace-sampled", "x-client")
_HEADER_VALUES = ("gzip", "br", "identity", "no-cache", "max-age=60",
                  "application/json", "text/html", "text/plain", "0", "1",
                  "mobile", "desktop", "bot", "sdk-py", "sdk-js", "sdk-go")
_SEGMENTS = ("api", "v1", "v2", "users", "orders", "items", "search", "cart",
             "checkout", "static", "img", "assets", "auth", "login", "session",
             "reports", "export", "metrics", "health", "admin")
_AGENTS = ("Mozilla/5.0 (X11; Linux x86_64)", "Mozilla/5.0 (Macintosh)",
           "Mozilla/5.0 (Windows NT 10.0; Win64; x64)", "curl/8.5.0",
           "python-requests/2.31", "Go-http-client/1.1", "okhttp/4.12.0")
_OK_WORDS = ("served", "request", "completed", "cache", "hit", "rendered",
             "returned", "page", "ok", "user", "session", "renewed", "item",
             "listed", "query", "matched", "rows", "fetched", "in", "from")
_ERROR_WORDS = ("timeout", "upstream", "refused", "connection", "reset",
                "exception", "failed", "retry", "exhausted", "deadlock",
                "detected", "null", "pointer", "overflow", "denied")


def _nested_doc(rng: np.random.Generator, coherent: bool) -> list:
    centers = rng.normal(0.0, 1.0, NESTED_BAGS)
    values = (np.repeat(centers, NESTED_BAG_SIZE)
              + rng.normal(0.0, 1.0, NESTED_BAGS * NESTED_BAG_SIZE))
    if not coherent:
        values = rng.permutation(values)
    return [[float(v) for v in bag]
            for bag in values.reshape(NESTED_BAGS, NESTED_BAG_SIZE)]


def nested_corpus(seed: int) -> tuple[list[dict], list[dict]]:
    """(train, heldout) documents ``{"groups": [[x, ...], ...], "label"}``;
    labels alternate so both splits are balanced."""
    rng = np.random.default_rng([seed, 43])

    def split(n):
        return [{"groups": _nested_doc(rng, coherent=bool(i % 2)),
                 "label": i % 2} for i in range(n)]

    return split(NESTED_TRAIN_DOCS), split(NESTED_HELDOUT_DOCS)


def _pick(rng: np.random.Generator, options):
    return options[int(rng.integers(len(options)))]


def _text(rng: np.random.Generator, words, lo: int, hi: int,
          sep: str = " ") -> str:
    """Words joined until the text is lo..hi bytes long (all ASCII)."""
    target = int(rng.integers(lo, hi + 1))
    parts: list[str] = []
    size = -len(sep)
    while size < target:
        word = _pick(rng, words)
        if rng.random() < 0.3:
            word += str(int(rng.integers(0, 10000)))
        parts.append(word)
        size += len(sep) + len(word)
    return sep.join(parts)[:target]


def _log_record(rng: np.random.Generator) -> dict:
    error = bool(rng.random() < 0.5)
    message_words = _ERROR_WORDS if error else _OK_WORDS
    latency = float(rng.lognormal(4.0 + (0.3 if error else 0.0), 0.8))
    headers = [{"name": _pick(rng, _HEADER_NAMES),
                "value": _pick(rng, _HEADER_VALUES)}
               for _ in range(int(rng.integers(1, 6)))]
    return {
        "path": "/" + _text(rng, _SEGMENTS, 19, 159, sep="/"),
        "agent": (_pick(rng, _AGENTS) + " "
                  + _text(rng, _SEGMENTS, 9, 110, sep=".")),
        "message": _text(rng, message_words + _OK_WORDS[:5], 20, 160),
        "method": _pick(rng, _METHODS),
        "region": _pick(rng, _REGIONS),
        "latency_ms": round(latency, 3),
        "bytes": int(rng.integers(200, 200_000)),
        "headers": headers,
        "label": "error" if error else "ok",
    }


def logs_corpus(seed: int) -> tuple[list[dict], list[dict]]:
    """(train, predict) request-log records; each carries its label."""
    rng = np.random.default_rng([seed, 77])
    train = [_log_record(rng) for _ in range(LOGS_TRAIN_DOCS)]
    predict = [_log_record(rng) for _ in range(LOGS_PREDICT_DOCS)]
    return train, predict


def to_jsonl(docs: list) -> bytes:
    return "".join(json.dumps(d, sort_keys=True) + "\n"
                   for d in docs).encode("utf-8")


def shape_counts(docs: list, corpus_bytes: int) -> dict:
    """Working-set shape of a corpus: document count, leaf rows, string
    bytes and bags per document, mean bag size, and corpus bytes."""
    leaves = string_bytes = bags = bag_items = 0
    stack = list(docs)
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, list):
            bags += 1
            bag_items += len(value)
            stack.extend(value)
        else:
            leaves += 1
            if isinstance(value, str):
                string_bytes += len(value.encode("utf-8"))
    n = max(len(docs), 1)
    return {"documents": len(docs),
            "leaf_rows_per_doc": leaves / n,
            "string_bytes_per_doc": string_bytes / n,
            "bags_per_doc": bags / n,
            "mean_bag_size": bag_items / bags if bags else 0.0,
            "corpus_bytes": corpus_bytes}
