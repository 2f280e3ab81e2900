"""Runtime span tracing for the tsqa benchmark.

The traced run wraps public functions of the tsqa modules at runtime;
nothing in the package is edited. A span is named ``<module>.<function>``
after the layer it measures and records every call's inclusive duration.
Its self time is that duration minus the time of the spans it called.
Counters record work at the same boundaries: rows pushed through the LM,
tokens decoded, and L'*V tokens entering channel fusion.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

from tsqa import encoder, fusion, lm, metrics, model, tensor, train


def _logits_rows(args, result):
    return args[1].shape[0]


def _decoded_tokens(args, result):
    # decode_greedy joins vocabulary tokens, which never contain spaces
    return len(result.split())


def _channel_tokens(args, result):
    l_p, v_ch, _ = args[2].shape
    return l_p * v_ch


def _multi_series(args, result):
    return int(len(args[1]) > 1)


# (span name, owner, attribute, (counter name, count function) or None).
# Functions imported by name into another module are wrapped where that
# module looks them up: model.encode_series calls tsqa.model.load_series,
# which is tsqa.encoder.load_series, the series-file reader.
SPAN_TABLE = [
    ("data.load_series", model, "load_series", None),
    ("encoder.patchify", model, "patchify", None),
    ("encoder.encode", encoder.PatchEncoder, "encode", None),
    ("encoder.tpe", encoder.TpeTable, "apply", None),
    ("model.encode_series", model.QaModel, "encode_series", None),
    ("model.temporal_tokens", model.QaModel, "temporal_tokens",
     ("model.temporal_tokens.multi_series", _multi_series)),
    ("model.augmented_prompt", model.QaModel, "augmented_prompt", None),
    ("model.loss", model.QaModel, "loss", None),
    ("model.rank_choices", model.QaModel, "rank_choices", None),
    ("model.answer_greedy", model.QaModel, "answer_greedy", None),
    ("fusion.fuse", fusion.FusionStack, "fuse", None),
    ("fusion.refine", fusion, "refine_instruct", None),
    ("fusion.channel", fusion, "channel_fuse", ("fusion.channel.tokens", _channel_tokens)),
    ("fusion.time", fusion, "time_attend", None),
    ("fusion.inject", model, "inject_tal", None),
    ("lm.embed", lm.DecoderLm, "embed_query", None),
    ("lm.embed", lm.DecoderLm, "embed_continuation", None),
    ("lm.logits", lm.DecoderLm, "logits", ("lm.logits.rows", _logits_rows)),
    ("lm.score", lm.DecoderLm, "score", None),
    ("lm.decode", lm.DecoderLm, "decode_greedy", ("lm.decode.tokens", _decoded_tokens)),
    ("tensor.backward", tensor, "backward_gradients", None),
    ("train.step", train.Trainer, "sft_step", None),
    ("train.clip", train, "clip_gradients", None),
    ("train.adam", train.Adam, "step", None),
    ("train.checksum", model.QaModel, "frozen_checksum", None),
    ("metrics.evaluate", metrics, "evaluate", None),
    ("metrics.text", metrics, "bleu", None),
    ("metrics.text", metrics, "rouge_l", None),
]

SPAN_NAMES = list(dict.fromkeys(name for name, *_ in SPAN_TABLE))
COUNTER_NAMES = ["lm.logits.rows", "lm.decode.tokens", "fusion.channel.tokens"]

_TRAIN_ONLY = {"tensor.backward", "train.step", "train.clip", "train.adam", "train.checksum"}
_ENCODE_MISS = {"data.load_series", "encoder.patchify", "encoder.encode"}
_FORWARD = {
    "encoder.tpe", "model.encode_series", "model.temporal_tokens", "model.augmented_prompt",
    "fusion.fuse", "fusion.refine", "fusion.channel", "fusion.time", "fusion.inject",
    "lm.embed", "lm.logits", "lm.score",
}

# Spans each workload's timed phase must reach, and spans it must never reach.
# Timed train and eval run on a warm encoder cache, so the encode-miss path
# stays silent there; only train runs backward, clipping, Adam and the
# frozen checksum.
MUST_RUN = {
    "train": _FORWARD | _TRAIN_ONLY | {"model.loss"},
    "eval": _FORWARD | {"model.rank_choices", "model.answer_greedy", "lm.decode",
                        "metrics.evaluate", "metrics.text"},
    "ingest": _ENCODE_MISS | {"encoder.tpe", "model.encode_series", "model.temporal_tokens"},
}
MUST_NOT_RUN = {
    "train": _ENCODE_MISS,
    "eval": _ENCODE_MISS | _TRAIN_ONLY,
    "ingest": _TRAIN_ONLY,
}


class TraceError(RuntimeError):
    pass


class Tracer:
    """Span recorder; `installed()` wraps every entry of SPAN_TABLE."""

    def __init__(self):
        self.durations = defaultdict(list)  # span -> inclusive seconds per call
        self.self_time = defaultdict(float)  # span -> seconds outside child spans
        self.counts = defaultdict(int)
        self._open = []  # child seconds accumulated by each open span
        self._originals = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                self.durations[name].append(elapsed)
                self.self_time[name] += elapsed - children
            if counter:
                key, count = counter
                self.counts[key] += count(args, result)
            return result

        return traced

    def __enter__(self):
        for name, owner, attr, counter in SPAN_TABLE:
            try:
                fn = getattr(owner, attr)
            except AttributeError as exc:
                self.__exit__(None, None, None)
                raise TraceError(
                    f"span {name}: {owner.__name__}.{attr} no longer exists; "
                    "update the span table"
                ) from exc
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, counter))
        return self

    def __exit__(self, *exc):
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)
        return False

    def calls(self, name):
        return len(self.durations[name])

    def guard(self, workload):
        """Names of coverage violations for this workload's timed phase."""
        problems = [f"{name} expected to run but has 0 calls"
                    for name in sorted(MUST_RUN[workload]) if not self.calls(name)]
        problems += [f"{name} must not run on {workload} but has {self.calls(name)} calls"
                     for name in sorted(MUST_NOT_RUN[workload]) if self.calls(name)]
        return problems

    def metrics(self):
        """Per-span calls, self time and median call time, plus the counters."""
        out = {}
        for name in SPAN_NAMES:
            samples = self.durations[name]
            out[f"{name}.calls"] = (len(samples), "count")
            out[f"{name}.self_ms"] = (1000.0 * self.self_time[name], "ms")
            out[f"{name}.ms_p50"] = (
                1000.0 * statistics.median(samples) if samples else 0.0, "ms")
        for name in COUNTER_NAMES:
            out[name] = (self.counts[name], "count")
        series_calls = self.calls("model.encode_series")
        out["model.encode_cache.hit_ratio"] = (
            1.0 - self.calls("encoder.encode") / series_calls if series_calls else 0.0,
            "ratio")
        token_calls = self.calls("model.temporal_tokens")
        out["workload.multi_series_share"] = (
            self.counts["model.temporal_tokens.multi_series"] / token_calls
            if token_calls else 0.0,
            "ratio")
        return out
