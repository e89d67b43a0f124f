"""Spans around the calls into audiomlp's modules, recorded from outside.

Each wrapped function is replaced at the name its caller looks up (for
example ``audiomlp.cli.resample`` or ``audiomlp.trainer.forward_batch``)
and restored afterwards. A span records its name, start, end, parent
span, operation id and thread. Spans stay in memory until the run ends.

Worker threads (the embed thread pool) have no open span of their own;
their spans are parented to the innermost span open on the main thread,
which is ``cli.encode_audio`` while the pool runs.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
import tracemalloc
from collections import defaultdict

# (module the caller looks the name up in, attribute, span name).
# The span name is <defining module>.<function>, except adamw_update,
# which is named after its two callers.
TARGETS = [
    ("audiomlp.cli", "main", "cli.main"),
    ("audiomlp.cli", "encode_audio", "cli.encode_audio"),
    ("audiomlp.cli", "decode_wav", "dsp.decode_wav"),
    ("audiomlp.cli", "resample", "dsp.resample"),
    ("audiomlp.cli", "pad_and_segment", "dsp.pad_and_segment"),
    ("audiomlp.cli", "mfcc", "dsp.mfcc"),
    ("audiomlp.cli", "extract_timestamps", "encoder.extract_timestamps"),
    ("audiomlp.cli", "scene_embedding", "scene.scene_embedding"),
    ("audiomlp.cli", "load_weights", "formats.load_weights"),
    ("audiomlp.cli", "save_embeddings", "formats.save_embeddings"),
    ("audiomlp.cli", "format_embeddings_csv", "formats.format_embeddings_csv"),
    ("audiomlp.cli", "load_embeddings", "formats.load_embeddings"),
    ("audiomlp.cli", "load_manifest", "formats.load_manifest"),
    ("audiomlp.cli", "save_weights", "formats.save_weights"),
    ("audiomlp.cli", "save_optimizer_state", "formats.save_optimizer_state"),
    ("audiomlp.cli", "train", "trainer.train"),
    ("audiomlp.cli", "evaluate", "trainer.evaluate"),
    ("audiomlp.cli", "train_probe", "probe.train_probe"),
    ("audiomlp.cli", "evaluate_probe", "probe.evaluate_probe"),
    ("audiomlp.trainer", "augment", "trainer.augment"),
    ("audiomlp.trainer", "loss_and_grads", "trainer.loss_and_grads"),
    ("audiomlp.trainer", "forward_batch", "trainer.forward_batch"),
    ("audiomlp.trainer", "adamw_update", "trainer.adamw_update"),
    ("audiomlp.probe", "adamw_update", "probe.adamw_update"),
]

# spans whose tracemalloc peak is recorded (never nested in one another)
PEAK_SPANS = {"dsp.resample", "trainer.loss_and_grads"}


def _file_size(args, _result):
    return os.path.getsize(args[0])


# counters added at span exit: span name -> (counter name, f(args, result))
COUNTERS = {
    "dsp.decode_wav": ("dsp.decode_wav.bytes", lambda a, r: len(a[0])),
    "dsp.resample": ("dsp.resample.out_samples", lambda a, r: len(r.samples)),
    "dsp.pad_and_segment": ("dsp.pad_and_segment.segments", lambda a, r: len(r)),
    "formats.save_embeddings": ("formats.bytes_written", _file_size),
    "formats.format_embeddings_csv": ("formats.bytes_written", lambda a, r: len(r)),
    "formats.save_weights": ("formats.bytes_written", _file_size),
    "formats.save_optimizer_state": ("formats.bytes_written", _file_size),
    "trainer.loss_and_grads": ("trainer.examples", lambda a, r: len(a[0])),
}


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.peaks_mb: dict[str, float] = defaultdict(float)
        self.op_id = 0
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        peak = name in PEAK_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span = dict(name=name, op=self.op_id, parent=parent,
                        thread=threading.get_ident(), start=time.perf_counter())
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            if peak:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name.split(".", 1)[0]] += 1
                raise
            finally:
                span["end"] = time.perf_counter()
                if peak:
                    self.peaks_mb[name] = max(
                        self.peaks_mb[name], tracemalloc.get_traced_memory()[1] / 2**20
                    )
                    tracemalloc.stop()
                stack.pop()
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, result)
            return result

        return wrapper

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the part of it covered by its
        direct children (their union, clipped to the parent interval).
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append((span["start"], span["end"]))
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: dict(calls=0, s=0.0, self_s=0.0)
        )
        for index, span in enumerate(self.spans):
            duration = span["end"] - span["start"]
            covered, reach = 0.0, span["start"]
            for lo, hi in sorted(children.get(index, ())):
                lo, hi = max(lo, reach), min(hi, span["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            row = table[span["name"]]
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration - covered
        return dict(table)
