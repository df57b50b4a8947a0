"""Spans around the public functions of each pairsim module.

The spans are recorded from outside the program: ``instrument`` swaps
module attributes (and ``EmbeddingModel`` methods) for timing wrappers
and puts the originals back on exit, so untraced jobs run the program
unchanged. Each span keeps (name, start, end, parent span, run id) in
flat in-memory arrays; ``write_spans`` dumps them when the run ends.

``LAYERS`` is the layer map: for every per-layer metric, the spans it
is derived from, the end-to-end metric it should move and on which
workloads, and the workloads it runs on. On every other workload the
layer does not run, so a change to it should leave that workload
unchanged; the traced run checks both sides of that prediction.
"""

from __future__ import annotations

import inspect
import os
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from pairsim import cli, dataio, engine, evalkit, geometry, grads

TRAIN = ("train_pairwise", "train_classlevel")
EVAL = ("retrieval_eval",)
FIELD = ("gradfield",)
ALL = TRAIN + EVAL + FIELD

# The end-to-end metrics each layer should move, with the workload; the
# per-workload names are the ones run.py prints beside items_per_s.
TRAIN_STEP = "step_ms_p50 on train_pairwise, train_classlevel"
TRAIN_WRITE = "run_s on train_pairwise, train_classlevel"
EVAL_RATE = "eval_queries_per_s (items_per_s) on retrieval_eval"
EVAL_READ = "run_s on retrieval_eval"
LOSS_RATE = "train_samples_per_s on train_pairwise, gradfield_points_per_s on gradfield"
FIELD_RATE = "gradfield_points_per_s (items_per_s) and run_s on gradfield"


@dataclass(frozen=True)
class Layer:
    """One per-layer metric: how it is derived and what it should move.

    kind is "total" (summed span time, ms), "self" (span time minus its
    child spans, ms), "count" (number of spans) or "bytes" (file bytes
    the spans read or wrote). A name ending in "." selects every span
    with that prefix.
    """

    name: str
    kind: str
    spans: tuple
    unit: str
    moves: str
    runs_on: tuple


LAYERS = (
    Layer("engine.sample_ms", "self", ("engine.train",), "ms", TRAIN_STEP, TRAIN),
    Layer("engine.forward_ms", "total", ("engine.forward",), "ms", TRAIN_STEP, TRAIN + EVAL),
    Layer("engine.backward_ms", "total", ("engine.backward",), "ms", TRAIN_STEP, TRAIN),
    Layer("engine.update_ms", "total", ("engine.apply_gradients",), "ms", TRAIN_STEP, TRAIN),
    Layer("engine.embed_ms", "total", ("engine.embed",), "ms", EVAL_RATE, EVAL),
    Layer("grads.backprop_self_ms", "self", ("grads.backprop_to_params",), "ms",
          "train_samples_per_s (items_per_s) on train_classlevel", TRAIN),
    Layer("grads.loss_grad_calls", "count", ("grads.loss_grad",), "count",
          LOSS_RATE, TRAIN + FIELD),
    Layer("grads.loss_grad_ms", "total", ("grads.loss_grad",), "ms", LOSS_RATE, TRAIN + FIELD),
    Layer("losses.calls", "count", ("losses.",), "count", LOSS_RATE, TRAIN + FIELD),
    Layer("losses.ms", "total", ("losses.",), "ms", LOSS_RATE, TRAIN + FIELD),
    Layer("simcore.groups", "count", ("simcore.SimilarityGroup",), "count",
          TRAIN_STEP, TRAIN + FIELD),
    Layer("simcore.group_ms", "total", ("simcore.SimilarityGroup",), "ms",
          TRAIN_STEP, TRAIN + FIELD),
    Layer("geometry.field_self_ms", "self", ("geometry.gradient_field",), "ms", FIELD_RATE, FIELD),
    Layer("geometry.csv_ms", "total", ("geometry.write_gradient_field_csv",), "ms",
          FIELD_RATE, FIELD),
    Layer("dataio.load_dataset_ms", "total", ("dataio.load_dataset",), "ms",
          EVAL_READ, TRAIN + EVAL),
    Layer("dataio.load_checkpoint_ms", "total", ("dataio.load_checkpoint",), "ms",
          EVAL_READ, EVAL),
    Layer("dataio.bytes_read", "bytes", ("dataio.load_dataset", "dataio.load_checkpoint"),
          "bytes", EVAL_READ, TRAIN + EVAL),
    Layer("dataio.save_checkpoint_ms", "total", ("dataio.save_checkpoint",), "ms",
          TRAIN_WRITE, TRAIN),
    Layer("dataio.save_record_ms", "total", ("dataio.save_record",), "ms", TRAIN_WRITE, TRAIN),
    Layer("dataio.bytes_written", "bytes", ("dataio.save_checkpoint", "dataio.save_record"),
          "bytes", TRAIN_WRITE, TRAIN),
    Layer("evalkit.recall_ms", "total", ("evalkit.recall_at_k",), "ms", EVAL_RATE, EVAL),
    Layer("evalkit.tar_ms", "total", ("evalkit.tar_at_far",), "ms", EVAL_RATE, EVAL),
    Layer("evalkit.scatter_ms", "total", ("evalkit.similarity_scatter",), "ms", EVAL_RATE, EVAL),
    Layer("cli.self_ms", "self", ("cli.main",), "ms", "run_s on every workload", ALL),
)


class Tracer:
    """Flat span store; ``run_id`` tags the spans of the current job."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nbytes = array("q")
        self._stack = [-1]
        self.run_id = 0

    def wrap(self, name: str, fn, size_of=None):
        """``fn`` recording one span per call; ``size_of(args)`` gives its bytes."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.run.append(self.run_id)
            self.end.append(0.0)
            self.nbytes.append(0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if size_of is not None:
                self.nbytes[idx] = size_of(args)
            return result

        return traced


def _file_size(args) -> int:
    return os.path.getsize(args[0])


def _patch_points():
    """(owner, attribute, span name, size_of) for every traced call site."""
    points = [
        (cli, "main", "cli.main", None),
        (engine, "train", "engine.train", None),
        (engine, "init_model", "engine.init_model", None),
        (engine, "train_step", "engine.train_step", None),
        (engine.EmbeddingModel, "forward", "engine.forward", None),
        (engine.EmbeddingModel, "backward", "engine.backward", None),
        (engine.EmbeddingModel, "apply_gradients", "engine.apply_gradients", None),
        (engine.EmbeddingModel, "embed", "engine.embed", None),
        (grads, "backprop_to_params", "grads.backprop_to_params", None),
        (grads, "loss_grad", "grads.loss_grad", None),
        (geometry, "loss_grad", "grads.loss_grad", None),
        (grads, "SimilarityGroup", "simcore.SimilarityGroup", None),
        (geometry, "SimilarityGroup", "simcore.SimilarityGroup", None),
        (geometry, "gradient_field", "geometry.gradient_field", None),
        (geometry, "write_gradient_field_csv", "geometry.write_gradient_field_csv", None),
        (dataio, "load_dataset", "dataio.load_dataset", _file_size),
        (dataio, "load_checkpoint", "dataio.load_checkpoint", _file_size),
        (dataio, "save_checkpoint", "dataio.save_checkpoint", _file_size),
        (dataio, "save_record", "dataio.save_record", _file_size),
        (evalkit, "recall_at_k", "evalkit.recall_at_k", None),
        (evalkit, "tar_at_far", "evalkit.tar_at_far", None),
        (evalkit, "similarity_scatter", "evalkit.similarity_scatter", None),
    ]
    # The losses-module functions grads calls by their imported names.
    for attr, value in sorted(vars(grads).items()):
        if inspect.isfunction(value) and value.__module__ == "pairsim.losses":
            points.append((grads, attr, f"losses.{value.__name__}", None))
    return points


@contextmanager
def instrument(tracer: Tracer):
    """Route every traced call site through ``tracer`` until exit."""
    saved = []
    try:
        for owner, attr, name, size_of in _patch_points():
            original = vars(owner).get(attr)
            if original is None:  # the job fails rather than report a layer as idle
                raise AttributeError(f"{owner.__name__} has no {attr} to trace as {name}")
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, size_of))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _selected(names: list[str], spans: tuple) -> np.ndarray:
    """Name ids matched by a layer's span selectors."""
    ids = [
        i
        for i, n in enumerate(names)
        if any(n.startswith(s) if s.endswith(".") else n == s for s in spans)
    ]
    return np.array(ids, dtype=np.int64)


def layer_values(tracer: Tracer, run_ids) -> dict:
    """Per layer: list of per-job values and the total span count."""
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    run = np.frombuffer(tracer.run, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    nbytes = np.frombuffer(tracer.nbytes, dtype=np.int64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_dur = dur - child
    out = {}
    for layer in LAYERS:
        sel = np.isin(name, _selected(tracer.names, layer.spans))
        source = {
            "total": dur * 1e3,
            "self": self_dur * 1e3,
            "count": np.ones_like(dur),
            "bytes": nbytes.astype(np.float64),
        }[layer.kind]
        per_job = [float(source[sel & (run == r)].sum()) for r in run_ids]
        out[layer.name] = (per_job, int(sel.sum()))
    return out


def spans_per_job(tracer: Tracer, run_ids) -> list[int]:
    run = np.frombuffer(tracer.run, dtype=np.int32)
    return [int(np.count_nonzero(run == r)) for r in run_ids]


def write_spans(tracer: Tracer, path) -> None:
    """Compressed npz, one entry per span in each of the arrays run, name
    (an index into names), start_s, end_s, parent (a span index, -1 for
    none) and bytes."""
    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        run=np.frombuffer(tracer.run, dtype=np.int32),
        name=np.frombuffer(tracer.name, dtype=np.int32),
        start_s=np.frombuffer(tracer.start),
        end_s=np.frombuffer(tracer.end),
        parent=np.frombuffer(tracer.parent, dtype=np.int32),
        bytes=np.frombuffer(tracer.nbytes, dtype=np.int64),
    )
