"""Synthetic cluster datasets and text-based persistence.

All formats are plain text and lossless for 64-bit floats (shortest
round-trip repr). Checkpoints are JSON with a version tag so loaders can
refuse formats they do not understand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LabeledDataset",
    "ClusterSpec",
    "gen_clusters",
    "save_dataset",
    "load_dataset",
    "save_checkpoint",
    "load_checkpoint",
    "load_json_object",
    "save_record",
    "write_csv",
]

CHECKPOINT_FORMAT = "pairsim-ckpt-v1"
CHECKPOINT_KEYS = ("din", "embed_dim", "w1", "w2", "class_weights")
RECORD_HEADER = "iter,mean_sp,mean_sn,loss,lr"
# Rows that write_csv formats in one %-format pass; bounds the text held at once.
CSV_ROW_BLOCK = 4096
# The bytes a dataset's data rows may hold for load_dataset's fast path:
# those of the numbers save_dataset writes, and the separators.
FAST_ROW_CHARS = b"0123456789+-.eE,\n"


@dataclass
class LabeledDataset:
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features must be M x Din with one label per row")
        if self.labels.size < 2 or np.min(self.labels) < 0:
            raise ValueError("labels must be non-negative with M >= 2")
        finite = np.isfinite(self.features).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite feature in row {int(np.argmin(finite))}")


@dataclass(frozen=True)
class ClusterSpec:
    n_classes: int
    per_class: int
    dim: int
    center_scale: float = 1.0
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 2 or self.per_class < 1 or self.dim < 1:
            raise ValueError("need n_classes >= 2, per_class >= 1, dim >= 1")
        if self.center_scale <= 0 or self.noise_sigma < 0:
            raise ValueError("center_scale must be positive, noise_sigma non-negative")


def gen_clusters(spec: ClusterSpec) -> LabeledDataset:
    """Gaussian blobs around class centers drawn uniformly on a sphere.

    Spherical centers give uniform pairwise-angle statistics, which suits
    a cosine-similarity framework better than centers in a cube.
    """
    rng = np.random.default_rng(spec.seed)
    centers = rng.standard_normal((spec.n_classes, spec.dim))
    # A scale that overflows gives non-finite features, which LabeledDataset refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        centers *= spec.center_scale / np.linalg.norm(centers, axis=1, keepdims=True)
        features = np.repeat(centers, spec.per_class, axis=0)
        features = features + spec.noise_sigma * rng.standard_normal(features.shape)
    labels = np.repeat(np.arange(spec.n_classes), spec.per_class)
    return LabeledDataset(features=features, labels=labels)


def write_csv(path, header: str, row_format: str, rows, ids=None) -> None:
    """Write ``header``, then one ``row_format`` line per row of ``rows``.

    ``row_format`` holds one %-conversion per column and ends in a newline.
    Cells reach it as Python scalars, so ``%r`` is the shortest round-trip
    repr under any numpy version. ``ids``, if given, is an integer column
    written exactly (never through float64) before the columns of ``rows``.
    Rows are formatted CSV_ROW_BLOCK at a time, so the text held in memory
    is bounded for any row count.
    """
    rows = np.asarray(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, rows.shape[0], CSV_ROW_BLOCK):
            block = rows[start : start + CSV_ROW_BLOCK]
            if ids is not None:
                block_ids = ids[start : start + CSV_ROW_BLOCK].astype(object)
                block = np.column_stack((block_ids, block))
            fh.write((row_format * block.shape[0]) % tuple(block.ravel().tolist()))


def save_dataset(path, dataset: LabeledDataset) -> None:
    din = dataset.features.shape[1]
    header = "label," + ",".join(f"f{i}" for i in range(din))
    write_csv(path, header, "%d" + ",%r" * din + "\n", dataset.features, ids=dataset.labels)


def load_dataset(path) -> LabeledDataset:
    """Read a dataset CSV in the layout ``save_dataset`` writes.

    Rows made only of the characters ``save_dataset`` writes go through
    numpy's C reader. Any other file, or one that fails a check there, is
    parsed line by line in Python; every error names its line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    if not lines:
        raise ValueError("no rows")
    header = lines[0].split(",")
    if header[0] != "label" or len(header) < 2:
        raise ValueError("line 1: bad header, expected 'label,f0,...'")
    rows = lines[1:]
    if not rows:
        raise ValueError("no rows")
    try:
        features, labels = _parse_rows_fast(text[len(lines[0]) :], rows, len(header))
    except (ValueError, OverflowError):  # the line parser gives the error, or the same arrays
        features, labels = _parse_rows(rows, len(header))
    return LabeledDataset(features=features, labels=labels)


def _parse_rows_fast(body: str, rows: list, width: int):
    """(features, labels) of the data rows, with numpy's reader for the features.

    ``body`` is the text after the header line. It may hold only digits,
    signs, '.', 'e', 'E', commas and newlines. Over that alphabet numpy's
    reader and ``float`` accept the same cells and give the same bits;
    outside it they differ (numpy skips '\\x1f' as whitespace). Raises on
    anything the line parser would reject, and on blank lines, which
    ``np.loadtxt`` skips.
    """
    raw = body.encode()
    if raw.translate(None, FAST_ROW_CHARS) or raw.count(b",") != len(rows) * (width - 1):
        raise ValueError("not a plain numeric table of the header's width")
    labels = np.array([int(row.partition(",")[0]) for row in rows], dtype=np.int64)
    if labels.min() < 0:
        raise ValueError("negative label")
    features = np.loadtxt(
        rows, dtype=np.float64, delimiter=",", comments=None, usecols=range(1, width), ndmin=2
    )
    if features.shape[0] != len(rows):
        raise ValueError("blank line")
    return features, labels


def _parse_rows(rows: list, width: int):
    """(features, labels) of the data rows, one line at a time."""
    features, labels = [], []
    for lineno, line in enumerate(rows, start=2):
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"line {lineno}: expected {width} columns, got {len(parts)}")
        try:
            label = int(parts[0])
            row = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if label < 0:
            raise ValueError(f"line {lineno}: negative label {label}")
        if label >= 2**63:
            raise ValueError(f"line {lineno}: label {label} does not fit in int64")
        labels.append(label)
        features.append(row)
    return np.array(features), np.array(labels)


def save_checkpoint(path, model, config_echo: dict | None = None) -> None:
    """Self-describing JSON checkpoint; byte-stable across save/load/save.

    The bytes are those of ``json.dump(doc, fh, sort_keys=True, indent=1)``
    plus a newline. The scalar fields go through ``json.dumps``; each
    matrix is formatted in one %-format pass and spliced in. A matrix that
    ``load_checkpoint`` would refuse (empty or non-finite) is refused here.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "din": model.din,
        "embed_dim": model.embed_dim,
        "hidden": model.hidden,
        "n_classes": model.n_classes,
        "w1": model.w1,
        "w2": model.w2,
        "class_weights": model.class_weights,
        "config": config_echo or {},
    }
    fields = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, np.ndarray):
            text = _json_matrix(key, value)
        else:
            # Indented one level deeper, as a value inside the document.
            text = json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n ")
        fields.append(f"{json.dumps(key)}: {text}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n " + ",\n ".join(fields) + "\n}\n")


def _json_matrix(key: str, matrix: np.ndarray) -> str:
    """``json.dumps(matrix.tolist(), indent=1)`` as a top-level field's value."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or 0 in matrix.shape or not np.isfinite(matrix).all():
        raise ValueError(f"checkpoint {key} must be a non-empty, finite 2-D matrix")
    # Cells as Python floats, so %r is json's float repr under any numpy.
    row = "  [\n" + ",\n".join(["   %r"] * matrix.shape[1]) + "\n  ]"
    return "[\n" + ",\n".join([row] * matrix.shape[0]) % tuple(matrix.ravel().tolist()) + "\n ]"


def _checkpoint_matrix(doc: dict, key: str, cols: int | None = None) -> np.ndarray:
    """A checkpoint array as a finite, non-empty 2-D float matrix."""
    try:
        arr = np.array(doc[key])
    except ValueError:
        raise ValueError(f"checkpoint {key} is not a matrix") from None
    if arr.dtype.kind not in "iuf" or arr.ndim != 2 or 0 in arr.shape:
        raise ValueError(f"checkpoint {key} must be a non-empty 2-D matrix of numbers")
    if cols is not None and arr.shape[1] != cols:
        raise ValueError(f"checkpoint {key} has {arr.shape[1]} columns, expected {cols}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"checkpoint {key} holds a non-finite value")
    return arr.astype(np.float64)


def load_json_object(path, what: str) -> dict:
    """The JSON object in the file at ``path``; a refusal names ``what`` and the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8 text
            raise ValueError(f"{what} {path} is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    return doc


def load_checkpoint(path, expect_din: int | None = None):
    """Load an EmbeddingModel; returns (model, config_echo)."""
    from .engine import EmbeddingModel

    doc = load_json_object(path, "checkpoint")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format {doc.get('format')!r}")
    missing = [key for key in CHECKPOINT_KEYS if key not in doc]
    if missing:
        raise ValueError(f"checkpoint lacks keys {missing}")
    w1 = _checkpoint_matrix(doc, "w1")
    w2 = None if doc["w2"] is None else _checkpoint_matrix(doc, "w2", cols=w1.shape[0])
    model = EmbeddingModel(w1=w1, w2=w2)
    if doc["class_weights"] is not None:
        model.class_weights = _checkpoint_matrix(doc, "class_weights", cols=model.embed_dim)
    if model.din != doc["din"] or model.embed_dim != doc["embed_dim"]:
        raise ValueError("checkpoint dimension fields disagree with arrays")
    if expect_din is not None and model.din != expect_din:
        raise ValueError(f"checkpoint Din {model.din} != expected {expect_din}")
    return model, doc.get("config", {})


def save_record(path, record) -> None:
    """Trajectory CSV: iter,mean_sp,mean_sn,loss,lr (lossless floats)."""
    columns = np.column_stack((record.mean_sp, record.mean_sn, record.loss, record.lr))
    write_csv(path, RECORD_HEADER, "%d,%r,%r,%r,%r\n", columns, ids=record.iteration)
