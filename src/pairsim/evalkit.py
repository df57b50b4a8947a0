"""Retrieval / verification metrics and hyper-parameter sweeps.

Covers R@K nearest-neighbor retrieval, TAR@FAR verification, the
hardest-pair similarity scatter used for convergence analysis, and
seeded training sweeps over gamma or m.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .dataio import LabeledDataset, write_csv
from .simcore import unit_rows

# Query rows scored at once by recall_at_k and similarity_scatter.
ROW_BLOCK = 256
# The TrainConfig fields a sweep may vary.
SWEEP_AXES = ("gamma", "m")

__all__ = [
    "MetricsReport",
    "ScatterResult",
    "recall_at_k",
    "tar_at_far",
    "similarity_scatter",
    "sweep",
    "write_report_csv",
    "write_report_json",
    "write_scatter_csv",
    "write_sweep_csv",
]


@dataclass
class MetricsReport:
    recall_at_k: dict = field(default_factory=dict)
    rank1: float | None = None
    tar_at_far: dict = field(default_factory=dict)
    pair_scatter: np.ndarray | None = None
    concentration: tuple[float, float] | None = None


@dataclass
class ScatterResult:
    """Hardest-pair (max sn, min sp) points, one per usable anchor."""

    points: np.ndarray
    skipped: int


def _row_blocks(emb: np.ndarray, labels: np.ndarray):
    """Walk the gallery in blocks of ROW_BLOCK query rows.

    Yields (rows, sim, positive): the block's rows as a slice, its clipped
    cosine block ``emb[rows] @ emb.T`` with each row's own score set to
    -inf, and its same-class mask with self excluded. One block is built
    at a time, so memory grows with ROW_BLOCK x n, not n x n.
    """
    n = emb.shape[0]
    for start in range(0, n, ROW_BLOCK):
        rows = slice(start, min(start + ROW_BLOCK, n))
        sim = emb[rows] @ emb.T
        np.clip(sim, -1.0, 1.0, out=sim)
        positive = labels[rows, None] == labels[None, :]
        np.fill_diagonal(sim[:, rows], -np.inf)
        np.fill_diagonal(positive[:, rows], False)
        yield rows, sim, positive


def recall_at_k(embeddings, labels, ks) -> dict:
    """Fraction of queries whose k nearest neighbors hit a same-class item.

    Cosine metric, self excluded, ties broken by ascending index. Query q
    hits at k exactly when fewer than k items rank above its best
    positive j* (the first same-class item of highest score s*), i.e.
    count(sim > s*) + count(sim == s* and index < j*) < k; a query with
    no positive never hits. Counting replaces a sort of the n x n matrix.
    """
    labels = np.asarray(labels)
    e = unit_rows(np.asarray(embeddings, dtype=np.float64), "embedding")[0]
    n = e.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples")
    ks = sorted(int(k) for k in ks)
    if not ks:
        raise ValueError("ks must name at least one k")
    if ks[0] < 1 or ks[-1] >= n:
        raise ValueError(f"k must lie in [1, {n - 1}]")
    index = np.arange(n)
    above = np.full(n, n)
    for rows, sim, positive in _row_blocks(e, labels):
        best = np.max(sim, axis=1, where=positive, initial=-np.inf)[:, None]
        tie = sim == best
        first = np.argmax(tie & positive, axis=1)[:, None]
        count = np.count_nonzero(sim > best, axis=1)
        count += np.count_nonzero(tie & (index < first), axis=1)
        above[rows] = np.where(best[:, 0] > -np.inf, count, n)
    return {k: float(np.mean(above < k)) for k in ks}


def tar_at_far(genuine_scores, impostor_scores, far_targets) -> dict:
    """True-accept rate at each false-accept target, inclusive threshold.

    The threshold is the smallest score whose impostor acceptance
    fraction is <= far; acceptance is score >= threshold.
    """
    gen = np.asarray(genuine_scores, dtype=np.float64)
    imp = np.asarray(impostor_scores, dtype=np.float64)
    if gen.size == 0 or imp.size == 0:
        raise ValueError("both score lists must be non-empty")
    imp_desc = np.sort(imp)[::-1]
    out = {}
    for far in far_targets:
        if far < 1.0 / imp.size:
            raise ValueError("insufficient impostor pairs")
        allowed = int(np.floor(far * imp.size))
        if allowed >= imp.size:
            threshold = -np.inf
        else:
            threshold = np.nextafter(imp_desc[allowed], np.inf)
        out[far] = float(np.mean(gen >= threshold))
    return out


def similarity_scatter(model, dataset: LabeledDataset) -> ScatterResult:
    """Per-anchor hardest pair (max_j sn_j, min_i sp_i) over a dataset.

    Anchors without a positive (singleton classes) or without a negative
    are skipped; the skip count is reported instead of warning per anchor.
    """
    emb = model.embed(dataset.features)
    blocks = []
    for _, sim, positive in _row_blocks(emb, dataset.labels):
        sn_max = np.max(sim, axis=1, where=~positive, initial=-np.inf)
        sp_min = np.min(sim, axis=1, where=positive, initial=np.inf)
        usable = (sn_max > -np.inf) & (sp_min < np.inf)
        blocks.append(np.column_stack([sn_max, sp_min])[usable])
    points = np.concatenate(blocks)
    return ScatterResult(points=points, skipped=dataset.labels.size - points.shape[0])


def sweep(dataset: LabeledDataset, base_config, axis: str, values):
    """Independent seeded training runs per value; returns [(value, R@1)].

    Each run trains from scratch with the axis value substituted into
    the base config, then scores R@1 on the full dataset embeddings.
    """
    from .engine import train

    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {', '.join(SWEEP_AXES)}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    rows = []
    for v in values:
        config = replace(base_config, **{axis: float(v)})
        record = train(dataset, config)
        emb = record.model.embed(dataset.features)
        r1 = recall_at_k(emb, dataset.labels, [1])[1]
        rows.append((float(v), r1))
    return rows


def write_report_csv(path, report: MetricsReport) -> None:
    """Flat `metric,key,value` CSV view of a report."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric,key,value\n")
        for k, v in sorted(report.recall_at_k.items()):
            fh.write(f"recall_at_k,{k},{v!r}\n")
        if report.rank1 is not None:
            fh.write(f"rank1,,{report.rank1!r}\n")
        for far, tar in sorted(report.tar_at_far.items()):
            fh.write(f"tar_at_far,{far!r},{tar!r}\n")
        if report.concentration is not None:
            fh.write(f"concentration,mean,{report.concentration[0]!r}\n")
            fh.write(f"concentration,variance,{report.concentration[1]!r}\n")


def write_scatter_csv(path, points: np.ndarray) -> None:
    """Hardest-pair scatter CSV: one `sn_max,sp_min` line per point (lossless floats)."""
    write_csv(path, "sn_max,sp_min", "%r,%r\n", points)


def write_report_json(path, report: MetricsReport) -> None:
    doc = {
        "recall_at_k": {str(k): v for k, v in report.recall_at_k.items()},
        "rank1": report.rank1,
        "tar_at_far": {repr(k): v for k, v in report.tar_at_far.items()},
        "concentration": report.concentration,
        "n_scatter_points": None
        if report.pair_scatter is None
        else int(report.pair_scatter.shape[0]),
    }
    text = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_sweep_csv(path, axis: str, rows) -> None:
    """`axis,recall_at_1` CSV of sweep rows (lossless floats)."""
    write_csv(path, f"{axis},recall_at_1", "%r,%r\n", rows)
