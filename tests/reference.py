"""Per-vector and per-query references for the batched code paths.

The grouping helpers build one anchor's SimilarityGroup from raw vectors,
one cosine at a time, independently of the score matrix and dense rows
that ``grads.backprop_to_params`` uses. Tests compare the batched
kernels against them; tests/test_simcore.py keeps the reference honest.

The retrieval helpers rank and scan one query at a time over the whole
gallery, independently of the row blocks and rank counting in
``evalkit``.

The CSV writers format one row at a time with f-strings and ``repr``,
independently of the block-wise ``%`` formatting in ``dataio.write_csv``;
the program's writers must produce the same bytes.

The dataset reader parses one line at a time with ``int`` and ``float``,
the checkpoint writer is a plain ``json.dump``, and the P x K sampler
regroups the labels on every call: the program's numpy reader, spliced
checkpoint writer and once-per-run grouping must give the same arrays,
bytes and draws.

The reduced circle kernel keeps the m-form slopes that the program's
alpha-form kernel replaced; in reduced mode the two must agree.
"""

from __future__ import annotations

import json

import numpy as np

from pairsim.simcore import SimilarityGroup


def _as_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("degenerate feature: expected a 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("degenerate feature: non-finite entries")
    return v


def l2_normalize(v) -> np.ndarray:
    """Scale ``v`` to unit Euclidean norm, preserving direction."""
    v = _as_vector(v)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("degenerate feature: zero norm")
    return v / norm


def cosine(a, b) -> float:
    """Cosine similarity of two non-zero vectors, clamped to [-1, 1]."""
    return float(np.clip(l2_normalize(a) @ l2_normalize(b), -1.0, 1.0))


def class_similarities(x, weights, label: int) -> SimilarityGroup:
    """Similarity group of ``x`` against an N x D class-weight matrix.

    sp is the single cosine against the target row, sn the N-1 cosines
    against the non-target rows in ascending row order.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] < 2:
        raise ValueError("class weights must be an N x D matrix with N >= 2")
    n = w.shape[0]
    if not 0 <= label < n:
        raise ValueError(f"label {label} out of range [0, {n})")
    xh = l2_normalize(x)
    norms = np.linalg.norm(w, axis=1)
    if not np.all(np.isfinite(w)) or np.any(norms == 0.0):
        raise ValueError("degenerate feature: bad class-weight row")
    scores = np.clip((w / norms[:, None]) @ xh, -1.0, 1.0)
    mask = np.arange(n) != label
    return SimilarityGroup(sp=scores[label : label + 1], sn=scores[mask])


def pairwise_similarities(anchor, positives, negatives) -> SimilarityGroup:
    """Similarity group of an anchor against explicit positive/negative sets.

    The caller is responsible for excluding the anchor itself from both sets.
    """
    if len(positives) == 0 or len(negatives) == 0:
        raise ValueError("empty similarity side")
    ah = l2_normalize(anchor)
    sp = np.array([np.clip(ah @ l2_normalize(p), -1.0, 1.0) for p in positives])
    sn = np.array([np.clip(ah @ l2_normalize(q), -1.0, 1.0) for q in negatives])
    return SimilarityGroup(sp=sp, sn=sn)


def recall_at_k_bruteforce(embeddings, labels, ks) -> dict:
    """R@K from a full ranking per query: score descending, ties by
    ascending index, self excluded."""
    e = np.asarray(embeddings, dtype=np.float64)
    e = e / np.linalg.norm(e, axis=1, keepdims=True)
    labels = np.asarray(labels)
    n = labels.size
    index = np.arange(n)
    hits = dict.fromkeys(ks, 0)
    for q in range(n):
        score = np.clip(e @ e[q], -1.0, 1.0)
        order = np.lexsort((index, -score))
        same = labels[order[order != q]] == labels[q]
        for k in ks:
            hits[k] += bool(same[:k].any())
    return {k: hits[k] / n for k in ks}


def hardest_pairs(emb, labels):
    """(max sn, min sp) per anchor that has a positive and a negative,
    from the full masked score matrix; returns (points, skipped)."""
    labels = np.asarray(labels)
    sim = np.clip(emb @ emb.T, -1.0, 1.0)
    same = labels[:, None] == labels[None, :]
    positive = same & ~np.eye(labels.size, dtype=bool)
    sn_max = np.where(~same, sim, -np.inf).max(axis=1)
    sp_min = np.where(positive, sim, np.inf).min(axis=1)
    usable = positive.any(axis=1) & (~same).any(axis=1)
    points = np.column_stack([sn_max, sp_min])[usable]
    return points, int(np.count_nonzero(~usable))


def write_gradient_field_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sn,sp,d_sn,d_sp,loss\n")
        for sn, sp, d_sn, d_sp, loss in rows:
            fh.write(f"{sn:.6g},{sp:.6g},{d_sn:.6g},{d_sp:.6g},{loss:.6g}\n")


def write_scatter_csv(path, points) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sn_max,sp_min\n")
        for sn, sp in points:
            fh.write(f"{float(sn)!r},{float(sp)!r}\n")


def save_record(path, record) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iter,mean_sp,mean_sn,loss,lr\n")
        for i in range(record.iteration.size):
            fh.write(
                f"{int(record.iteration[i])},"
                f"{float(record.mean_sp[i])!r},{float(record.mean_sn[i])!r},"
                f"{float(record.loss[i])!r},{float(record.lr[i])!r}\n"
            )


def save_dataset(path, dataset) -> None:
    din = dataset.features.shape[1]
    header = "label," + ",".join(f"f{i}" for i in range(din))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for label, row in zip(dataset.labels, dataset.features):
            fh.write(str(int(label)) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def load_dataset(path):
    """(features, labels) of a dataset CSV; errors name the line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("no rows")
    header = lines[0].split(",")
    if header[0] != "label" or len(header) < 2:
        raise ValueError("line 1: bad header, expected 'label,f0,...'")
    width = len(header)
    if not lines[1:]:
        raise ValueError("no rows")
    features, labels = [], []
    for lineno, line in enumerate(lines[1:], start=2):
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


def save_checkpoint(path, model, config_echo=None) -> None:
    doc = {
        "format": "pairsim-ckpt-v1",
        "din": model.din,
        "embed_dim": model.embed_dim,
        "hidden": model.hidden,
        "n_classes": model.n_classes,
        "w1": model.w1.tolist(),
        "w2": None if model.w2 is None else model.w2.tolist(),
        "class_weights": None
        if model.class_weights is None
        else model.class_weights.tolist(),
        "config": config_echo or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def pk_sample(labels, p: int, k: int, rng) -> np.ndarray:
    """P distinct classes x K distinct samples, grouping the labels anew."""
    classes = np.unique(labels)
    if classes.size < p:
        raise ValueError(f"need {p} classes, dataset has {classes.size}")
    chosen = rng.choice(classes, size=p, replace=False)
    out = []
    for c in chosen:
        members = np.flatnonzero(labels == c)
        if members.size < k:
            raise ValueError(f"class {c} has {members.size} samples, need {k}")
        out.append(rng.choice(members, size=k, replace=False))
    return np.concatenate(out)


def reduced_circle_grad(g, p):
    """(value, d_sp, d_sn, z) of the reduced circle loss in its m-form.

    The slopes are written out for reduced mode, gamma * (sn + m) and
    gamma * (sp - 1 - m), and cut-off entries are zeroed by hand, where
    the program's kernel applies gamma * an and -gamma * ap in either
    mode. The logits and the row softmax are computed as in the program,
    so value, z and d_sn must agree bit for bit.
    """
    alpha_p = np.maximum(p.op - g.sp, 0.0)
    alpha_n = np.maximum(g.sn - p.on, 0.0)
    d_sn = p.gamma * alpha_n * (g.sn - p.dn)
    d_sp = -p.gamma * alpha_p * (g.sp - p.dp)
    lse = 0.0
    for logits in (d_sn, d_sp):
        shift = np.max(logits, axis=-1, keepdims=True)
        logits -= shift
        np.exp(logits, out=logits)
        total = np.sum(logits, axis=-1, keepdims=True)
        logits /= total
        lse = lse + (shift + np.log(total))[..., 0]
    value = np.logaddexp(0.0, lse)
    z = -np.expm1(-value)
    scale = (z * p.gamma)[..., None]
    d_sn *= scale * (g.sn + p.m)
    d_sn[alpha_n <= 0.0] = 0.0
    d_sp *= scale * (g.sp - 1.0 - p.m)
    d_sp[alpha_p <= 0.0] = 0.0
    return value, d_sp, d_sn, z
