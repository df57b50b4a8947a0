import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from pairsim import dataio
from pairsim.dataio import (
    ClusterSpec,
    LabeledDataset,
    gen_clusters,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
    save_record,
)
from pairsim.engine import RunRecord, init_model


class TestGenClusters:
    def test_deterministic(self):
        spec = ClusterSpec(4, 5, 8, seed=3)
        a, b = gen_clusters(spec), gen_clusters(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_zero_noise_collapses_classes(self):
        ds = gen_clusters(ClusterSpec(3, 4, 6, noise_sigma=0.0, seed=1))
        for c in range(3):
            rows = ds.features[ds.labels == c]
            assert np.all(rows == rows[0])

    def test_centers_on_sphere(self):
        ds = gen_clusters(ClusterSpec(5, 1, 16, center_scale=2.5, noise_sigma=0.0, seed=2))
        np.testing.assert_allclose(np.linalg.norm(ds.features, axis=1), 2.5)

    def test_two_tight_clusters_separable(self):
        ds = gen_clusters(ClusterSpec(2, 10, 2, noise_sigma=1e-4, seed=5))
        c0 = ds.features[ds.labels == 0].mean(axis=0)
        c1 = ds.features[ds.labels == 1].mean(axis=0)
        assert np.linalg.norm(c0 - c1) > 0.1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(1, 5, 8)
        with pytest.raises(ValueError):
            ClusterSpec(4, 5, 8, noise_sigma=-0.1)


class TestDatasetRoundTrip:
    def test_lossless(self, tmp_path):
        ds = gen_clusters(ClusterSpec(3, 4, 5, seed=11))
        path = tmp_path / "data.csv"
        save_dataset(path, ds)
        back = load_dataset(path)
        np.testing.assert_array_equal(ds.features, back.features)
        np.testing.assert_array_equal(ds.labels, back.labels)

    def test_header_format(self, tmp_path):
        ds = gen_clusters(ClusterSpec(2, 2, 3, seed=0))
        path = tmp_path / "data.csv"
        save_dataset(path, ds)
        assert path.read_text().splitlines()[0] == "label,f0,f1,f2"

    def test_missing_column_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_dataset(path)

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0\n0,1.0\n1,abc\n")
        with pytest.raises(ValueError, match="line 3"):
            load_dataset(path)

    @pytest.mark.parametrize("label", [2**63, 2**64])
    def test_oversized_label_reports_line(self, tmp_path, label):
        path = tmp_path / "bad.csv"
        path.write_text(f"label,f0\n0,1.0\n{label},2.0\n")
        with pytest.raises(ValueError, match="line 3: label .* int64"):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no rows"):
            load_dataset(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("label,f0\n")
        with pytest.raises(ValueError, match="no rows"):
            load_dataset(path)


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path):
        model = init_model(5, din=4, embed_dim=6, n_classes=3, hidden=8)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, model, {"loss": "circle"})
        back, echo = load_checkpoint(p1)
        assert echo == {"loss": "circle"}
        save_checkpoint(p2, back, echo)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_wrong_din(self, tmp_path):
        model = init_model(5, din=4, embed_dim=6)
        path = tmp_path / "m.json"
        save_checkpoint(path, model)
        with pytest.raises(ValueError, match="Din"):
            load_checkpoint(path, expect_din=7)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "m.json"
        save_checkpoint(path, init_model(5, din=4, embed_dim=6))
        doc = json.loads(path.read_text())
        del doc["w2"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="lacks keys \\['w2'\\]"):
            load_checkpoint(path)

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="JSON object"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "pairsim-ckpt-v0"}\n')
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(path)


class TestRecord:
    def test_row_count_and_roundtrip_values(self, tmp_path):
        n = 7
        rec = RunRecord(
            iteration=np.arange(n),
            mean_sp=np.linspace(0.1, 0.9, n),
            mean_sn=np.linspace(0.5, -0.1, n),
            loss=np.geomspace(3.0, 1e-4, n),
            lr=np.full(n, 0.05),
            model=init_model(0, din=2, embed_dim=2),
        )
        path = tmp_path / "rec.csv"
        save_record(path, rec)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,mean_sp,mean_sn,loss,lr"
        assert len(lines) == n + 1
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(parsed[:, 1], rec.mean_sp)
        np.testing.assert_array_equal(parsed[:, 3], rec.loss)


class TestLabeledDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LabeledDataset(features=np.zeros((3, 2)), labels=np.zeros(2, dtype=int))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, bad):
        features = np.zeros((3, 2))
        features[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite feature in row 2"):
            LabeledDataset(features=features, labels=np.array([0, 1, 1]))


def _loaded(load, path):
    """What a dataset reader makes of ``path``: the dataset's bits, or its error."""
    try:
        ds = load(path)
        if isinstance(ds, tuple):
            ds = LabeledDataset(*ds)
    except ValueError as exc:
        return ("error", str(exc))
    f, y = ds.features, ds.labels
    return ("ok", f.dtype.str, f.shape, f.tobytes(), y.dtype.str, y.shape, y.tobytes())


# Cells over the fast path's alphabet, and cells outside it that float()
# or numpy's reader treat specially.
PLAIN_CELLS = st.text(alphabet="0123456789+-.eE", max_size=6)
ODD_CELLS = st.sampled_from(
    ["#", "1#2", " 1.5", "1.5 ", "\t2", "1_0", "nan", "-nan", "inf", "1e999", "\x1f1.5",
     "1.5\x1f", "\u0661", "0x1", "", "1,5"]
)
ODD_LABELS = st.sampled_from(
    ["1.0", "+3", "-0", "-1", "1_0", " 2", "1e3", "", "#1", str(2**63 - 1), str(2**63),
     str(2**64)]
)


def _edit_rows(lines, data):
    """One random edit, in place, to the data lines of a dataset CSV."""
    row = data.draw(st.integers(1, len(lines) - 1))
    cells = lines[row].split(",")
    kind = data.draw(st.sampled_from(
        ["plain_cell", "odd_cell", "label", "comment", "blank", "drop_cell", "extra_cell"]
    ))
    if kind in ("plain_cell", "odd_cell"):
        col = data.draw(st.integers(min(1, len(cells) - 1), len(cells) - 1))
        cells[col] = data.draw(PLAIN_CELLS if kind == "plain_cell" else ODD_CELLS)
    elif kind == "label":
        cells[0] = data.draw(st.one_of(ODD_LABELS, PLAIN_CELLS))
    elif kind == "comment":
        lines.insert(row, "#" + lines[row])
    elif kind == "blank":
        lines.insert(row, data.draw(st.sampled_from(["", " ", ","])))
    elif kind == "drop_cell":
        del cells[data.draw(st.integers(0, len(cells) - 1))]
    else:
        cells.append(data.draw(st.one_of(PLAIN_CELLS, ODD_CELLS)))
    if kind not in ("comment", "blank"):
        lines[row] = ",".join(cells)


class TestFastDatasetReader:
    """load_dataset's numpy reader against the line-by-line reference."""

    @staticmethod
    def _write(path, ds):
        save_dataset(path, ds)
        return path.read_text().splitlines()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_bits_or_same_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "data.csv"
        ds = gen_clusters(ClusterSpec(3, 2, 3, seed=data.draw(st.integers(0, 3))))
        ds.features[0] = [-0.0, 5e-324, 1e300]
        lines = self._write(path, ds)
        for _ in range(data.draw(st.integers(0, 3))):
            _edit_rows(lines, data)
        newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        path.write_bytes((newline.join(lines) + newline).encode())
        assert _loaded(load_dataset, path) == _loaded(reference.load_dataset, path)

    def test_clean_file_takes_the_fast_path(self, tmp_path, monkeypatch):
        ds = gen_clusters(ClusterSpec(4, 3, 5, seed=2))
        ds.features[1, :4] = [-0.0, 5e-324, 1e300, 1e-05]
        ds.labels[-1] = 2**63 - 1
        path = tmp_path / "data.csv"
        save_dataset(path, ds)

        def refuse(rows, width):
            raise AssertionError("the line parser ran")

        monkeypatch.setattr(dataio, "_parse_rows", refuse)
        assert _loaded(load_dataset, path) == _loaded(reference.load_dataset, path)
        assert _loaded(load_dataset, path)[0] == "ok"

    @pytest.mark.parametrize(
        "text",
        [
            "0,1.0,2.0\n#1,1.5,2.0\n",  # a comment marker
            "0,1.0,2.0\n\n1,1.5,2.0\n",  # a blank line
            "0,1.0,2.0\r\n1,1.5,2.0\r\n",  # CRLF
            "0,1.0,2.0\n1,1_0,2.0\n",
            "0,1.0,2.0\n1, 1.5,2.0\n",
            "0,1.0,2.0\n1,nan,2.0\n",
            "0,1.0,2.0\n1,\x1f1.5,2.0\n",  # numpy's reader skips \x1f, float() does not
            "0,1.0,2.0\n1.0,1.5,2.0\n",
            "0,1.0,2.0\n+3,1.5,2.0\n",
            "0,1.0,2.0\n-0,1.5,2.0\n",
            "0,1.0,2.0\n-1,1.5,2.0\n",
            f"0,1.0,2.0\n{2**63},1.5,2.0\n",
            f"0,1.0,2.0\n{2**63 - 1},1.5,2.0\n",
            "0,1.0,2.0\n1,1.5\n",  # ragged rows
            "0,1.0,2.0\n1,1.5,2.0,3.0\n",
            "0,1.0,2.0,3.0\n1,1.5\n",
        ],
    )
    def test_listed_mutations(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(("label,f0,f1\n" + text).encode())
        assert _loaded(load_dataset, path) == _loaded(reference.load_dataset, path)


class TestCheckpointWriter:
    """save_checkpoint writes the bytes of a plain json.dump."""

    @pytest.mark.parametrize("hidden", [None, 6])
    @pytest.mark.parametrize("n_classes", [None, 3])
    @pytest.mark.parametrize(
        "config", [None, {}, {"loss": "circle", "gamma": 1e300, "data": "a\"b\\c\u00e9",
                              "nested": {"z": [1, -0.0, None], "a": {}}}]
    )
    def test_bytes_match_json_dump(self, tmp_path, hidden, n_classes, config):
        model = init_model(7, din=4, embed_dim=5, n_classes=n_classes, hidden=hidden)
        model.w1[0, :3] = [-0.0, 5e-324, 1e300]
        if n_classes is not None:
            model.class_weights[-1, -2:] = [-1e-300, 2.0]
        ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
        save_checkpoint(ours, model, config)
        reference.save_checkpoint(theirs, model, config)
        assert ours.read_bytes() == theirs.read_bytes()

    def test_single_column_matrix(self, tmp_path):
        model = init_model(1, din=1, embed_dim=2, n_classes=2)
        ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
        save_checkpoint(ours, model, {"k": 1})
        reference.save_checkpoint(theirs, model, {"k": 1})
        assert ours.read_bytes() == theirs.read_bytes()

    @pytest.mark.parametrize("key", ["w1", "w2", "class_weights"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_refused(self, tmp_path, key, bad):
        model = init_model(7, din=4, embed_dim=5, n_classes=3, hidden=6)
        getattr(model, key)[1, 2] = bad
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match=f"checkpoint {key} must be a non-empty, finite"):
            save_checkpoint(path, model)
        assert not path.exists()
