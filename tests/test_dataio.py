import json

import numpy as np
import pytest

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
