"""The block-wise CSV writers write the same bytes as the per-row reference."""

import numpy as np
import pytest

import reference
from pairsim import dataio, evalkit, geometry
from pairsim.engine import RunRecord, init_model

# Signed zero, the smallest subnormal, extremes of exponent, a short
# decimal and a half: each formats differently under %g and repr.
SPECIAL = [-0.0, 5e-324, 1e300, 1e-05, 123456.5]
NON_FINITE = [np.nan, np.inf, -np.inf]


def _columns(values, n_cols):
    """A matrix whose columns hold ``values`` in rotated orders."""
    base = np.array(values, dtype=np.float64)
    return np.column_stack([np.roll(base, j) for j in range(n_cols)])


def _same_bytes(tmp_path, writer, reference_writer, *args):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "reference.csv"
    writer(ours, *args)
    reference_writer(theirs, *args)
    assert ours.read_bytes() == theirs.read_bytes()
    return ours.read_text()


def _record(columns):
    n = columns.shape[0]
    return RunRecord(
        iteration=np.arange(n), mean_sp=columns[:, 0], mean_sn=columns[:, 1],
        loss=columns[:, 2], lr=columns[:, 3], model=init_model(0, din=2, embed_dim=2),
    )


class TestGradientFieldCsv:
    def test_field_larger_than_one_block(self, tmp_path):
        rows = geometry.gradient_field("circle", 256.0, 0.25, geometry.GridSpec(resolution=70))
        assert rows.shape[0] == 4900 > dataio.CSV_ROW_BLOCK
        text = _same_bytes(
            tmp_path, geometry.write_gradient_field_csv, reference.write_gradient_field_csv, rows
        )
        assert len(text.splitlines()) == 4901

    def test_special_values(self, tmp_path):
        rows = _columns(SPECIAL + NON_FINITE, 5)
        _same_bytes(
            tmp_path, geometry.write_gradient_field_csv, reference.write_gradient_field_csv, rows
        )


class TestScatterCsv:
    def test_empty_scatter_is_header_only(self, tmp_path):
        text = _same_bytes(
            tmp_path, evalkit.write_scatter_csv, reference.write_scatter_csv, np.empty((0, 2))
        )
        assert text == "sn_max,sp_min\n"

    def test_special_values(self, tmp_path):
        text = _same_bytes(
            tmp_path, evalkit.write_scatter_csv, reference.write_scatter_csv,
            _columns(SPECIAL + NON_FINITE, 2),
        )
        assert "np." not in text


class TestRecordCsv:
    def test_special_values(self, tmp_path):
        record = _record(_columns(SPECIAL + NON_FINITE, 4))
        _same_bytes(tmp_path, dataio.save_record, reference.save_record, record)

    def test_empty_record_is_header_only(self, tmp_path):
        text = _same_bytes(
            tmp_path, dataio.save_record, reference.save_record, _record(np.empty((0, 4)))
        )
        assert text == dataio.RECORD_HEADER + "\n"


class TestDatasetCsv:
    def test_generated_dataset(self, tmp_path):
        ds = dataio.gen_clusters(dataio.ClusterSpec(n_classes=5, per_class=9, dim=7, seed=2))
        _same_bytes(tmp_path, dataio.save_dataset, reference.save_dataset, ds)

    def test_round_trip_is_exact(self, tmp_path):
        # Labels past 2**53 would lose digits if they went through float64.
        labels = np.array([0, 7, 2**53 + 1, 2**63 - 1, 3], dtype=np.int64)
        ds = dataio.LabeledDataset(features=_columns(SPECIAL, 3), labels=labels)
        path = tmp_path / "ds.csv"
        _same_bytes(tmp_path, dataio.save_dataset, reference.save_dataset, ds)
        dataio.save_dataset(path, ds)
        back = dataio.load_dataset(path)
        assert back.labels.tolist() == labels.tolist()
        assert back.features.tobytes() == ds.features.tobytes()


@pytest.mark.parametrize("block", [1, 2, 3, 7, 8])
def test_every_block_size_gives_the_same_bytes(tmp_path, monkeypatch, block):
    # Seven rows: blocks that divide them, leave a remainder, or hold them all.
    monkeypatch.setattr(dataio, "CSV_ROW_BLOCK", block)
    values = _columns(SPECIAL + [0.25, -2.5], 4)
    _same_bytes(tmp_path, dataio.save_record, reference.save_record, _record(values))
    labels = np.array([3, 0, 2**62, 1, 5, 4, 9])
    ds = dataio.LabeledDataset(features=values, labels=labels)
    _same_bytes(tmp_path, dataio.save_dataset, reference.save_dataset, ds)
    _same_bytes(
        tmp_path, geometry.write_gradient_field_csv, reference.write_gradient_field_csv,
        _columns(SPECIAL + [0.25, -2.5], 5),
    )
