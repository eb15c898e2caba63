"""Batch and resolution sweeps: points, tables, CSV.

What the sweeps *show* (how latency moves with batch and image size)
compares measured times, so no test asserts it; ``orpheus bench sweep``
prints it.
"""

import pytest

from repro.bench.sweeps import batch_sweep, resolution_sweep


@pytest.fixture(scope="module")
def wrn_batch():
    return batch_sweep("wrn-40-2", batches=(1, 2), image_size=16,
                       repeats=2, warmup=1)


class TestBatchSweep:
    def test_one_point_per_batch(self, wrn_batch):
        assert [p.batch for p in wrn_batch.points] == [1, 2]
        assert all(len(p.times) == 2 for p in wrn_batch.points)

    def test_per_item_defined(self, wrn_batch):
        point = wrn_batch.points[1]
        assert point.per_item_ms == pytest.approx(
            point.median * 1e3 / 2, rel=1e-9)

    def test_table_and_csv(self, wrn_batch):
        assert "latency vs batch" in wrn_batch.table()
        lines = wrn_batch.csv().splitlines()
        assert lines[0] == "batch,median_ms,per_item_ms"
        assert len(lines) == 3

    def test_scaling_factor(self, wrn_batch):
        first, last = wrn_batch.points[0], wrn_batch.points[-1]
        assert wrn_batch.scaling_factor() == pytest.approx(
            last.per_item_ms / first.per_item_ms, rel=1e-9)


class TestResolutionSweep:
    def test_one_point_per_image_size(self):
        result = resolution_sweep("wrn-40-2", image_sizes=(8, 16),
                                  repeats=1, warmup=0)
        assert [p.image_size for p in result.points] == [8, 16]

    def test_backend_parameter(self):
        result = resolution_sweep("wrn-40-2", image_sizes=(16,),
                                  backend="direct", repeats=1, warmup=0)
        assert result.points[0].median > 0
