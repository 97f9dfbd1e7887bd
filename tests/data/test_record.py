"""Tests for Record and Dataset."""

from __future__ import annotations

import pytest

from repro.data.record import Dataset, Record
from repro.exceptions import DatasetError


def make_dataset() -> Dataset:
    return Dataset(
        [
            Record("r1", {"name": "Garden Table", "city": "Austin", "price": 10}),
            Record("r2", {"name": "Corner House", "city": "Chicago", "price": 20}),
            Record("r3", {"name": "Palace Grill", "city": "Austin", "price": None}),
        ],
        name="test",
    )


class TestRecord:
    def test_get_and_contains(self):
        record = Record("r1", {"name": "X"})
        assert record.get("name") == "X"
        assert record.get("missing", "default") == "default"
        assert "name" in record
        assert record["name"] == "X"

    def test_without_removes_attribute(self):
        record = Record("r1", {"a": 1, "b": 2})
        assert "a" not in record.without("a")
        assert "a" in record  # original unchanged

    def test_serialize_matches_paper_format(self):
        record = Record("r1", {"name": "Garden Table", "city": "Austin"})
        assert record.serialize() == "name is Garden Table; city is Austin"

    def test_serialize_excludes_and_skips_none(self):
        record = Record("r1", {"name": "X", "city": None, "price": 3})
        assert record.serialize(exclude=("price",)) == "name is X"


class TestDataset:
    def test_len_iter_getitem(self):
        dataset = make_dataset()
        assert len(dataset) == 3
        assert [record.record_id for record in dataset] == ["r1", "r2", "r3"]
        assert dataset[1].record_id == "r2"

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DatasetError):
            Dataset([Record("a", {}), Record("a", {})])

    def test_get_by_id(self):
        dataset = make_dataset()
        assert dataset.get("r2")["city"] == "Chicago"
        with pytest.raises(DatasetError):
            dataset.get("missing")

    def test_attributes_union_in_order(self):
        dataset = make_dataset()
        assert dataset.attributes == ["name", "city", "price"]

    def test_values_skips_missing_and_none(self):
        dataset = make_dataset()
        assert dataset.values("price") == [10, 20]

    def test_filter(self):
        dataset = make_dataset()
        austin = dataset.filter(lambda record: record["city"] == "Austin")
        assert len(austin) == 2

    def test_sample_is_reproducible(self):
        dataset = make_dataset()
        first = [record.record_id for record in dataset.sample(2, seed=1)]
        second = [record.record_id for record in dataset.sample(2, seed=1)]
        assert first == second

    def test_sample_too_large_raises(self):
        with pytest.raises(DatasetError):
            make_dataset().sample(10)

    def test_shuffled_keeps_records(self):
        dataset = make_dataset()
        shuffled = dataset.shuffled(seed=3)
        assert {record.record_id for record in shuffled} == {"r1", "r2", "r3"}
