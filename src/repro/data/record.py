"""Core data types: :class:`Record` and :class:`Dataset`.

A record is a bag of named attribute values plus an identifier; a dataset is
an ordered collection of records sharing a schema.  The serialization format
(``"attr1 is value1; attr2 is value2"``) follows the paper's imputation case
study verbatim, so prompts built from records read the same way the paper's
prompts did.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.exceptions import DatasetError


@dataclass
class Record:
    """A single data item with named attributes.

    Attributes:
        record_id: stable identifier, unique within its dataset.
        attributes: attribute name → value mapping (values are stored as-is;
            serialization stringifies them).
    """

    record_id: str
    attributes: dict[str, Any] = field(default_factory=dict)

    def get(self, attribute: str, default: Any = None) -> Any:
        """Return one attribute value (or ``default`` when absent)."""
        return self.attributes.get(attribute, default)

    def __getitem__(self, attribute: str) -> Any:
        return self.attributes[attribute]

    def __contains__(self, attribute: str) -> bool:
        return attribute in self.attributes

    def without(self, attribute: str) -> "Record":
        """Return a copy of this record with one attribute removed."""
        updated = {key: value for key, value in self.attributes.items() if key != attribute}
        return Record(record_id=self.record_id, attributes=updated)

    def serialize(self, *, exclude: Iterable[str] = ()) -> str:
        """Serialize the record as ``"a1 is v1; a2 is v2"`` (paper Section 3.4)."""
        excluded = set(exclude)
        parts = [
            f"{attribute} is {value}"
            for attribute, value in self.attributes.items()
            if attribute not in excluded and value is not None
        ]
        return "; ".join(parts)


class Dataset:
    """An ordered, named collection of :class:`Record` objects."""

    def __init__(self, records: Iterable[Record], *, name: str = "dataset") -> None:
        self.name = name
        self._records = list(records)
        ids = [record.record_id for record in self._records]
        if len(set(ids)) != len(ids):
            raise DatasetError(f"dataset {name!r} contains duplicate record ids")
        self._by_id = {record.record_id: record for record in self._records}

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __getitem__(self, index: int) -> Record:
        return self._records[index]

    def get(self, record_id: str) -> Record:
        """Return the record with the given id."""
        try:
            return self._by_id[record_id]
        except KeyError as exc:
            raise DatasetError(f"no record with id {record_id!r} in dataset {self.name!r}") from exc

    @property
    def records(self) -> list[Record]:
        """The records, in insertion order (copy; mutating it is safe)."""
        return list(self._records)

    # -- schema ---------------------------------------------------------------

    @property
    def attributes(self) -> list[str]:
        """Union of attribute names across all records, in first-seen order."""
        seen: dict[str, None] = {}
        for record in self._records:
            for attribute in record.attributes:
                seen.setdefault(attribute, None)
        return list(seen)

    def values(self, attribute: str) -> list[Any]:
        """All values of one attribute, skipping records where it is missing."""
        return [
            record.attributes[attribute]
            for record in self._records
            if attribute in record.attributes and record.attributes[attribute] is not None
        ]

    # -- transformations -------------------------------------------------------

    def filter(self, predicate: Callable[[Record], bool], *, name: str | None = None) -> "Dataset":
        """Return a new dataset containing the records matching ``predicate``."""
        return Dataset(
            (record for record in self._records if predicate(record)),
            name=name or f"{self.name}-filtered",
        )

    def sample(self, n: int, *, seed: int = 0) -> "Dataset":
        """Return a reproducible random sample of ``n`` records."""
        if n > len(self._records):
            raise DatasetError(
                f"cannot sample {n} records from dataset of size {len(self._records)}"
            )
        rng = random.Random(seed)
        chosen = rng.sample(self._records, n)
        return Dataset(chosen, name=f"{self.name}-sample{n}")

    def shuffled(self, *, seed: int = 0) -> "Dataset":
        """Return a new dataset with the records in a reproducible shuffled order."""
        rng = random.Random(seed)
        records = list(self._records)
        rng.shuffle(records)
        return Dataset(records, name=f"{self.name}-shuffled")
