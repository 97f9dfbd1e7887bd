"""Synthetic citation corpus for the entity-resolution case study (Table 3).

The paper uses the validation slice of the Magellan DBLP–Google-Scholar
benchmark: pairs of bibliographic citations labelled duplicate / not
duplicate.  That data is not redistributable here, so this module generates a
corpus with the same structure:

* a set of underlying *papers* (entities), each cited by several differently
  formatted *citation records* (duplicates);
* corruptions of increasing severity — venue abbreviations, author-initial
  forms, truncated titles, dropped years, character typos — so that some
  duplicate pairs are easy for a noisy matcher and others are only reachable
  through a cleaner intermediate record (which is exactly the structure that
  lets transitivity help);
* a labelled pair set biased towards *hard* pairs (textually similar
  non-duplicates and dissimilar duplicates), like the Magellan slices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.data.record import Dataset, Record
from repro.exceptions import DatasetError
from repro.llm.oracle import Oracle

_FIRST_NAMES = [
    "Alice", "Bharat", "Carlos", "Dana", "Elena", "Feng", "Grace", "Hiro",
    "Irene", "Jamal", "Katrin", "Luis", "Maria", "Nikhil", "Olga", "Pedro",
    "Qing", "Rahul", "Sofia", "Tomas", "Uma", "Victor", "Wei", "Yuki",
]
_LAST_NAMES = [
    "Anderson", "Bhattacharya", "Chen", "Dimitrov", "Eriksson", "Fernandez",
    "Gupta", "Hernandez", "Ivanov", "Johnson", "Kumar", "Larsen", "Martinez",
    "Nakamura", "Olsen", "Patel", "Quintero", "Rodriguez", "Schmidt", "Tanaka",
    "Ueda", "Vasquez", "Wang", "Zhang",
]
_TOPIC_WORDS = [
    "adaptive", "approximate", "crowdsourced", "declarative", "distributed",
    "efficient", "incremental", "indexing", "interactive", "learned",
    "parallel", "probabilistic", "robust", "scalable", "streaming",
    "transactional", "versioned", "federated", "secure", "temporal",
]
_OBJECT_WORDS = [
    "query processing", "entity resolution", "data cleaning", "join algorithms",
    "view maintenance", "schema matching", "data integration", "graph analytics",
    "columnar storage", "workload forecasting", "index selection", "data discovery",
    "provenance tracking", "cardinality estimation", "concurrency control",
    "materialized views", "stream processing", "data imputation", "record linkage",
    "knowledge bases",
]
_VENUES = [
    ("Proceedings of the VLDB Endowment", "PVLDB"),
    ("ACM SIGMOD International Conference on Management of Data", "SIGMOD"),
    ("IEEE International Conference on Data Engineering", "ICDE"),
    ("Conference on Innovative Data Systems Research", "CIDR"),
    ("International Conference on Extending Database Technology", "EDBT"),
    ("ACM Transactions on Database Systems", "TODS"),
]


@dataclass(frozen=True)
class LabeledPair:
    """A labelled citation pair, mirroring one Magellan benchmark question."""

    left_id: str
    right_id: str
    left_text: str
    right_text: str
    is_duplicate: bool


@dataclass
class CitationCorpus:
    """A synthetic citation corpus with duplicate ground truth.

    Attributes:
        dataset: the citation records (attributes: title, authors, venue, year).
        entity_of: record id → underlying paper (entity) id.
        pairs: labelled pairs sampled to resemble the Magellan validation slice.
    """

    dataset: Dataset
    entity_of: dict[str, str]
    pairs: list[LabeledPair] = field(default_factory=list)

    def texts(self) -> list[str]:
        """Citation texts for every record, in dataset order."""
        return [render_citation(record) for record in self.dataset]

    def oracle(self) -> Oracle:
        """Oracle that knows which citation texts co-refer."""
        oracle = Oracle()
        oracle.register_entities(
            {render_citation(record): self.entity_of[record.record_id] for record in self.dataset}
        )
        return oracle


def render_citation(record: Record) -> str:
    """Serialize a citation record into a single citation string."""
    title = record.get("title", "")
    authors = record.get("authors", "")
    venue = record.get("venue", "")
    year = record.get("year", "")
    parts = [part for part in (authors, title, venue, str(year) if year else "") if part]
    return ". ".join(parts)


def _make_author(rng: random.Random) -> tuple[str, str]:
    return rng.choice(_FIRST_NAMES), rng.choice(_LAST_NAMES)


def _typo(text: str, rng: random.Random) -> str:
    """Introduce a single character-level typo."""
    if len(text) < 4:
        return text
    index = rng.randrange(1, len(text) - 1)
    kind = rng.randrange(3)
    if kind == 0:
        return text[:index] + text[index + 1 :]
    if kind == 1:
        return text[:index] + text[index] + text[index:]
    return text[: index - 1] + text[index] + text[index - 1] + text[index + 1 :]


def _corrupt_citation(
    base: dict[str, object], severity: int, rng: random.Random
) -> dict[str, object]:
    """Produce a corrupted variant of a base citation.

    Severity 0 keeps the record clean; each additional level applies one more
    corruption drawn from the usual bibliographic-variation playbook.
    """
    record = dict(base)
    corruptions = [
        "abbreviate_venue",
        "author_initials",
        "truncate_title",
        "drop_year",
        "typo_title",
        "drop_last_author",
        "lowercase_title",
    ]
    rng.shuffle(corruptions)
    for corruption in corruptions[:severity]:
        if corruption == "abbreviate_venue":
            for full, abbreviation in _VENUES:
                if record["venue"] == full:
                    record["venue"] = abbreviation
                    break
        elif corruption == "author_initials":
            authors = str(record["authors"]).split(", ")
            record["authors"] = ", ".join(
                f"{name.split()[0][0]}. {name.split()[-1]}" if " " in name else name
                for name in authors
            )
        elif corruption == "truncate_title":
            title = str(record["title"])
            words = title.split()
            if len(words) > 4:
                record["title"] = " ".join(words[: len(words) - 2]) + "..."
        elif corruption == "drop_year":
            record["year"] = ""
        elif corruption == "typo_title":
            record["title"] = _typo(str(record["title"]), rng)
        elif corruption == "drop_last_author":
            authors = str(record["authors"]).split(", ")
            if len(authors) > 1:
                record["authors"] = ", ".join(authors[:-1]) + ", et al"
        elif corruption == "lowercase_title":
            record["title"] = str(record["title"]).lower()
    return record


def generate_citation_corpus(
    n_entities: int = 60,
    *,
    duplicates_per_entity: tuple[int, int] = (2, 4),
    n_pairs: int = 200,
    positive_fraction: float = 0.25,
    seed: int = 0,
) -> CitationCorpus:
    """Generate a synthetic citation corpus with a labelled pair set.

    Args:
        n_entities: number of distinct underlying papers.
        duplicates_per_entity: inclusive (min, max) number of citation records
            per paper.
        n_pairs: number of labelled pairs to sample.
        positive_fraction: fraction of labelled pairs that are true duplicates
            (the Magellan validation slice is similarly imbalanced).
        seed: RNG seed; the same seed reproduces the same corpus.
    """
    if n_entities <= 1:
        raise DatasetError("need at least two entities")
    low, high = duplicates_per_entity
    if low < 1 or high < low:
        raise DatasetError("duplicates_per_entity must be a valid (min, max) with min >= 1")
    rng = random.Random(seed)

    records: list[Record] = []
    entity_of: dict[str, str] = {}
    by_entity: dict[str, list[Record]] = {}
    record_counter = 0
    for entity_index in range(n_entities):
        entity_id = f"paper-{entity_index:04d}"
        author_count = rng.randint(1, 3)
        authors = ", ".join(
            f"{first} {last}" for first, last in (_make_author(rng) for _ in range(author_count))
        )
        title = (
            f"{rng.choice(_TOPIC_WORDS).title()} {rng.choice(_OBJECT_WORDS).title()} "
            f"for {rng.choice(_TOPIC_WORDS).title()} Workloads"
        )
        venue_full, _ = rng.choice(_VENUES)
        base = {
            "title": title,
            "authors": authors,
            "venue": venue_full,
            "year": rng.randint(1998, 2023),
        }
        count = rng.randint(low, high)
        for variant_index in range(count):
            # The first variant stays clean; later ones get progressively
            # heavier corruption, so every cluster contains at least one
            # "anchor" record that corrupted variants are still similar to.
            severity = 0 if variant_index == 0 else rng.randint(1, 2 + variant_index)
            attributes = _corrupt_citation(base, severity, rng)
            record = Record(record_id=f"cite-{record_counter:05d}", attributes=attributes)
            record_counter += 1
            records.append(record)
            entity_of[record.record_id] = entity_id
            by_entity.setdefault(entity_id, []).append(record)

    dataset = Dataset(records, name="citations")
    corpus = CitationCorpus(dataset=dataset, entity_of=entity_of)
    corpus.pairs = _sample_pairs(corpus, by_entity, n_pairs, positive_fraction, rng)
    return corpus


def _sample_pairs(
    corpus: CitationCorpus,
    by_entity: dict[str, list[Record]],
    n_pairs: int,
    positive_fraction: float,
    rng: random.Random,
) -> list[LabeledPair]:
    """Sample a labelled pair set biased towards hard pairs."""
    positives_needed = int(round(n_pairs * positive_fraction))
    negatives_needed = n_pairs - positives_needed

    positive_pool: list[tuple[Record, Record]] = []
    for members in by_entity.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                positive_pool.append((members[i], members[j]))
    rng.shuffle(positive_pool)
    positives = positive_pool[:positives_needed]

    entities = list(by_entity)
    negatives: list[tuple[Record, Record]] = []
    seen: set[tuple[str, str]] = set()
    attempts = 0
    while len(negatives) < negatives_needed and attempts < negatives_needed * 50:
        attempts += 1
        entity_a, entity_b = rng.sample(entities, 2)
        record_a = rng.choice(by_entity[entity_a])
        record_b = rng.choice(by_entity[entity_b])
        key = tuple(sorted((record_a.record_id, record_b.record_id)))
        if key in seen:
            continue
        seen.add(key)
        negatives.append((record_a, record_b))

    pairs = [
        LabeledPair(
            left_id=a.record_id,
            right_id=b.record_id,
            left_text=render_citation(a),
            right_text=render_citation(b),
            is_duplicate=True,
        )
        for a, b in positives
    ] + [
        LabeledPair(
            left_id=a.record_id,
            right_id=b.record_id,
            left_text=render_citation(a),
            right_text=render_citation(b),
            is_duplicate=False,
        )
        for a, b in negatives
    ]
    rng.shuffle(pairs)
    return pairs
