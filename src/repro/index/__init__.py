"""Pluggable vector indexes: exact and LSH, persisted in the store.

The package behind blocking at scale (ROADMAP: "ANN-indexed proxies and
retrieval operators"): a common :class:`~repro.index.base.VectorIndex`
protocol, a brute-force :class:`~repro.index.exact.ExactIndex` reference,
and a multi-table random-hyperplane :class:`~repro.index.lsh.LSHIndex`
whose recall is tunable.  :func:`build_index` is the one-stop constructor
consumers use: it embeds through the store's durable embedding cache when
a store is available (never re-embedding unchanged texts), picks exact vs
LSH by corpus size, and can persist the built index under a name so a
later process loads it instead of rebuilding.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

from repro.exceptions import ConfigurationError
from repro.index.base import Neighbor, VectorIndex
from repro.index.cached import CachedEmbedder
from repro.index.exact import ExactIndex
from repro.index.lsh import LSHIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.llm.embeddings import HashingEmbedder
    from repro.store import Store

#: Registry of index implementations by ``kind`` (what the store's
#: ``vector_indexes.kind`` column refers to).
INDEX_KINDS: dict[str, type] = {
    ExactIndex.kind: ExactIndex,
    LSHIndex.kind: LSHIndex,
}

#: Corpora at or above this size default to the LSH index ("auto" kind);
#: below it the exact index is both faster and, well, exact.
AUTO_LSH_THRESHOLD = 2048


def index_from_payload(kind: str, payload: bytes) -> VectorIndex:
    """Rebuild a persisted index from its stored ``(kind, payload)`` row."""
    implementation = INDEX_KINDS.get(kind)
    if implementation is None:
        raise ConfigurationError(
            f"unknown vector-index kind {kind!r} (known: {sorted(INDEX_KINDS)})"
        )
    return implementation.from_payload(payload)


def create_index(kind: str, dimensions: int, *, expected_size: int | None = None, seed: int = 0) -> VectorIndex:
    """Construct an empty index of ``kind`` ("exact", "lsh", or "auto")."""
    if kind == "auto":
        kind = (
            LSHIndex.kind
            if expected_size is not None and expected_size >= AUTO_LSH_THRESHOLD
            else ExactIndex.kind
        )
    if kind == ExactIndex.kind:
        return ExactIndex(dimensions)
    if kind == LSHIndex.kind:
        return LSHIndex.for_corpus(dimensions, max(1, expected_size or 1), seed=seed)
    raise ConfigurationError(
        f"unknown vector-index kind {kind!r} (known: {sorted(INDEX_KINDS)} or 'auto')"
    )


def resolve_embedder(
    embedder: "HashingEmbedder | CachedEmbedder | None" = None,
    *,
    store: "Store | None" = None,
):
    """The embedder consumers should use: store-cached when a store exists."""
    from repro.llm.embeddings import HashingEmbedder

    if embedder is None:
        embedder = HashingEmbedder()
    if store is not None and not isinstance(embedder, CachedEmbedder):
        embedder = CachedEmbedder(embedder, store.embedding_cache())
    return embedder


def corpus_index_name(texts: list[str], embedder, *, prefix: str = "corpus") -> str:
    """A store name for an index, content-addressed by corpus and embedder.

    The name hashes the text list *and* the embedding function, so a stored
    index is only ever reused for the exact corpus it was built from — a
    same-sized but different text list hashes to a different name instead
    of silently reusing stale vectors.
    """
    payload = json.dumps(
        [
            str(getattr(embedder, "model", "")),
            int(embedder.dimensions),
            list(texts),
        ],
        ensure_ascii=True,
        separators=(",", ":"),
    )
    return f"{prefix}:" + hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def load_or_build_index(
    texts: list[str],
    *,
    embedder: "HashingEmbedder | CachedEmbedder | None" = None,
    kind: str = "auto",
    store: "Store | None" = None,
    name: str | None = None,
    seed: int = 0,
) -> tuple[VectorIndex, bool]:
    """``(index, reused)``: the index stored under ``name``, or a new one.

    The one place a stored index is loaded.  It is reused only when it
    matches the corpus (same size and dimensionality); otherwise ``texts``
    are embedded — through the store's durable embedding cache when there is
    a store — and indexed under ids ``0..len(texts)-1``.  A new index is not
    saved here: :func:`build_index` saves it, and the blocker saves it
    together with the k-NN graph it computes from it.
    """
    resolved = resolve_embedder(embedder, store=store)
    if store is not None and name is not None:
        stored = store.load_vector_index(name)
        if (
            stored is not None
            and len(stored) == len(texts)
            and stored.dimensions == resolved.dimensions
        ):
            return stored, True
    index = create_index(kind, resolved.dimensions, expected_size=len(texts), seed=seed)
    if texts:
        index.add(resolved.embed_batch(list(texts)))
    return index, False


def build_index(
    texts: list[str],
    *,
    embedder: "HashingEmbedder | CachedEmbedder | None" = None,
    kind: str = "auto",
    store: "Store | None" = None,
    name: str | None = None,
    seed: int = 0,
) -> VectorIndex:
    """Embed ``texts`` and index them under ids ``0..len(texts)-1``.

    With a ``store``, embeddings go through the durable embedding cache
    (unchanged texts are never re-embedded) and, when ``name`` is given, a
    stored index under that name is loaded instead of rebuilt — and the
    built index is saved back under it otherwise (see
    :func:`load_or_build_index`).
    """
    index, reused = load_or_build_index(
        texts, embedder=embedder, kind=kind, store=store, name=name, seed=seed
    )
    if not reused and store is not None and name is not None:
        store.save_vector_index(name, index)
    return index


__all__ = [
    "AUTO_LSH_THRESHOLD",
    "CachedEmbedder",
    "ExactIndex",
    "INDEX_KINDS",
    "LSHIndex",
    "Neighbor",
    "VectorIndex",
    "build_index",
    "corpus_index_name",
    "create_index",
    "index_from_payload",
    "load_or_build_index",
    "resolve_embedder",
]
