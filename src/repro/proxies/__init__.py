"""Non-LLM proxies (paper Section 3.4).

Cheap models that can answer a large fraction of unit tasks without any LLM
call: a k-nearest-neighbor imputer over record similarity, string-similarity
functions, embedding-based blocking for entity resolution, and a thresholded
similarity classifier that routes only uncertain pairs to the LLM.
"""

from repro.proxies.blocking import EmbeddingBlocker
from repro.proxies.classifier import SimilarityMatchProxy
from repro.proxies.knn import KNNImputer, NeighborVote
from repro.proxies.similarity import jaccard_similarity, token_cosine

__all__ = [
    "EmbeddingBlocker",
    "KNNImputer",
    "NeighborVote",
    "SimilarityMatchProxy",
    "jaccard_similarity",
    "token_cosine",
]
