"""Datasets and data generators used by the case studies.

The paper's experiments use one hand-labelled list (ice-cream flavors), one
programmatically-generated list (random English words), and two external
benchmark slices (DBLP–Google-Scholar citation pairs; Restaurant and Buy
imputation tables).  The external data is not redistributable/downloadable in
this offline environment, so this package ships faithful synthetic generators
with the same structure (see DESIGN.md section 2 for the substitution
rationale) alongside the two lists that can be reproduced exactly.
"""

from repro.data.citations import CitationCorpus, LabeledPair, generate_citation_corpus
from repro.data.flavors import FLAVORS, flavor_oracle
from repro.data.products import ImputationDataset, generate_buy_dataset, generate_restaurant_dataset
from repro.data.record import Dataset, Record
from repro.data.words import WORDS, random_words

__all__ = [
    "CitationCorpus",
    "Dataset",
    "FLAVORS",
    "ImputationDataset",
    "LabeledPair",
    "Record",
    "WORDS",
    "flavor_oracle",
    "generate_buy_dataset",
    "generate_citation_corpus",
    "generate_restaurant_dataset",
    "random_words",
]
