"""Library-wide defaults for the repro package.

The values mirror the paper's setup: a fixed random seed so experiments are
repeatable, and model names standing in for the models its case studies used.
"""

from __future__ import annotations

DEFAULT_SEED = 20240308

# Model-name analogues of the models used in the paper's case studies.
DEFAULT_CHAT_MODEL = "sim-gpt-3.5-turbo"
DEFAULT_EMBEDDING_MODEL = "sim-embedding-ada-002"
