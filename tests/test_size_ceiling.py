"""The library and its API guide stay under a line ceiling.

``src/`` is counted the way ``find src -name '*.py' | xargs cat | wc -l``
counts it (newlines over every ``.py`` file), ``docs/api.md`` the way
``wc -l`` does.  A change that must grow either raises the constant below in
the same diff and says why in ``CHANGES.md``; a change that shrinks them
lowers it, so the next one cannot quietly spend what was cut.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Lines of ``src/**/*.py``.
SRC_LINES = 20_903
#: Lines of ``docs/api.md``.
API_DOC_LINES = 1_130


def _lines(paths) -> int:
    return sum(path.read_bytes().count(b"\n") for path in paths)


def _over(what: str, counted: int, ceiling: int, constant: str) -> str:
    return (
        f"{what} is {counted} lines, over its ceiling of {ceiling}. Cut it back, or raise "
        f"{constant} in tests/test_size_ceiling.py in the same diff and say why in CHANGES.md."
    )


def test_src_stays_under_its_ceiling():
    counted = _lines(sorted((ROOT / "src").rglob("*.py")))
    assert counted <= SRC_LINES, _over("src/", counted, SRC_LINES, "SRC_LINES")


def test_the_api_guide_stays_under_its_ceiling():
    counted = _lines([ROOT / "docs" / "api.md"])
    assert counted <= API_DOC_LINES, _over("docs/api.md", counted, API_DOC_LINES, "API_DOC_LINES")
