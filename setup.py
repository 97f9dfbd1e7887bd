"""Setuptools entry point.

All metadata lives here (no ``pyproject.toml``) so the package installs in
environments without the ``wheel`` package (``pip install -e .`` needs it
for PEP 660 editable builds; ``python setup.py develop`` does not).

Runtime dependencies: numpy (the vector layer's data model — embeddings, the
exact and LSH indexes, Dawid–Skene; imported by the first function of a
process that computes a vector) and scipy (``scipy.stats`` gives the ranking
metrics their Kendall tau-b and Spearman rho; imported by the first such call
of a process).  ``import repro`` loads neither.  Extras:

``serve``
    uvicorn, for running :func:`repro.service.serve` as a real HTTP
    server.  Nothing in the package imports it unless that function is
    called — the tier-1 test suite drives the ASGI app in-process.
"""

from setuptools import find_packages, setup

setup(
    name="repro-declarative-prompting",
    version="0.1.0",
    description=(
        "Declarative prompt engineering via crowdsourcing principles: "
        "LLM data-processing operators with budget-aware planning, "
        "durable persistence, and a multi-tenant job service"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    extras_require={
        "serve": ["uvicorn"],
    },
)
