"""The 20-flavor "chocolateyness" sorting task (paper Table 1).

The paper ranks 20 ice-cream flavors by how "chocolatey" they are against a
human-labelled ground truth (flavors with "chocolate" in the name at the top,
fruit flavors like lemon sorbet at the bottom).  The exact list is not given
in the paper, so an equivalent list of 20 flavors with an authored latent
chocolateyness score is used; the score induces the ground-truth ranking and
drives the simulated LLM's noisy answers.
"""

from __future__ import annotations

from repro.llm.oracle import Oracle

#: Criterion name used in prompts for this task.
CHOCOLATEY = "chocolatey"

#: Flavor → latent chocolateyness score in [0, 10].  Higher is more chocolatey.
_CHOCOLATEYNESS: dict[str, float] = {
    "triple chocolate fudge brownie": 10.0,
    "dark chocolate truffle": 9.6,
    "chocolate fudge swirl": 9.2,
    "chocolate chip cookie dough": 8.1,
    "chocolate hazelnut": 7.8,
    "rocky road": 7.0,
    "mocha almond fudge": 6.4,
    "cookies and cream": 5.6,
    "s'mores": 5.2,
    "tiramisu": 4.4,
    "coffee toffee crunch": 3.8,
    "salted caramel": 3.0,
    "peanut butter swirl": 2.6,
    "butter pecan": 2.0,
    "vanilla bean": 1.5,
    "strawberry cheesecake": 1.1,
    "mint sherbet": 0.8,
    "mango passionfruit": 0.5,
    "raspberry ripple": 0.3,
    "lemon sorbet": 0.0,
}

#: Flavors in ground-truth order, most chocolatey first.
FLAVORS: tuple[str, ...] = tuple(
    sorted(_CHOCOLATEYNESS, key=lambda flavor: -_CHOCOLATEYNESS[flavor])
)


def flavor_oracle() -> Oracle:
    """Oracle that knows the chocolateyness ground truth."""
    oracle = Oracle()
    oracle.register_scores(CHOCOLATEY, _CHOCOLATEYNESS)
    return oracle
