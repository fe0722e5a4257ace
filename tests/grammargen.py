"""Seeded generator of small CFGs and tag strings for oracle sweeps."""

from __future__ import annotations

import random

from xdoc.resources import Category, Grammar, GrammarRule

Rule = tuple[str, tuple[str, ...]]

NONTERMINALS = ["S", "A", "B"]
TERMINAL_POOL = ["x", "y", "z"]
FEATURE_KEYS = ["f", "g"]
FEATURE_VALUES = ["a", "b"]


def random_case(rng: random.Random) -> tuple[list[Rule], list[str]]:
    """One random grammar (at most 6 rules, 3 terminals) plus a tag string."""
    terminals = TERMINAL_POOL[: rng.randint(1, 3)]
    rules: list[Rule] = []
    for i in range(rng.randint(1, 6)):
        lhs = "S" if i == 0 else rng.choice(NONTERMINALS)
        rhs = tuple(
            rng.choice(NONTERMINALS + terminals) for _ in range(rng.randint(1, 3))
        )
        rules.append((lhs, rhs))
    tags = [rng.choice(terminals) for _ in range(rng.randint(1, 7))]
    return rules, tags


def random_features(rng: random.Random) -> dict[str, str]:
    """Often none; otherwise one or two keys, each with a random value."""
    if rng.random() < 0.5:
        return {}
    keys = rng.sample(FEATURE_KEYS, rng.randint(1, len(FEATURE_KEYS)))
    return {key: rng.choice(FEATURE_VALUES) for key in keys}


def to_grammar(rules: list[Rule], rng: random.Random | None = None) -> Grammar:
    """Plain categories with head 1, or, given ``rng``, optional features
    on every category and a random head per rule, so that feature
    matching and head-feature propagation both take part."""

    def cat(name: str) -> Category:
        return Category(name, random_features(rng) if rng else {})

    return Grammar(
        rules[0][0],
        tuple(
            GrammarRule(
                cat(lhs),
                tuple(cat(name) for name in rhs),
                rng.randint(1, len(rhs)) if rng else 1,
            )
            for lhs, rhs in rules
        ),
    )


def feature_tags(tags: list[str], rng: random.Random) -> list[tuple[str, dict[str, str]]]:
    return [(tag, random_features(rng)) for tag in tags]
