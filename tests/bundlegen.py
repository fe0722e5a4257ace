"""Seeded generator of random small bundles for round-trip properties."""

from __future__ import annotations

import random

from xdoc.resources import (
    CaseFrame,
    Category,
    ContextRule,
    FrameSlot,
    Grammar,
    GrammarRule,
    GrammaticalFunction,
    LemmaRule,
    Ontology,
    PatternItem,
    ResourceBundle,
    SemLexEntry,
    StructPattern,
    TRIGGERS,
)

_ALPHA = "abcdefghijklmnop"
_SPICE = 'ü&"<>'  # exercises attribute escaping


def _word(rng: random.Random, lo: int = 1, hi: int = 8) -> str:
    letters = [rng.choice(_ALPHA) for _ in range(rng.randint(lo, hi))]
    if rng.random() < 0.15:
        letters.append(rng.choice(_SPICE))
    return "".join(letters)


def _ontology(rng: random.Random) -> Ontology:
    concepts = [f"c{i}" for i in range(rng.randint(0, 6))]
    isa = {}
    for i, cid in enumerate(concepts):
        if i and rng.random() < 0.6:
            isa[cid] = frozenset(rng.sample(concepts[:i], rng.randint(1, min(2, i))))
    lexmap = {}
    if concepts:
        for _ in range(rng.randint(0, 3)):
            lexmap[_word(rng)] = rng.choice(concepts)
    return Ontology(frozenset(concepts), isa, lexmap)


def _grammar(rng: random.Random) -> Grammar:
    nonterminals = ["S", "NP", "VP"]
    terminals = ["P0", "P1", "P2"]
    rules = []
    n_rules = rng.randint(0, 4)
    for i in range(n_rules):
        lhs_features = {}
        if rng.random() < 0.3:
            lhs_features["case"] = rng.choice(["nom", "acc"])
        rhs = []
        for _ in range(rng.randint(1, 3)):
            features = {}
            if rng.random() < 0.2:
                features["case"] = rng.choice(["nom", "acc", "gen"])
            rhs.append(Category(rng.choice(nonterminals + terminals), features))
        rules.append(
            GrammarRule(
                Category(rng.choice(nonterminals), lhs_features),
                tuple(rhs),
                rng.randint(1, len(rhs)),
            )
        )
    start = rules[0].lhs.name if rules else ""
    return Grammar(start, tuple(rules))


def _functions(rng: random.Random) -> tuple[GrammaticalFunction, ...]:
    """Declarations in both styles: placed by siblings, or marked by a feature."""
    functions = []
    for gf in rng.sample(["subject", "object"], rng.randint(0, 2)):
        if rng.random() < 0.5:
            features = {"case": rng.choice(["nom", "acc", _word(rng)])}
            functions.append(GrammaticalFunction(gf, Category(_word(rng), features)))
        else:
            after = _word(rng) if rng.random() < 0.5 else None
            before = _word(rng) if rng.random() < 0.5 else None
            functions.append(GrammaticalFunction(gf, Category(_word(rng)), after, before))
    return tuple(functions)


def random_bundle(rng: random.Random) -> ResourceBundle:
    source_tags = [f"T{i}" for i in range(rng.randint(1, 5))]
    parser_tags = [f"P{i}" for i in range(rng.randint(1, 3))]

    tag_lexicon = {
        _word(rng): tuple(rng.choice(source_tags) for _ in range(rng.randint(1, 2)))
        for _ in range(rng.randint(0, 4))
    }

    context_rules = []
    for _ in range(rng.randint(0, 3)):
        if len(source_tags) >= 2:
            a, b = rng.sample(source_tags, 2)
        else:
            a, b = source_tags[0], source_tags[0] + "X"
        context_rules.append(ContextRule(a, b, rng.choice(sorted(TRIGGERS)), _word(rng)))

    grammar = _grammar(rng)
    functions = _functions(rng)
    ontology = _ontology(rng)

    sem_lexicon = tuple(
        SemLexEntry(f"{_word(rng)}{i}", rng.choice(parser_tags), _word(rng))
        for i in range(rng.randint(0, 4))
    )

    frames = []
    for i in range(rng.randint(0, 2)):
        gfs = rng.sample(["subject", "object"], rng.randint(1, 2))
        slots = tuple(
            FrameSlot(f"role{j}", gf, _word(rng), rng.random() < 0.5)
            for j, gf in enumerate(gfs)
        )
        frames.append(CaseFrame(f"f{i}", _word(rng), _word(rng), slots))

    patterns = []
    for i in range(rng.randint(0, 2)):
        items = tuple(
            PatternItem(_word(rng), _word(rng) if rng.random() < 0.3 else None)
            for _ in range(rng.randint(2, 4))
        )
        arg1, arg2 = rng.sample(range(1, len(items) + 1), 2)
        patterns.append(StructPattern(f"p{i}", _word(rng), items, _word(rng), arg1, arg2))

    return ResourceBundle(
        lang=rng.choice(["en", "de", "fr", "xx"]),
        abbreviations=frozenset(_word(rng) + "." for _ in range(rng.randint(0, 3))),
        tag_lexicon=tag_lexicon,
        default_tag=rng.choice(source_tags) if rng.random() < 0.7 else None,
        capitalized_tag=rng.choice(source_tags) if rng.random() < 0.3 else None,
        context_rules=tuple(context_rules),
        tagset_source=rng.choice(["PTB", "STTS", ""]),
        tagset_map={t: rng.choice(parser_tags) for t in source_tags if rng.random() < 0.8},
        grammar=grammar,
        functions=functions,
        lemma_rules=tuple(
            LemmaRule(_word(rng, 1, 2), rng.randint(0, 4)) for _ in range(rng.randint(0, 3))
        ),
        sem_lexicon=sem_lexicon,
        frames=tuple(frames),
        ontology=ontology,
        struct_patterns=tuple(patterns),
    )
