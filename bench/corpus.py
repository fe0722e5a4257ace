"""Seeded workload generators and their expected relation rows.

Every generator takes a ``random.Random`` and returns documents whose
expected relation rows are derived from the sentence templates alone,
never from xdoc, so the rows are an independent oracle for the TSV that
``xdoc analyze`` writes.  A row is ``(relation, arg1_form, arg1_concept,
arg2_form, arg2_concept)``; for the German ``hat`` relation, whose
attachment inside a genitive chain is ambiguous, only the first three
fields are checked (see ``Workload.row_key``).

Sentence kinds, document shapes and parse sizes are fixed quotas that
the seed only shuffles, so a workload's mix, its per-call time
distribution and its ``failed_share`` do not drift with the seed; the
seed chooses words, word order and arrangement.
"""

from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass

Row = tuple[str, ...]

# ---------------------------------------------------------------------------
# Documents and workloads


@dataclass
class Doc:
    name: str
    content: str  # raw text, or a form<TAB>tag file when the workload imports tags
    expected: list[list[Row]]  # per sentence, in document order
    kinds: list[str]  # per sentence: the template that made it
    tokens: int


@dataclass
class Workload:
    name: str
    docs: list[Doc]
    bundle_xml: str  # written to the work directory before the run
    external_tags: bool = False
    lenient: bool = False
    loose_relations: frozenset[str] = frozenset()  # checked on count and arg1 only

    @property
    def sentences(self) -> int:
        return sum(len(d.expected) for d in self.docs)

    def row_key(self, row: Row) -> Row:
        return tuple(row[:3]) if row[0] in self.loose_relations else tuple(row)


def _quota(rng: random.Random, total: int, shares: dict[str, float]) -> list[str]:
    """Exactly ``round(share * total)`` of each kind, the rest of the first, shuffled."""
    kinds: list[str] = []
    for kind, share in list(shares.items())[1:]:
        kinds += [kind] * round(share * total)
    kinds += [next(iter(shares))] * (total - len(kinds))
    rng.shuffle(kinds)
    return kinds


# ---------------------------------------------------------------------------
# English: one sentence generator for en-abstracts and en-report

EN_SHARES = {
    "svo": 0.30,  # SVO inhibition, with and without determiners
    "violation": 0.15,  # frame constraint violated ("Water inhibits the liver")
    "abbrev": 0.20,  # abbreviation-led, no full parse: chunk fallback
    "numbers": 0.30,  # numbers and hyphenated tokens after the clause
    "runon": 0.05,  # two predicates in one sentence (ROADMAP item 2)
}


@dataclass
class EnVocab:
    substances: list[str]
    enzymes: list[str]
    others: list[str]  # nouns whose concept no frame slot accepts
    abbreviations: list[str]


SHIPPED_EN_VOCAB = EnVocab(
    substances=["aspirin", "water"],
    enzymes=["cyclooxygenase"],
    others=["liver", "patient"],
    abbreviations=["e.g."],
)

_UNITS = ["mM", "nM", "mg", "h"]
_HYPHENATED = ["dose-dependent", "time-resolved", "cell-free", "x-ray", "in-vitro"]


def _cap(word: str) -> str:
    return word[:1].upper() + word[1:]


def _np(rng: random.Random, noun: str, initial: bool) -> tuple[list[str], str]:
    """A noun phrase with or without a determiner; returns words and the head form."""
    if rng.random() < 0.5:
        return (["The" if initial else "the", noun], noun)
    form = _cap(noun) if initial else noun
    return ([form], form)


def _inhibits(agent: str, patient: str) -> Row:
    return ("inhibits", agent, "substance", patient, "enzyme")


def en_sentence(rng: random.Random, kind: str, vocab: EnVocab) -> tuple[str, list[Row]]:
    sub = rng.choice(vocab.substances)
    enz = rng.choice(vocab.enzymes)
    if kind == "svo":
        subj, head = _np(rng, sub, True)
        obj, ohead = _np(rng, enz, False)
        return " ".join(subj + ["inhibits"] + obj) + ".", [_inhibits(head, ohead)]
    if kind == "violation":
        other = rng.choice(vocab.others)
        if rng.random() < 0.5:
            subj, _ = _np(rng, sub, True)
            words = subj + ["inhibits", "the", other]
        else:
            words = ["The", other, "inhibits", enz]
        return " ".join(words) + ".", []
    if kind == "abbrev":
        abbr = rng.choice(vocab.abbreviations)
        return f"{abbr} {sub} inhibits {enz}.", [_inhibits(sub, enz)]
    if kind == "numbers":
        subj, head = _np(rng, sub, True)
        tail = [
            "at",
            f"{rng.randint(1, 99)}.{rng.randint(0, 9)}",
            rng.choice(_UNITS),
            "in",
            str(rng.randint(2, 400)),
            rng.choice(_HYPHENATED),
            "assays",
        ]
        return " ".join(subj + ["inhibits", enz] + tail) + ".", [_inhibits(head, enz)]
    if kind == "runon":
        sub2 = rng.choice(vocab.substances)
        enz2 = rng.choice(vocab.enzymes)
        text = f"{_cap(sub)} inhibits {enz} {sub2} inhibits {enz2}."
        return text, [_inhibits(_cap(sub), enz), _inhibits(sub2, enz2)]
    raise ValueError(f"unknown sentence kind {kind!r}")


def _en_doc(rng: random.Random, name: str, shape: list[int], kinds: list[str], vocab: EnVocab) -> Doc:
    """Paragraphs of ``shape[i]`` sentences, separated by blank lines."""
    sents = [(kind, *en_sentence(rng, kind, vocab)) for kind in kinds]
    paragraphs, at = [], 0
    for n in shape:
        paragraphs.append(" ".join(text for _, text, _ in sents[at : at + n]))
        at += n
    tokens = sum(len(text.split()) + 1 for _, text, _ in sents)
    return Doc(name, "\n\n".join(paragraphs) + "\n", [rows for _, _, rows in sents],
               [kind for kind, _, _ in sents], tokens)


def en_report_doc(rng: random.Random, sentences: int, vocab: EnVocab) -> Doc:
    """One document, a blank-line paragraph every 2 to 5 sentences."""
    shape: list[int] = []
    while sum(shape) < sentences:
        shape.append(min(rng.randint(2, 5), sentences - sum(shape)))
    return _en_doc(rng, "report", shape, _quota(rng, sentences, EN_SHARES), vocab)


def en_abstract_docs(rng: random.Random, docs: int, vocab: EnVocab) -> list[Doc]:
    """Abstract-sized documents: 2-4 paragraphs of 2-4 sentences each.

    The multiset of document shapes is fixed by ``docs`` alone, so the
    per-call time distribution does not drift with the seed.
    """
    shapes = [[2 + (i // 3 + j) % 3 for j in range(2 + i % 3)] for i in range(docs)]
    rng.shuffle(shapes)
    kinds = _quota(rng, sum(map(sum, shapes)), EN_SHARES)
    out = []
    for i, shape in enumerate(shapes):
        doc_kinds, kinds = kinds[: sum(shape)], kinds[sum(shape) :]
        out.append(_en_doc(rng, f"abstract{i:03d}", shape, doc_kinds, vocab))
    return out


# ---------------------------------------------------------------------------
# English vocabulary bundle for en-abstracts

_ONSETS = ["b", "c", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "x", "z",
           "br", "cl", "dr", "fl", "gr", "pr", "st", "tr"]
_VOWELS = ["a", "e", "i", "o", "u", "y"]
_SUBSTANCE_ENDS = ["in", "ol", "ide", "ine", "ate", "one", "amil", "azole"]


def _stem(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))


def en_vocabulary(rng: random.Random, substances: int, enzymes: int, abbreviations: int) -> EnVocab:
    """Pseudo-words: substances, enzymes (some hyphenated, e.g. ``drk-4``), abbreviations.

    Forms are unique, lowercase, and disjoint from the shipped words and
    from every abbreviation stem, so no vocabulary word followed by a
    sentence period can be read as an abbreviation.
    """
    taken = {"the", "of", "inhibits", "at", "in", "assays", "water", "aspirin",
             "cyclooxygenase", "liver", "patient", *_HYPHENATED}

    def fresh(make) -> str:
        while True:
            word = make()
            if word not in taken:
                taken.add(word)
                return word

    subs = [fresh(lambda: _stem(rng, rng.randint(2, 3)) + rng.choice(_SUBSTANCE_ENDS))
            for _ in range(substances)]
    enzs = []
    for i in range(enzymes):
        if i % 5 == 0:
            enzs.append(fresh(lambda: _stem(rng, 1) + rng.choice(_ONSETS) + f"-{rng.randint(1, 19)}"))
        else:
            enzs.append(fresh(lambda: _stem(rng, rng.randint(2, 3)) + "ase"))
    abbrs = []
    for i in range(abbreviations):
        stem = fresh(lambda: _stem(rng, rng.randint(1, 2)) + rng.choice(_ONSETS))
        abbrs.append((_cap(stem) if i % 2 else stem) + ".")
    return EnVocab(subs, enzs, ["liver", "patient"], abbrs + ["e.g."])


def vocabulary_bundle(base_xml: str, vocab: EnVocab) -> str:
    """``base_xml`` (en-bio.xml) extended with taglexicon, semlex and abbreviation entries."""
    root = ET.fromstring(base_xml)
    abbr_sec, lex_sec, sem_sec = (root.find(tag) for tag in ("abbreviations", "taglexicon", "semlex"))
    known_abbr = {e.get("form") for e in abbr_sec}
    for form in vocab.abbreviations:
        if form not in known_abbr:
            ET.SubElement(abbr_sec, "abbr", form=form)
    for words, semclass in ((vocab.substances, "substance"), (vocab.enzymes, "enzyme")):
        for word in words:
            ET.SubElement(lex_sec, "w", form=word, tags="NN")
            ET.SubElement(sem_sec, "entry", lemma=word, pos="N", semclass=semclass)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"


# ---------------------------------------------------------------------------
# German: external STTS tags over de-core.xml

_DE_HEADS = {"Wirkstoff": "substanz", "Hersteller": "organisation", "Katalysator": "enzym"}
_DE_GENITIVES = {
    "Wirkstoffs": "substanz", "Herstellers": "organisation", "Katalysators": "enzym",
    "Labors": "", "Instituts": "", "Verfahrens": "", "Präparats": "", "Extrakts": "",
    "Versuchs": "",
}


def _de_np(rng: random.Random, article: tuple[str, str], head: str, genitives: int):
    words = [article, (head, "NN")]
    rows = []
    for _ in range(genitives):
        gen = rng.choice(sorted(_DE_GENITIVES))
        words += [("des", "ARTG"), (gen, "NN")]
        rows.append(("hat", gen, _DE_GENITIVES[gen]))
    return words, rows


def _hemmt(subj: str, obj: str) -> list[Row]:
    if _DE_HEADS[subj] == "substanz" and _DE_HEADS[obj] == "enzym":
        return [("hemmt", subj, "substanz", obj, "enzym")]
    return []


# One document's sentence plan: every de-chains document has the same
# shape, so per-call times do not drift with the seed.  Clauses are
# (subject genitives, object genitives); a chain of k genitives has
# Catalan(k) bracketings (1, 1, 2, 5, 14, 42, 132 for k = 0..6), and a
# clause has the product of its two chains' counts.  xdoc refuses to
# enumerate more than 256.
_OVER_CAP = [(4, 5), (5, 5), (6, 4)]  # 588, 1764 and 1848 readings
_UNDER_CAP = [(0, 0), (1, 2), (2, 1), (3, 3), (0, 4), (4, 4)]  # at most 196 readings
_CHAINS = [8, 13, 19, 25, 30]
_DE_PLAN = (
    [("clause", ab) for ab in _OVER_CAP + _UNDER_CAP]
    + [("chain", (n,)) for n in _CHAINS]
    + [("runon", ())]
)


def de_sentence(rng: random.Random, kind: str, sizes: tuple[int, ...]) -> tuple[list[tuple[str, str]], list[Row]]:
    if kind == "clause":
        subj = "Wirkstoff" if rng.random() < 0.7 else "Hersteller"
        obj = "Katalysator" if rng.random() < 0.75 else "Wirkstoff"
        ovs = rng.random() < 0.5
        s_words, s_rows = _de_np(rng, ("der" if ovs else "Der", "ARTN"), subj, sizes[0])
        o_words, o_rows = _de_np(rng, ("Den" if ovs else "den", "ARTA"), obj, sizes[1])
        verb = [("hemmt", "VVFIN")]
        words = o_words + verb + s_words if ovs else s_words + verb + o_words
        return words + [(".", "$.")], _hemmt(subj, obj) + s_rows + o_rows
    if kind == "chain":
        head = rng.choice(sorted(_DE_HEADS))
        words, rows = _de_np(rng, ("Der", "ARTN"), head, sizes[0])
        return words + [(".", "$.")], rows
    if kind == "runon":
        words, rows = [], []
        for i in range(2):
            s_words, s_rows = _de_np(rng, ("der" if i else "Der", "ARTN"), "Wirkstoff", rng.randint(0, 1))
            o_words, o_rows = _de_np(rng, ("den", "ARTA"), "Katalysator", rng.randint(0, 1))
            words += s_words + [("hemmt", "VVFIN")] + o_words
            rows += _hemmt("Wirkstoff", "Katalysator") + s_rows + o_rows
        return words + [(".", "$.")], rows
    raise ValueError(f"unknown sentence kind {kind!r}")


def de_chain_docs(rng: random.Random, docs: int) -> list[Doc]:
    out = []
    for i in range(docs):
        plan = list(_DE_PLAN)
        rng.shuffle(plan)
        sents = [de_sentence(rng, kind, sizes) for kind, sizes in plan]
        content = "\n\n".join("\n".join(f"{w}\t{t}" for w, t in words) for words, _ in sents) + "\n"
        tokens = sum(len(words) for words, _ in sents)
        out.append(Doc(f"stts{i:03d}", content, [rows for _, rows in sents],
                       [kind for kind, _ in plan], tokens))
    return out


# ---------------------------------------------------------------------------
# The three workloads

WORKLOADS = ("en-abstracts", "en-report", "de-chains")


def build(name: str, seed: int, en_bio_xml: str, de_core_xml: str, scale: float = 1.0) -> Workload:
    """The workload ``name`` for ``seed``; ``scale`` multiplies its size (growth probe)."""
    rng = random.Random(f"{name}:{seed}")
    if name == "en-abstracts":
        vocab = en_vocabulary(rng, substances=2000, enzymes=2000, abbreviations=300)
        docs = en_abstract_docs(rng, round(40 * scale), vocab)
        return Workload(name, docs, vocabulary_bundle(en_bio_xml, vocab))
    if name == "en-report":
        return Workload(name, [en_report_doc(rng, round(2000 * scale), SHIPPED_EN_VOCAB)], en_bio_xml)
    if name == "de-chains":
        return Workload(name, de_chain_docs(rng, round(16 * scale)), de_core_xml,
                        external_tags=True, lenient=True, loose_relations=frozenset({"hat"}))
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
