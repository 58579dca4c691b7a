"""Deterministic synthetic corpora: the bundled test fixtures.

``make_synthetic_corpus.py`` writes them with ``generate_fixture_set``; this
module sits next to it, outside the ``claudette`` package, because nothing
else imports it.

Three generators:

* a tiny handcrafted 3-document corpus exercising every annotation feature
  (nesting, multi-sentence spans, level-1 spans, abbreviations);
* a "planted cue" corpus whose positive sentences all contain one keyword,
  separable by any bag-of-words model;
* an "adjacency" corpus where the lexical cue is ambiguous sentence-wide
  (roughly 60/40: cue-bearing sentences are mostly but not always positive)
  while the sequence structure disambiguates — positives occur only in
  adjacent runs, and the cue-bearing negatives are always isolated.
"""

from __future__ import annotations

import random
from pathlib import Path

from claudette.corpus import Corpus, load_corpus
from claudette.trees import ParseTree, write_treebank_groups

MINI_DOCUMENTS = {
    "alpha": (
        "Welcome to the Alpha service. These terms explain your rights and duties.\n"
        "\n"
        "<j3>Any judicial proceeding arising from this agreement shall be brought "
        "exclusively in the courts of Ruritania, and you consent to venue there.</j3> "
        "<j1>If the law of your country of residence lets you litigate at home, "
        "nothing in this section removes that right.</j1>\n"
        "\n"
        "<j1> <a3>Every dispute about these terms shall be settled at the operator's "
        "choice either before your local courts or by binding arbitration conducted "
        "in Ruritania in the Ruritanian language.</a3> </j1>\n"
        "\n"
        "Thank you for reading carefully.\n"
    ),
    "beta": (
        "The Beta platform values transparency. <ltd2>The provider will not be "
        "liable for interruptions of the service, loss of stored content, or damage "
        "caused by third parties. This exclusion applies to every subscription "
        "tier.</ltd2>\n"
        "\n"
        "<ch2>We may revise these terms whenever the service evolves, and continued "
        "use counts as acceptance of the revised text.</ch2>\n"
        "\n"
        "<law1>These terms are governed by the law of the member state where you "
        "habitually reside.</law1> Contact our support desk with questions.\n"
    ),
    "gamma": (
        "Gamma hosts user content for registered members.\n"
        "\n"
        "<use2>By browsing the Gamma site or installing the Gamma app you accept "
        "these conditions, even if you never tick a confirmation box.</use2>\n"
        "\n"
        "<ter3>Gamma may suspend or delete any account at any time, for any reason "
        "or no reason, without notice and without refund.</ter3>\n"
        "\n"
        "Some sections, e.g. the privacy annex, are published separately. "
        "No. 4 of the annex covers cookies.\n"
    ),
}

_FILLER = [
    "account", "agreement", "annex", "balance", "billing", "browser", "change",
    "clause", "consumer", "content", "cookie", "copy", "device", "document",
    "download", "feature", "file", "history", "invoice", "language", "license",
    "limit", "member", "message", "network", "notice", "option", "order",
    "partner", "payment", "period", "platform", "policy", "profile", "purchase",
    "record", "region", "request", "section", "server", "service", "session",
    "setting", "signup", "storage", "stream", "subscription", "support",
    "system", "transfer", "update", "upload", "usage", "version", "wallet",
]

PLANTED_KEYWORD = "solediscretion"
ADJACENCY_CUES = ("cueamber", "cuebasalt", "cuecobalt")
_POSITIVE_TAGS = ("ltd2", "ch2", "ter3", "use2", "cr2")


def _sentence(rng: random.Random, extra: str | None = None) -> str:
    words = [rng.choice(_FILLER) for _ in range(rng.randint(7, 12))]
    if extra is not None:
        words.insert(rng.randrange(len(words) + 1), extra)
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def write_planted_corpus(
    directory: str | Path,
    n_docs: int = 10,
    sentences_per_doc: int = 14,
    positives_per_doc: int = 3,
    seed: int = 20240501,
) -> None:
    """Positives all contain PLANTED_KEYWORD; negatives never do."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    for d in range(n_docs):
        positive_at = set(rng.sample(range(sentences_per_doc), positives_per_doc))
        sentences = []
        for s in range(sentences_per_doc):
            if s in positive_at:
                tag = _POSITIVE_TAGS[(d + s) % len(_POSITIVE_TAGS)]
                body = _sentence(rng, extra=PLANTED_KEYWORD)
                sentences.append(f"<{tag}>{body}</{tag}>")
            else:
                sentences.append(_sentence(rng))
        text = _as_paragraphs(rng, sentences)
        (directory / f"doc{d:02d}.txt").write_text(text, encoding="utf-8")


def write_adjacency_corpus(
    directory: str | Path,
    n_docs: int = 16,
    sentences_per_doc: int = 20,
    run_lengths: tuple[int, ...] = (3, 4, 5),
    traps_per_doc: int = 3,
    seed: int = 7,
) -> None:
    """Every positive sits in one adjacent run of cue-bearing sentences; an
    additional ``traps_per_doc`` cue-bearing sentences are negatives, always
    isolated (never adjacent to a positive or to another trap).  Sentence-wide
    models cannot tell the trap sentences from the run members; a sequence
    model can."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    for d in range(n_docs):
        run_len = rng.choice(run_lengths)
        run_start = rng.randrange(sentences_per_doc - run_len + 1)
        positive = [run_start <= s < run_start + run_len for s in range(sentences_per_doc)]
        traps: set[int] = set()
        attempts = 0
        while len(traps) < traps_per_doc and attempts < 200:
            attempts += 1
            s = rng.randrange(sentences_per_doc)
            if positive[s] or any(positive[max(0, s - 1) : min(sentences_per_doc, s + 2)]):
                continue
            if any(abs(s - t) <= 1 for t in traps):
                continue
            traps.add(s)
        sentences = []
        for s in range(sentences_per_doc):
            words = [rng.choice(_FILLER) for _ in range(rng.randint(6, 10))]
            if positive[s] or s in traps:
                picked = rng.sample(ADJACENCY_CUES, k=rng.randint(1, 2))
                for cue in picked:
                    words.insert(rng.randrange(len(words) + 1), cue)
            words[0] = words[0].capitalize()
            body = " ".join(words) + "."
            if positive[s]:
                tag = _POSITIVE_TAGS[(d + s) % len(_POSITIVE_TAGS)]
                sentences.append(f"<{tag}>{body}</{tag}>")
            else:
                sentences.append(body)
        text = _as_paragraphs(rng, sentences)
        (directory / f"doc{d:02d}.txt").write_text(text, encoding="utf-8")


def _as_paragraphs(rng: random.Random, sentences: list[str]) -> str:
    """Group sentences into 2-4 sentence paragraphs separated by blank lines."""
    paragraphs = []
    i = 0
    while i < len(sentences):
        size = rng.randint(2, 4)
        paragraphs.append(" ".join(sentences[i : i + size]))
        i += size
    return "\n\n".join(paragraphs) + "\n"


def write_mini_corpus(directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in MINI_DOCUMENTS.items():
        (directory / f"{name}.txt").write_text(text, encoding="utf-8")


_LEAF_ESCAPES = {"(": "-LRB-", ")": "-RRB-"}
_PHRASE_LABELS = ("NP", "VP", "PP", "ADJP")
_PRETERMINALS = ("NN", "VB", "JJ", "DT", "IN", "RB")


def _stable_pick(token: str, options: tuple[str, ...]) -> str:
    return options[sum(token.encode("utf-8")) % len(options)]


def _keyword_motif() -> ParseTree:
    # rich shared subtree marking the planted keyword, so tree-kernel models
    # see a structural signature rather than a single preterminal
    return ParseTree(
        "VP",
        [
            ParseTree("MD", [ParseTree("may")]),
            ParseTree(
                "PP",
                [
                    ParseTree("IN", [ParseTree("at")]),
                    ParseTree(
                        "NP",
                        [
                            ParseTree("JJ", [ParseTree("sole")]),
                            ParseTree("NN", [ParseTree(PLANTED_KEYWORD)]),
                        ],
                    ),
                ],
            ),
        ],
    )


def sentence_tree(tokens: tuple[str, ...] | list[str]) -> ParseTree:
    """Deterministic nested tree: tokens grouped 2-3 per phrase, labels picked
    by a stable function of the text; the planted keyword expands into a
    fixed motif subtree."""
    leaves: list[ParseTree] = []
    for tok in tokens:
        if tok == PLANTED_KEYWORD:
            leaves.append(_keyword_motif())
        else:
            word = _LEAF_ESCAPES.get(tok, tok)
            leaves.append(ParseTree(_stable_pick(tok, _PRETERMINALS), [ParseTree(word)]))
    if not leaves:
        leaves = [ParseTree("NN", [ParseTree("-EMPTY-")])]
    phrases: list[ParseTree] = []
    i = 0
    while i < len(leaves):
        width = 2 + (i + len(leaves)) % 2  # alternating 2/3-leaf phrases
        group = leaves[i : i + width]
        if len(group) == 1:
            phrases.append(group[0])
        else:
            label = _stable_pick(group[0].label + str(len(group)), _PHRASE_LABELS)
            phrases.append(ParseTree(label, group))
        i += width
    return ParseTree("S", phrases)


def treebank_groups_for(corpus: Corpus) -> list[list[ParseTree]]:
    """Synthetic trees aligned with every sentence of the corpus."""
    return [
        [sentence_tree(ls.tokens) for ls in doc.sentences]
        for doc in corpus.documents
    ]


def generate_fixture_set(root: str | Path, with_trees: bool = True) -> None:
    """Write the three bundled corpora (and treebanks) under ``root``."""
    root = Path(root)
    write_mini_corpus(root / "mini")
    write_planted_corpus(root / "planted")
    write_adjacency_corpus(root / "adjacency")
    if with_trees:
        for name in ("mini", "planted", "adjacency"):
            corpus = load_corpus(root / name)
            write_treebank_groups(treebank_groups_for(corpus), root / f"{name}_trees.txt")
