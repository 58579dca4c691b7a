"""Deterministic input generators for the benchmark.

Nothing here depends on anything but the ``seed`` argument.  It uses the
standard library's ``random.Random``, whose sequences do not depend on the
numpy version.  Nothing is imported from ``claudette``: a change to the
program can never change a workload.

Three inputs are made:

* ``text_corpus`` -- tagged documents over a Zipf vocabulary, so the number
  of unigram+bigram terms V is realistic.  Positives sit mostly in adjacent
  runs; cue words also appear in isolated negatives and one run member per
  document has no cue, so no model is perfect.
* ``kernel_corpus`` -- a small tagged corpus with one deep constituency tree
  per sentence over a small production inventory.  Positives carry a shared
  motif subtree; fixed numbers of decoys and mutated motifs keep the kernel
  model imperfect.
* ``request_bodies`` -- a fixed-shape pool of plain-text ``/analyze`` bodies
  that covers a set of text documents, with the gold detection label of
  every sentence.

The seed only spells the words.  The shape of every input -- which sentence
is positive, sentence lengths, Zipf ranks, tree shapes, body cuts -- comes
from a stream with a fixed seed, and every word is a pseudo-word spelled from
``--seed``.  So each seed poses the same problem under other names: the work
done and the scores reached are the same for every seed, and differences
between runs of different seeds are the machine's, not the inputs'.  The
spelling still moves everything that depends on the strings themselves, such
as hashing and the sorted order of the vocabulary.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from itertools import accumulate

CATEGORIES = ("a", "ch", "cr", "j", "law", "ltd", "ter", "use")

# --- text corpus shape --------------------------------------------------------
TEXT_DOCS = 12
TEXT_SENTENCES_PER_DOC = 58
TEXT_VOCAB = 8000
TEXT_ZIPF_S = 1.07
TEXT_SENT_LEN = (8, 24)
RUN_LENGTHS = (3, 4, 5)  # one adjacent positive run per document, cycled by index
TRAPS_PER_DOC = 3  # isolated cue-bearing negatives
CUES_PER_CATEGORY = 4
SHARED_CUES = 8  # two-word cue phrases common to every category
CUE_PHRASES_PER_SENTENCE = 2

# --- kernel corpus shape ------------------------------------------------------
KERNEL_DOCS = 6
KERNEL_SENTENCES_PER_DOC = 10
KERNEL_POSITIVES_PER_DOC = 3
KERNEL_DECOYS_PER_DOC = 2  # negatives carrying a near-motif
KERNEL_DEPTH = (8, 12)
KERNEL_NODES = (20, 28)  # internal nodes of a random tree before a motif is planted

# --- request pool shape -------------------------------------------------------
# Each held-out document is either sent whole or cut into consecutive bodies
# whose sentence counts follow this cycle, so every held-out sentence is
# served exactly once per pass over the pool: mostly 1-3 sentences, some of
# 15, a few whole documents.
POOL_FULL_DOCS = 2
POOL_CUT_CYCLE = (1, 2, 3, 2, 1, 3, 15)

_CONS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_CONS) + rng.choice(_VOWELS) for _ in range(syllables))


def make_words(rng: random.Random, n: int, taken: set[str] | None = None) -> list[str]:
    """``n`` distinct consonant-vowel pseudo-words of 6 to 10 letters.

    Every word alternates consonant and vowel, so none can collide with an
    abbreviation the segmenter knows (those are short or contain a dot).
    """
    taken = set() if taken is None else taken
    words: list[str] = []
    while len(words) < n:
        w = _word(rng, rng.randint(3, 5))
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


# ---------------------------------------------------------------------------
# Text corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TextDoc:
    name: str
    raw: str  # tagged text written to <name>.txt
    sentences: tuple[str, ...]  # plain sentence texts, in order
    labels: tuple[bool, ...]  # gold detection label per sentence


def _positions(rng: random.Random, n: int, run_len: int) -> tuple[range, int, list[int]]:
    """Run start, one isolated positive and the traps, all mutually
    non-adjacent so each stays a separate span."""
    while True:
        start = rng.randrange(1, n - run_len - 1)
        run = range(start, start + run_len)
        blocked = set(range(start - 1, start + run_len + 1))
        free = [i for i in range(n) if i not in blocked]
        rng.shuffle(free)
        chosen: list[int] = []
        for i in free:
            if all(abs(i - j) > 1 for j in chosen):
                chosen.append(i)
            if len(chosen) == 1 + TRAPS_PER_DOC:
                return run, chosen[0], chosen[1:]


def text_corpus(seed: int) -> list[TextDoc]:
    names = random.Random(f"text:{seed}")  # spells the words
    rng = random.Random("text-shape")  # everything else
    taken: set[str] = set()
    vocab = make_words(names, TEXT_VOCAB, taken)
    cues = {c: make_words(names, CUES_PER_CATEGORY, taken) for c in CATEGORIES}
    shared = [" ".join(make_words(names, 2, taken)) for _ in range(SHARED_CUES)]
    cum = list(accumulate(1.0 / (k + 2.7) ** TEXT_ZIPF_S for k in range(TEXT_VOCAB)))
    offset = rng.randrange(len(CATEGORIES))

    def cue_words(category: str) -> list[str]:
        return rng.sample(shared, CUE_PHRASES_PER_SENTENCE) + [rng.choice(cues[category])]

    def sentence(cue_words: list[str]) -> str:
        words = rng.choices(vocab, cum_weights=cum, k=rng.randint(*TEXT_SENT_LEN))
        for cue in cue_words:
            words.insert(rng.randrange(len(words) + 1), cue)
        if len(words) > 6 and rng.random() < 0.3:
            words[rng.randrange(2, len(words) - 2)] += ","
        words[0] = words[0].capitalize()
        return " ".join(words) + "."

    docs: list[TextDoc] = []
    n = TEXT_SENTENCES_PER_DOC
    for d in range(TEXT_DOCS):
        cat = CATEGORIES[(d + offset) % len(CATEGORIES)]
        run_len = RUN_LENGTHS[d % len(RUN_LENGTHS)]
        run, single, traps = _positions(rng, n, run_len)
        silent = rng.choice(list(run))  # the run member without a cue word
        single_cat = CATEGORIES[(d + offset + 3) % len(CATEGORIES)]
        texts: list[str] = []
        labels: list[bool] = []
        for i in range(n):
            if i in run:
                picked = [] if i == silent else cue_words(cat)
                labels.append(True)
            elif i == single:
                picked = cue_words(single_cat)
                labels.append(True)
            elif i in traps:
                picked = cue_words(rng.choice(CATEGORIES))
                labels.append(False)
            else:
                picked = []
                labels.append(False)
            texts.append(sentence(picked))

        level = 2 + (d % 2)
        pieces: list[str] = []
        i = 0
        while i < n:
            if i == run.start:
                body = " ".join(texts[run.start : run.stop])
                pieces.append(f"<{cat}{level}>{body}</{cat}{level}>")
                i = run.stop
                continue
            if i == single:
                pieces.append(f"<{single_cat}2>{texts[i]}</{single_cat}2>")
            elif i == traps[0]:
                pieces.append(f"<{cat}1>{texts[i]}</{cat}1>")  # fair clause: not positive
            else:
                pieces.append(texts[i])
            i += 1
        # paragraphs of 3-6 pieces; a tagged run is one piece so it never splits
        paragraphs: list[str] = []
        while pieces:
            k = rng.randint(3, 6)
            paragraphs.append(" ".join(pieces[:k]))
            pieces = pieces[k:]
        docs.append(
            TextDoc(
                name=f"doc{d:02d}",
                raw="\n\n".join(paragraphs) + "\n",
                sentences=tuple(texts),
                labels=tuple(labels),
            )
        )
    return docs


# ---------------------------------------------------------------------------
# Kernel corpus and treebank
# ---------------------------------------------------------------------------

# The trees are built over these English words; every leaf is then respelled
# from the seed (`_respell`), so the words reach the program as pseudo-words.
_LEXICON = {
    "DT": ("the", "a", "any", "each", "this"),
    "NN": ("account", "service", "content", "term", "fee", "user", "right", "notice"),
    "NNS": ("terms", "users", "fees", "rights", "claims"),
    "VB": ("terminate", "remove", "change", "suspend", "review", "limit"),
    "VBZ": ("applies", "governs", "includes", "covers"),
    "MD": ("may", "will", "shall"),
    "IN": ("of", "for", "under", "without", "with", "in", "at"),
    "JJ": ("sole", "prior", "any", "applicable", "reasonable"),
    "RB": ("also", "always", "promptly"),
    "PRP": ("we", "you", "it"),
    "CC": ("and", "or"),
    "TO": ("to",),
}

Tree = tuple  # (label, child, ...) for internal nodes; str for a leaf

_UNFAIR_VERBS = ("terminate", "suspend", "remove")


def _leaf(rng: random.Random, tag: str) -> Tree:
    return (tag, rng.choice(_LEXICON[tag]))


def _np(rng: random.Random, depth: int) -> Tree:
    if depth <= 1:
        return ("NP", _leaf(rng, "DT"), _leaf(rng, "NN"))
    r = rng.random()
    if r < 0.45:
        return ("NP", _np(rng, depth - 1), ("PP", _leaf(rng, "IN"), _np(rng, depth - 2)))
    if r < 0.7:
        return ("NP", _leaf(rng, "DT"), ("ADJP", _leaf(rng, "JJ")), _leaf(rng, "NN"))
    if r < 0.85:
        return ("NP", _np(rng, depth - 1), _leaf(rng, "CC"), ("NP", _leaf(rng, "NNS")))
    return ("NP", _leaf(rng, "PRP"))


def _vp(rng: random.Random, depth: int) -> Tree:
    if depth <= 2:
        return ("VP", _leaf(rng, "VBZ"), _np(rng, 1))
    r = rng.random()
    if r < 0.4:
        return ("VP", _leaf(rng, "VBZ"), ("SBAR", _leaf(rng, "IN"), _s(rng, depth - 2)))
    if r < 0.65:
        return ("VP", _leaf(rng, "MD"), ("VP", _leaf(rng, "VB"), _np(rng, depth - 2)))
    if r < 0.85:
        return ("VP", _leaf(rng, "VBZ"), _np(rng, depth - 1), ("PP", _leaf(rng, "IN"), _np(rng, 2)))
    return ("VP", ("ADVP", _leaf(rng, "RB")), _vp(rng, depth - 1))


def _s(rng: random.Random, depth: int) -> Tree:
    return ("S", _np(rng, min(3, max(1, depth - 3))), _vp(rng, depth - 1))


def _motif(verb: str, noun: str, prep: str) -> Tree:
    return (
        "VP",
        ("MD", "may"),
        ("VP", ("VB", verb), ("NP", ("DT", "any"), ("NN", noun)),
         ("PP", ("IN", prep), ("NP", ("JJ", "prior"), ("NN", "notice")))),
    )


def _plant(tree: Tree, motif: Tree) -> Tree:
    """Coordinate the motif with the root's last child, so the rest of the
    tree keeps its random shape."""
    label, *kids = tree
    return (label, *kids[:-1], ("VP", kids[-1], ("CC", "and"), motif))


def tree_depth(tree: Tree) -> int:
    if isinstance(tree, str):
        return 0
    return 1 + max(tree_depth(c) for c in tree[1:])


def tree_internal_nodes(tree: Tree) -> int:
    if isinstance(tree, str):
        return 0
    return 1 + sum(tree_internal_nodes(c) for c in tree[1:])


def tree_leaves(tree: Tree) -> list[str]:
    if isinstance(tree, str):
        return [tree]
    out: list[str] = []
    for c in tree[1:]:
        out.extend(tree_leaves(c))
    return out


def _respell(tree: Tree, spell) -> Tree:
    if isinstance(tree, str):
        return spell(tree)
    return (tree[0], *(_respell(c, spell) for c in tree[1:]))


def _speller(rng: random.Random):
    """Map each word to a pseudo-word, the same one every time it recurs."""
    table: dict[str, str] = {}
    taken: set[str] = set()

    def spell(word: str) -> str:
        if word not in table:
            table[word] = make_words(rng, 1, taken)[0]
        return table[word]

    return spell


def bracketed(tree: Tree) -> str:
    if isinstance(tree, str):
        return tree
    return "(" + tree[0] + " " + " ".join(bracketed(c) for c in tree[1:]) + ")"


def _random_tree(rng: random.Random) -> Tree:
    lo, hi = KERNEL_DEPTH
    while True:
        t = _s(rng, rng.randint(lo - 1, hi - 2))
        if lo <= tree_depth(t) <= hi - 1 and KERNEL_NODES[0] <= tree_internal_nodes(t) <= KERNEL_NODES[1]:
            return t


@dataclass(frozen=True)
class KernelDoc:
    name: str
    raw: str
    trees: tuple[str, ...]  # bracketed, one per sentence
    labels: tuple[bool, ...]
    depths: tuple[int, ...]
    internal_nodes: tuple[int, ...]


def kernel_corpus(seed: int) -> list[KernelDoc]:
    spell = _speller(random.Random(f"kernel:{seed}"))  # spells the words
    rng = random.Random("kernel-shape")  # everything else
    docs: list[KernelDoc] = []
    n = KERNEL_SENTENCES_PER_DOC
    for d in range(KERNEL_DOCS):
        roles = ["pos"] * KERNEL_POSITIVES_PER_DOC + ["decoy"] * KERNEL_DECOYS_PER_DOC
        roles += ["neg"] * (n - len(roles))
        rng.shuffle(roles)
        if d % 2 == 0:  # every other document has one positive with the second motif
            roles[roles.index("pos")] = "hard"
        trees: list[Tree] = []
        labels: list[bool] = []
        for role in roles:
            base = _random_tree(rng)
            if role == "pos":
                base = _plant(base, _motif(rng.choice(_UNFAIR_VERBS), "account", "without"))
            elif role == "hard":  # a second unfair motif, seen in few training documents
                base = _plant(base, ("VP", ("MD", "shall"), ("VP", ("VB", "limit"), ("NP", ("DT", "the"), ("NN", "fee")))))
            elif role == "decoy":
                # a fair clause: the same verbs, another object, and notice is given
                base = _plant(base, _motif(rng.choice(_UNFAIR_VERBS), "content", "with"))
            trees.append(_respell(base, spell))
            labels.append(role in ("pos", "hard"))
        sentences = []
        for t in trees:
            words = tree_leaves(t)
            words[0] = words[0].capitalize()
            sentences.append(" ".join(words) + ".")
        cat = CATEGORIES[d % len(CATEGORIES)]
        pieces = [f"<{cat}3>{s}</{cat}3>" if lab else s for s, lab in zip(sentences, labels)]
        raw = "\n".join(pieces) + "\n"  # one sentence per line: segmentation is exact
        docs.append(
            KernelDoc(
                name=f"doc{d:02d}",
                raw=raw,
                trees=tuple(bracketed(t) for t in trees),
                labels=tuple(labels),
                depths=tuple(tree_depth(t) for t in trees),
                internal_nodes=tuple(tree_internal_nodes(t) for t in trees),
            )
        )
    return docs


# ---------------------------------------------------------------------------
# /analyze request bodies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Body:
    text: str
    labels: tuple[bool, ...]


def request_bodies(docs: list[TextDoc]) -> list[Body]:
    """Bodies covering every sentence of ``docs`` once, in a shuffled order
    that is the same for every seed (the seed reaches them through ``docs``)."""
    rng = random.Random("bodies-shape")
    pool: list[Body] = []
    for k, doc in enumerate(docs):
        if k < POOL_FULL_DOCS:
            pool.append(Body(" ".join(doc.sentences), doc.labels))
            continue
        start = 0
        for length in itertools.cycle(POOL_CUT_CYCLE):
            if start >= len(doc.sentences):
                break
            sl = slice(start, start + length)
            pool.append(Body(" ".join(doc.sentences[sl]), doc.labels[sl]))
            start += length
    rng.shuffle(pool)
    return pool
