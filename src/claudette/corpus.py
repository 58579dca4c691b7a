"""Tagged Terms-of-Service corpus handling.

A corpus document is a UTF-8 text file with inline clause annotations of the
form ``<SYMLVL>...</SYMLVL>``, where SYM is one of eight clause-category
symbols and LVL is a fairness level in 1..3.  A tag is ``<`` or ``</``,
letters, decimal digits and ``>``; any other ``<`` is text.  This module
strips the tags, segments the plain text into tokenized sentences and
projects the clause spans onto them as (category, level) labels.

Segmentation has two phases.  :func:`sentence_spans` finds every sentence's
range in one scan, whose cut candidates come from a C-level pattern search,
and can stop after a limit of sentences.  :func:`segment_sentences` then
builds each sentence's record once, with its tokens and, for a training
document, its labels.  Each step is one pass of a compiled pattern or a
merge of sorted ranges, so the time is linear in the document.
"""

from __future__ import annotations

import bisect
import hashlib
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence


class ClauseCategory(Enum):
    """The eight annotated clause categories and their tag symbols."""

    ARBITRATION = "a"
    UNILATERAL_CHANGE = "ch"
    CONTENT_REMOVAL = "cr"
    JURISDICTION = "j"
    CHOICE_OF_LAW = "law"
    LIMITATION_OF_LIABILITY = "ltd"
    UNILATERAL_TERMINATION = "ter"
    CONTRACT_BY_USING = "use"

    @property
    def symbol(self) -> str:
        return self.value

    @property
    def display_name(self) -> str:
        return _DISPLAY_NAMES[self]


_DISPLAY_NAMES = {
    ClauseCategory.ARBITRATION: "Arbitration",
    ClauseCategory.UNILATERAL_CHANGE: "Unilateral change",
    ClauseCategory.CONTENT_REMOVAL: "Content removal",
    ClauseCategory.JURISDICTION: "Jurisdiction",
    ClauseCategory.CHOICE_OF_LAW: "Choice of law",
    ClauseCategory.LIMITATION_OF_LIABILITY: "Limitation of liability",
    ClauseCategory.UNILATERAL_TERMINATION: "Unilateral termination",
    ClauseCategory.CONTRACT_BY_USING: "Contract by using",
}

CATEGORY_BY_SYMBOL = {c.symbol: c for c in ClauseCategory}

FAIRNESS_LEVELS = (1, 2, 3)

#: Levels counted as "potentially unfair" when projecting detection labels.
POSITIVE_LEVELS = (2, 3)


class CorpusError(ValueError):
    """Base class for corpus-format problems."""


class TagError(CorpusError):
    """Annotation-grammar violation, located at a line/column of the raw file."""

    def __init__(self, message: str, line: int, column: int, filename: str | None = None):
        self.message = message
        self.line = line
        self.column = column
        self.filename = filename
        where = f"{filename}: " if filename else ""
        super().__init__(f"{where}{message} (line {line}, column {column})")

    def with_filename(self, filename: str) -> "TagError":
        return type(self)(self.message, self.line, self.column, filename)


class UnknownTag(TagError):
    pass


class UnbalancedTag(TagError):
    pass


class CrossedNesting(TagError):
    pass


class EmptyTagSpan(TagError):
    pass


class EmptyCorpus(CorpusError):
    pass


@dataclass(frozen=True)
class TagSpan:
    """One annotated clause: category, fairness level, and a half-open
    character range into the tag-stripped text."""

    category: ClauseCategory
    level: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.level not in FAIRNESS_LEVELS:
            raise ValueError(f"fairness level must be 1..3, got {self.level}")
        if not 0 <= self.start < self.end:
            raise ValueError(f"bad span range [{self.start}, {self.end})")


@dataclass(frozen=True)
class Sentence:
    """A sentence of the plain text: char range, the substring, its tokens."""

    start: int
    end: int
    text: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class LabeledSentence(Sentence):
    """A sentence with its (category, level) labels.  Its detection label,
    "potentially unfair", is derived from them: some label's level is in
    ``POSITIVE_LEVELS``."""

    labels: frozenset[tuple[ClauseCategory, int]]
    detection_label: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "detection_label", any(level in POSITIVE_LEVELS for _, level in self.labels))

    def positive_categories(self) -> frozenset[ClauseCategory]:
        return frozenset(c for c, l in self.labels if l in POSITIVE_LEVELS)


@dataclass(frozen=True)
class Document:
    name: str
    sentences: tuple[LabeledSentence, ...]
    spans: tuple[TagSpan, ...]
    plain_text: str


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]

    @property
    def M(self) -> int:
        return len(self.documents)

    @property
    def N(self) -> int:
        return sum(len(d.sentences) for d in self.documents)

    def all_sentences(self) -> list[LabeledSentence]:
        out: list[LabeledSentence] = []
        for d in self.documents:
            out.extend(d.sentences)
        return out


# ---------------------------------------------------------------------------
# Tag parsing
# ---------------------------------------------------------------------------

def _line_col(text: str, offset: int) -> tuple[int, int]:
    line = text.count("\n", 0, offset) + 1
    last_nl = text.rfind("\n", 0, offset)
    return line, offset - last_nl  # column is 1-based


#: A tag candidate: ``<`` or ``</``, letters, decimal digits, ``>``.  The
#: letters class also takes non-decimal numerals (``²``, ``½``), so a tag
#: holding one is an unknown symbol rather than literal text.
_TAG = re.compile(r"<(/?)([^\W\d_]+)(\d*)>")


def parse_tagged_text(raw: str, lenient: bool = False) -> tuple[str, list[TagSpan]]:
    """Strip clause tags from ``raw`` and return the plain text together with
    one TagSpan per open/close pair, in opening-tag order.

    Offsets in the returned spans index the plain text.  With ``lenient`` set,
    an opening tag that repeats the currently open (category, level) is
    accepted as its closer — some released annotations contain this artifact.
    """
    plain_parts: list[str] = []
    plain_len = 0
    spans: list[TagSpan | None] = []
    # stack entries: (category, level, plain_start, slot in `spans`, raw_offset)
    stack: list[tuple[ClauseCategory, int, int, int, int]] = []

    pos = 0
    for tag in _TAG.finditer(raw):
        # any '<' outside a match cannot start a tag and stays literal text
        lt = tag.start()
        plain_parts.append(raw[pos:lt])
        plain_len += lt - pos
        slash, sym, lvl = tag.groups()
        closing = slash == "/"
        category = CATEGORY_BY_SYMBOL.get(sym)
        if category is None:
            raise UnknownTag(f"unknown tag symbol {sym!r}", *_line_col(raw, lt))
        if len(lvl) != 1 or int(lvl) not in FAIRNESS_LEVELS:
            raise UnknownTag(f"bad fairness level {lvl!r} on tag <{sym}{lvl}>", *_line_col(raw, lt))
        level = int(lvl)

        if not closing and lenient and stack and stack[-1][0] is category and stack[-1][1] == level:
            closing = True  # repeated opener closes the innermost identical tag

        if not closing:
            stack.append((category, level, plain_len, len(spans), lt))
            spans.append(None)
        else:
            if not stack:
                raise UnbalancedTag(f"closing </{sym}{lvl}> without matching open tag", *_line_col(raw, lt))
            top_cat, top_lvl, start, slot, _ = stack[-1]
            if top_cat is not category or top_lvl != level:
                if any(c is category and l == level for c, l, *_ in stack):
                    raise CrossedNesting(
                        f"closing </{sym}{lvl}> crosses inner <{top_cat.symbol}{top_lvl}>",
                        *_line_col(raw, lt),
                    )
                raise UnbalancedTag(f"closing </{sym}{lvl}> without matching open tag", *_line_col(raw, lt))
            stack.pop()
            if plain_len == start:
                raise EmptyTagSpan(f"tag <{sym}{lvl}> encloses no text", *_line_col(raw, lt))
            spans[slot] = TagSpan(category=category, level=level, start=start, end=plain_len)
        pos = tag.end()
    plain_parts.append(raw[pos:])

    if stack:
        cat, lvl_open, _, _, raw_off = stack[-1]
        raise UnbalancedTag(f"tag <{cat.symbol}{lvl_open}> never closed", *_line_col(raw, raw_off))

    assert all(s is not None for s in spans)
    return "".join(plain_parts), [s for s in spans if s is not None]


# ---------------------------------------------------------------------------
# Sentence segmentation and tokenization
# ---------------------------------------------------------------------------

# Tokens (lowercased, trailing period included) that never end a sentence.
ABBREVIATIONS = frozenset({
    "e.g.", "i.e.", "etc.", "cf.", "viz.", "vs.", "v.", "al.", "et.",
    "no.", "nos.", "art.", "arts.", "sec.", "secs.", "para.", "paras.",
    "ch.", "chs.", "fig.", "figs.", "vol.", "vols.", "pp.", "p.", "pt.",
    "inc.", "ltd.", "llc.", "llp.", "plc.", "co.", "corp.", "bros.",
    "mr.", "mrs.", "ms.", "dr.", "prof.", "rev.", "hon.", "jr.", "sr.",
    "st.", "ave.", "blvd.", "rd.", "dept.", "dist.", "div.", "est.",
    "approx.", "appx.", "misc.", "min.", "max.", "tel.", "ext.", "attn.",
    "a.m.", "p.m.", "u.s.", "u.s.a.", "u.k.", "e.u.", "n.b.", "ph.d.",
    "jan.", "feb.", "mar.", "apr.", "jun.", "jul.", "aug.", "sep.",
    "sept.", "oct.", "nov.", "dec.", "mon.", "tue.", "wed.", "thu.",
    "fri.", "sat.", "sun.", "govt.", "acct.", "assn.", "esq.",
})

_QUOTES = "\"'“”‘’«»"

#: A cut candidate: a '.', '!' or '?' followed by whitespace and then,
#: captured, a character that may open a sentence: an ASCII capital, digit
#: or quote of ``_QUOTES``, or any non-ASCII non-whitespace character (tested
#: in Python).  Newlines are found with ``str.find``.
_CUT = re.compile(
    r"[.!?](?=\s+([0-9A-Z" + re.escape("".join(q for q in _QUOTES if q.isascii())) + r"]|[^\x00-\x7f\s]))"
)
_NONSPACE = re.compile(r"\S")
#: An alphanumeric run or one other non-whitespace character.
_TOKEN = re.compile(r"[^\W_]+|\S")
#: ``_TOKEN`` on lowercased ASCII text, where ``[^\W_]`` is ``[a-z0-9]``;
#: ``\S`` stays Unicode, so ``\x1c``-``\x1f`` are still whitespace.  The
#: plain class matches faster than ``[^\W_]``'s Unicode category test.
_ASCII_TOKEN = re.compile(r"[a-z0-9]+|\S")
_ALNUM = re.compile(r"[^\W_]")


class TooManySentences(CorpusError):
    """A text segments into more sentences than the caller's limit."""


def _abbreviation_at(plain: str, dot: int) -> bool:
    """Whether the token ending at the period at ``dot``, from its first
    alphanumeric on, is an abbreviation.  The token starts after the last
    whitespace of a window ending at ``dot``; the window doubles only while
    it holds none, so the work is linear in the token's length."""
    width = 16  # the longest abbreviation has 7 characters
    while True:
        lo = max(dot + 1 - width, 0)
        token = plain[lo : dot + 1].rsplit(None, 1)[-1]
        if lo == 0 or len(token) < dot + 1 - lo:
            break
        width *= 2
    word = token.lower()
    first = _ALNUM.search(word)
    return first is not None and word[first.start() :] in ABBREVIATIONS


def sentence_spans(plain: str, limit: int | None = None) -> list[tuple[int, int]]:
    """Segmentation's first phase: the ``(start, end)`` range of each
    sentence of ``plain``, stripped of surrounding whitespace, in text order;
    with a ``limit``, the scan stops at the ``limit``-th.

    Any newline ends a sentence (paragraph break).  A '.', '!' or '?' ends
    one when followed by whitespace whose next non-whitespace character is an
    uppercase letter, a digit or a quote, unless the token before a period is
    a known abbreviation.  A whitespace-only stretch yields no sentence.
    Cut candidates come from one C-level scan, consumed in step with the
    sentences, so the time is linear in the text up to the last span found.
    """
    spans: list[tuple[int, int]] = []
    cuts = _CUT.finditer(plain)
    cut = next(cuts, None)
    first = _NONSPACE.search(plain)
    start = first.start() if first else -1  # the next sentence's first character
    stop = -1  # the first newline at or after start, or the end
    while start >= 0 and len(spans) != limit:
        if stop < start:
            stop = plain.find("\n", start)
            if stop < 0:
                stop = len(plain)
        while cut is not None and cut.start() < stop:
            mark, after = cut.start(), cut.start(1)
            cut = next(cuts, None)
            nxt = plain[after]
            if (nxt.isupper() or nxt.isdigit() or nxt in _QUOTES) and not (
                plain[mark] == "." and _abbreviation_at(plain, mark)
            ):
                spans.append((start, mark + 1))
                start = after  # the whitespace after the mark holds no sentence
                break
        else:  # the sentence runs to the newline or the end, less trailing whitespace
            spans.append((start, start + len(plain[start:stop].rstrip())))
            first = _NONSPACE.search(plain, stop)
            start = first.start() if first else -1
    return spans


def segment_sentences(
    plain: str, tags: Sequence[TagSpan] | None = None, limit: int | None = None
) -> list[Sentence]:
    """Rule-based sentence segmenter: :func:`sentence_spans`, then each
    sentence's record built once, with its tokens.

    Given the document's ``tags``, every record is a :class:`LabeledSentence`
    carrying the labels they project onto it (:func:`_project_labels`);
    otherwise a :class:`Sentence`.  With a ``limit``, a text of more than
    ``limit`` sentences raises :class:`TooManySentences` as soon as the scan
    has found ``limit + 1``, before any sentence is tokenized.
    """
    spans = sentence_spans(plain, None if limit is None else limit + 1)
    if limit is not None and len(spans) > limit:
        raise TooManySentences(f"text is over the {limit}-sentence cap")
    texts = [plain[start:end] for start, end in spans]
    tokens = [tuple(tokenize(text)) for text in texts]
    if tags is None:
        return [Sentence(s, e, text, toks) for (s, e), text, toks in zip(spans, texts, tokens)]
    labels = _project_labels(tags, spans, texts)
    return [
        LabeledSentence(s, e, text, toks, lab)
        for (s, e), text, toks, lab in zip(spans, texts, tokens, labels)
    ]


def tokenize(sentence_text: str) -> list[str]:
    """Lowercased tokens: alphanumeric runs, with every punctuation mark a
    standalone token.  "twitter.com/tos" -> [twitter, ., com, /, tos].

    ASCII text is lowercased once and split in one pass: there ``lower()``
    changes only A-Z, so it moves no token boundary.  Other text is split
    first, since lowercasing may change its length (``İ``).
    """
    if sentence_text.isascii():
        return _ASCII_TOKEN.findall(sentence_text.lower())
    return [token.lower() for token in _TOKEN.findall(sentence_text)]


# ---------------------------------------------------------------------------
# Label projection and corpus loading
# ---------------------------------------------------------------------------

def _project_labels(
    tags: Sequence[TagSpan], spans: Sequence[tuple[int, int]], texts: Sequence[str]
) -> list[frozenset[tuple[ClauseCategory, int]]]:
    """The (category, level) labels of each sentence: those of every tag
    whose range overlaps the sentence by at least one non-whitespace
    character.  A tag covering several sentences labels each of them.
    ``spans`` are the sentences' disjoint ranges in text order, ``texts``
    their substrings.

    The tags of each (category, level) are merged into disjoint ranges, and
    each range visits only the sentences it overlaps, so the time is linear
    in tags plus sentences.  A sentence overlaps the union of a key's tags
    on a non-whitespace character exactly when it so overlaps one of them.
    """
    merged: dict[tuple[ClauseCategory, int], list[list[int]]] = {}
    for tag in sorted(tags, key=lambda t: t.start):
        ranges = merged.setdefault((tag.category, tag.level), [])
        if ranges and tag.start <= ranges[-1][1]:
            ranges[-1][1] = max(ranges[-1][1], tag.end)
        else:
            ranges.append([tag.start, tag.end])
    ends = [end for _, end in spans]
    labels: list[set[tuple[ClauseCategory, int]]] = [set() for _ in spans]
    for key, ranges in merged.items():
        for a, b in ranges:
            i = bisect.bisect_right(ends, a)
            while i < len(spans) and spans[i][0] < b:
                start = spans[i][0]
                if not texts[i][max(a - start, 0) : b - start].isspace():
                    labels[i].add(key)
                i += 1
    return [frozenset(l) for l in labels]


def parse_document(name: str, raw: str, lenient: bool = False) -> Document:
    try:
        plain, tags = parse_tagged_text(raw, lenient=lenient)
    except TagError as err:
        raise err.with_filename(name) from None
    sentences = segment_sentences(plain, tags)
    return Document(name=name, sentences=tuple(sentences), spans=tuple(tags), plain_text=plain)


def load_corpus(directory: str | Path, lenient: bool = False) -> Corpus:
    """Load every tagged .txt file under ``directory`` (sorted by filename)."""
    directory = Path(directory)
    files = sorted(directory.glob("*.txt"))
    if not files:
        raise EmptyCorpus(f"no .txt documents found in {directory}")
    documents = []
    seen: set[str] = set()
    for path in files:
        name = path.stem
        if name in seen:
            raise CorpusError(f"duplicate document name {name!r}")
        seen.add(name)
        try:
            raw = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as err:
            raise CorpusError(f"{path}: not valid UTF-8: {err}") from None
        documents.append(parse_document(name, raw, lenient=lenient))
    return Corpus(documents=tuple(documents))


def corpus_fingerprint(directory: str | Path) -> str:
    """Stable hash of the corpus directory contents (filenames + bytes)."""
    directory = Path(directory)
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.txt")):
        h.update(path.name.encode("utf-8"))
        h.update(b"\x00")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Corpus statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CategoryStats:
    category: ClauseCategory
    clause_count: int
    document_count: int


@dataclass(frozen=True)
class StatsTable:
    per_category: tuple[CategoryStats, ...]
    n_documents: int
    total_sentences: int
    positive_sentences: int
    min_rate_document: str
    min_rate: float
    max_rate_document: str
    max_rate: float
    positive_levels: tuple[int, ...] = POSITIVE_LEVELS

    @property
    def positive_fraction(self) -> float:
        if self.total_sentences == 0:
            return 0.0
        return self.positive_sentences / self.total_sentences


def corpus_stats(corpus: Corpus, positive_levels: Sequence[int] = POSITIVE_LEVELS) -> StatsTable:
    """Per-category clause/document counts plus sentence-level positive rates.

    ``positive_levels`` selects which fairness levels count as potentially
    unfair (default: 2 and 3).
    """
    positive_levels = tuple(positive_levels)
    per_category = []
    for category in ClauseCategory:
        clause_count = 0
        document_count = 0
        for doc in corpus.documents:
            in_doc = sum(
                1 for s in doc.spans if s.category is category and s.level in positive_levels
            )
            clause_count += in_doc
            if in_doc:
                document_count += 1
        per_category.append(CategoryStats(category, clause_count, document_count))

    def is_positive(ls: LabeledSentence) -> bool:
        return any(l in positive_levels for _, l in ls.labels)

    total = corpus.N
    positives = sum(1 for ls in corpus.all_sentences() if is_positive(ls))

    min_doc, min_rate = "", 0.0
    max_doc, max_rate = "", 0.0
    rates = [
        (doc.name, sum(1 for ls in doc.sentences if is_positive(ls)) / len(doc.sentences))
        for doc in corpus.documents
        if doc.sentences
    ]
    if rates:
        min_doc, min_rate = min(rates, key=lambda r: (r[1], r[0]))
        max_doc, max_rate = max(rates, key=lambda r: (r[1], r[0]))

    return StatsTable(
        per_category=tuple(per_category),
        n_documents=corpus.M,
        total_sentences=total,
        positive_sentences=positives,
        min_rate_document=min_doc,
        min_rate=min_rate,
        max_rate_document=max_doc,
        max_rate=max_rate,
        positive_levels=positive_levels,
    )
