from __future__ import annotations

import dataclasses
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    outcome,
    reference_parse_tagged_text,
    reference_project_labels,
    reference_segment_sentences,
    reference_tokenize,
    reinsert_tags,
)

from claudette import corpus
from claudette.corpus import (
    ABBREVIATIONS,
    CATEGORY_BY_SYMBOL,
    FAIRNESS_LEVELS,
    POSITIVE_LEVELS,
    ClauseCategory,
    Corpus,
    CrossedNesting,
    EmptyCorpus,
    EmptyTagSpan,
    LabeledSentence,
    Sentence,
    TagError,
    TagSpan,
    TooManySentences,
    UnbalancedTag,
    UnknownTag,
    _QUOTES,
    corpus_stats,
    load_corpus,
    parse_document,
    parse_tagged_text,
    segment_sentences,
    sentence_spans,
    tokenize,
)


class TestTagGrammar:
    def test_eight_categories_with_unique_symbols(self):
        assert len(ClauseCategory) == 8
        symbols = [c.symbol for c in ClauseCategory]
        assert sorted(symbols) == sorted(set(symbols))
        assert set(symbols) == {"a", "ch", "cr", "j", "law", "ltd", "ter", "use"}
        assert all(s == s.lower() for s in symbols)
        assert all(CATEGORY_BY_SYMBOL[c.symbol] is c for c in ClauseCategory)


class TestParseTaggedText:
    def test_single_span_covers_whole_sentence(self):
        raw = "<j3>Any proceeding must be brought in the courts of Ruritania.</j3>"
        plain, spans = parse_tagged_text(raw)
        assert plain == "Any proceeding must be brought in the courts of Ruritania."
        assert spans == [
            TagSpan(ClauseCategory.JURISDICTION, 3, 0, len(plain))
        ]

    def test_nested_spans_in_opening_order(self):
        raw = "<j1> <a3>Disputes go to arbitration abroad.</a3> </j1>"
        plain, spans = parse_tagged_text(raw)
        assert plain == " Disputes go to arbitration abroad. "
        assert [s.category for s in spans] == [
            ClauseCategory.JURISDICTION,
            ClauseCategory.ARBITRATION,
        ]
        outer, inner = spans
        assert outer.start <= inner.start and inner.end <= outer.end
        assert plain[inner.start : inner.end] == "Disputes go to arbitration abroad."

    def test_untagged_text_is_identity(self):
        plain, spans = parse_tagged_text("no tags here")
        assert plain == "no tags here"
        assert spans == []

    def test_literal_angle_brackets_survive(self):
        plain, spans = parse_tagged_text("prices < 5 and a<b, i <3 you")
        assert plain == "prices < 5 and a<b, i <3 you"
        assert spans == []

    def test_adjacent_spans(self):
        plain, spans = parse_tagged_text("<a2>one</a2><ch2>two</ch2>")
        assert plain == "onetwo"
        assert [(s.start, s.end) for s in spans] == [(0, 3), (3, 6)]

    def test_unknown_symbol(self):
        with pytest.raises(UnknownTag) as err:
            parse_tagged_text("text <zz2>bad</zz2>")
        assert err.value.line == 1
        assert err.value.column == 6

    def test_unknown_level(self):
        with pytest.raises(UnknownTag):
            parse_tagged_text("<a4>level out of range</a4>")
        with pytest.raises(UnknownTag):
            parse_tagged_text("<a>missing level</a>")
        with pytest.raises(UnknownTag):
            parse_tagged_text("<a22>two digit level</a22>")

    def test_symbols_are_case_sensitive(self):
        with pytest.raises(UnknownTag):
            parse_tagged_text("<A2>upper case is not in the grammar</A2>")

    def test_close_without_open(self):
        with pytest.raises(UnbalancedTag):
            parse_tagged_text("text </a2> more")

    def test_eof_with_open_tag_reports_position(self):
        with pytest.raises(UnbalancedTag) as err:
            parse_tagged_text("line one\n<ltd2>never closed")
        assert err.value.line == 2
        assert err.value.column == 1

    def test_crossed_nesting(self):
        with pytest.raises(CrossedNesting):
            parse_tagged_text("<a2>first <j1>second</a2> crossed</j1>")

    def test_mismatched_close_is_unbalanced_not_crossed(self):
        with pytest.raises(UnbalancedTag):
            parse_tagged_text("<a2>first</j1>")

    def test_empty_span_rejected(self):
        with pytest.raises(EmptyTagSpan):
            parse_tagged_text("<a2></a2>")

    def test_lenient_mode_accepts_repeated_opener_as_closer(self):
        raw = "<ltd3>no liability whatsoever.<ltd3>"
        with pytest.raises(UnbalancedTag):
            parse_tagged_text(raw)
        plain, spans = parse_tagged_text(raw, lenient=True)
        assert plain == "no liability whatsoever."
        assert spans == [TagSpan(ClauseCategory.LIMITATION_OF_LIABILITY, 3, 0, len(plain))]

    def test_same_category_level_nesting_is_strict_by_default(self):
        plain, spans = parse_tagged_text("<a2>x<a2>y</a2>z</a2>")
        assert plain == "xyz"
        assert len(spans) == 2

    def test_non_decimal_numerals(self):
        # among the letters, a non-decimal numeral makes the symbol unknown
        for raw, sym in [("<a²>x</a²>", "a²"), ("<a½>x</a½>", "a½"), ("<a²2>x</a²2>", "a²")]:
            with pytest.raises(UnknownTag, match=f"unknown tag symbol '{sym}'"):
                parse_tagged_text(raw)
        # after the level digits, it leaves a '<' that starts no tag
        assert parse_tagged_text("<a2²>x") == ("<a2²>x", [])

    def test_any_decimal_digit_is_a_level(self):
        plain, spans = parse_tagged_text("<a٢>x</a٢>")  # ARABIC-INDIC DIGIT TWO
        assert (plain, spans) == ("x", [TagSpan(ClauseCategory.ARBITRATION, 2, 0, 1)])


class TestTagErrorsInLongDocuments:
    LINE = "words <a2>clause text.</a2> more"
    N_LINES = 2_000

    @pytest.mark.parametrize("where", [0, N_LINES // 2, N_LINES - 1])
    @pytest.mark.parametrize(
        "error, edit, tag",
        [
            (UnknownTag, ("<a2>", "<zz2>"), "<zz2>"),  # unknown symbol at the opener
            (UnbalancedTag, ("<a2>", ""), "</a2>"),  # closer without an opener
            (UnbalancedTag, ("</a2>", ""), "<a2>"),  # opener never closed
        ],
    )
    def test_error_position_at_first_middle_and_last_tag(self, where, error, edit, tag):
        lines = [self.LINE] * self.N_LINES
        lines[where] = lines[where].replace(*edit)
        with pytest.raises(error) as err:
            parse_tagged_text("\n".join(lines))
        assert (err.value.line, err.value.column) == (where + 1, lines[where].index(tag) + 1)

    def test_many_tags_parse_in_bounded_time(self):
        raw = "\n".join([self.LINE] * 40_000)  # 80k tags
        t0 = time.perf_counter()
        plain, spans = parse_tagged_text(raw)
        elapsed = time.perf_counter() - t0
        assert len(spans) == 40_000
        assert plain.count("clause text.") == 40_000
        assert elapsed < 10.0  # linear: well under a second; quadratic took about a minute

    @pytest.mark.parametrize("shape", ["sequential", "nested"])
    def test_many_spans_label_sentences_in_bounded_time(self, shape):
        n = 20_000
        lines = [f"Clause {i} binds you." for i in range(n)]
        if shape == "sequential":
            raw = "\n".join(f"<a2>{line}</a2>" for line in lines)
        else:
            raw = "<a2>" * n + "\n".join(lines) + "</a2>" * n
        t0 = time.perf_counter()
        doc = parse_document(shape, raw)
        elapsed = time.perf_counter() - t0
        assert len(doc.spans) == n
        assert [ls.labels for ls in doc.sentences] == [{(ClauseCategory.ARBITRATION, 2)}] * n
        assert elapsed < 10.0  # linear: about a second; all-pairs projection took 8 s at 4,000 tags


# Recursive strategy for properly tagged text whose spans are all non-empty.
_literal = st.text(alphabet="abc XY.\n,", min_size=1, max_size=6)


def _tagged(children):
    def wrap(args):
        sym, lvl, inner = args
        return f"<{sym}{lvl}>{inner}</{sym}{lvl}>"

    return st.tuples(
        st.sampled_from(sorted(CATEGORY_BY_SYMBOL)),
        st.integers(1, 3),
        children,
    ).map(wrap)


_raw_text = st.recursive(
    _literal,
    lambda children: st.lists(
        st.one_of(_literal, _tagged(children)), min_size=1, max_size=3
    ).map("".join),
    max_leaves=8,
)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(_raw_text)
    def test_reinsert_reproduces_raw(self, raw):
        plain, spans = parse_tagged_text(raw)
        assert reinsert_tags(plain, spans) == raw

    @settings(max_examples=150, deadline=None)
    @given(_raw_text)
    def test_span_count_equals_opening_tag_count(self, raw):
        plain, spans = parse_tagged_text(raw)
        opens = sum(raw.count(f"<{sym}{lvl}>") for sym in CATEGORY_BY_SYMBOL for lvl in (1, 2, 3))
        assert len(spans) == opens


class TestSegmentation:
    def test_two_sentences(self):
        texts = [s.text for s in segment_sentences("Hello world. Bye now.")]
        assert texts == ["Hello world.", "Bye now."]

    def test_abbreviation_keeps_sentence_whole(self):
        assert len(segment_sentences("e.g. This stays whole.")) == 1
        assert len(segment_sentences("See no. 4 for details.")) == 1
        # same boundary shape without an abbreviation splits
        assert len(segment_sentences("See part 4. For details too.")) == 2

    def test_empty_input(self):
        assert segment_sentences("") == []
        assert segment_sentences(" \n\t ") == []

    def test_newline_always_terminates(self):
        sents = segment_sentences("first fragment\nsecond fragment")
        assert [s.text for s in sents] == ["first fragment", "second fragment"]

    def test_lowercase_after_period_does_not_split(self):
        assert len(segment_sentences("the end. but not really the end")) == 1

    def test_digit_after_period_splits(self):
        assert len(segment_sentences("Clause ends here. 2 more follow.")) == 2

    def test_question_and_exclamation(self):
        sents = segment_sentences("Really?! Yes. Fine!")
        assert [s.text for s in sents] == ["Really?!", "Yes.", "Fine!"]

    def test_offsets_match_text(self):
        plain = "One two.  Three four!\n\nFive."
        for s in segment_sentences(plain):
            assert plain[s.start : s.end] == s.text

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="aA bB.!?\n'\"", max_size=60))
    def test_partition_properties(self, plain):
        sents = segment_sentences(plain)
        prev_end = 0
        for s in sents:
            assert s.start >= prev_end
            assert plain[s.start : s.end] == s.text
            assert "\n" not in s.text
            assert not s.text[0].isspace() and not s.text[-1].isspace()
            # the gap we skipped is pure whitespace
            assert plain[prev_end : s.start].strip() == ""
            prev_end = s.end
        assert plain[prev_end:].strip() == ""

    def test_long_leading_punctuation_in_bounded_time(self):
        n = 1_000_000  # fits under serve's default 1 MiB body cap
        t0 = time.perf_counter()
        split = segment_sentences("(" * n + "x. Yes.")
        whole = segment_sentences("(" * n + "e.g. Yes.")
        elapsed = time.perf_counter() - t0
        assert [len(s.text) for s in split] == [n + 2, 4]
        assert [len(s.text) for s in whole] == [n + 9]
        assert elapsed < 10.0  # linear: about a second; stripping one character at a time took 20 s a body

    def test_a_limit_refuses_a_longer_text_before_tokenizing(self, monkeypatch):
        assert [s.text for s in segment_sentences("A b. C d.", limit=2)] == ["A b.", "C d."]
        with monkeypatch.context() as patched:
            patched.setattr(corpus, "tokenize", _no_tokenizing)
            with pytest.raises(TooManySentences, match="over the 2-sentence cap"):
                segment_sentences("A b. C d.\nE f.", limit=2)
        assert sentence_spans("A b. C d.\nE f.", 2) == [(0, 4), (5, 9)]
        assert sentence_spans("A b.", 0) == []

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: "x" * (n - 3) + ". A",  # one token, no whitespace
            lambda n: "." * n,
            lambda n: ("Word. " * (n // 6 + 1))[:n],
        ],
        ids=["one-token", "periods", "words"],
    )
    def test_linear_time_on_hostile_text(self, make):
        small, large = make(100_000), make(1_000_000)
        times: dict[str, list[float]] = {"small": [], "large": []}
        for _ in range(5):  # interleaved, so that a slow stretch of the machine slows both
            for size, text in (("small", small), ("large", large)):
                t0 = time.perf_counter()
                segment_sentences(text)
                times[size].append(time.perf_counter() - t0)
        # linear reads 10-16x for 10x the text; the exact bound on the work
        # is test_the_scan_covers_each_character_a_bounded_number_of_times
        assert min(times["large"]) < 40 * max(min(times["small"]), 0.005)

    @pytest.mark.parametrize(
        "text",
        ["x" * 99_997 + ". A", "." * 100_000, "Word. " * 16_667, "Word.\n" * 16_667],
        ids=["one-token", "periods", "words", "lines"],
    )
    def test_the_scan_covers_each_character_a_bounded_number_of_times(self, text):
        counted = _CountingText(text)
        assert sentence_spans(counted) == sentence_spans(text)
        # linear reads 2-4 characters a character (a 16-character
        # abbreviation window per 6-character "Word. "); a window grown by a
        # fixed step, or a newline search per sentence over the rest of the
        # text, reads thousands
        assert counted.covered <= 5 * len(text)

    def test_the_cut_pattern_admits_every_ascii_sentence_opener(self):
        for c in map(chr, range(0x21, 0x7F)):
            opens = c.isupper() or c.isdigit() or c in _QUOTES
            assert len(sentence_spans(f"A b. {c}x")) == (2 if opens else 1), c

    def test_abbreviation_list_is_reasonably_sized(self):
        assert len(ABBREVIATIONS) >= 60
        assert all(a.endswith(".") and a == a.lower() for a in ABBREVIATIONS)


def _no_tokenizing(text):
    raise AssertionError(f"tokenized {text!r}")


class _CountingText(str):
    """A text that counts the characters its slices and newline searches read."""

    covered = 0

    def __getitem__(self, key):
        item = str.__getitem__(self, key)
        self.covered += len(item)
        return item

    def find(self, sub, start=0, end=None):
        found = str.find(self, sub, start, end)
        self.covered += (len(self) if found < 0 else found) - start
        return found


class TestTokenize:
    def test_plain_words_lowercased(self):
        assert tokenize("You and the Provider agree") == ["you", "and", "the", "provider", "agree"]

    def test_punctuation_boundaries(self):
        assert tokenize("twitter.com/tos") == ["twitter", ".", "com", "/", "tos"]

    def test_empty(self):
        assert tokenize("") == []

    def test_digits_group_with_letters(self):
        assert tokenize("ipv6 2a) x10") == ["ipv6", "2a", ")", "x10"]

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=40))
    def test_properties(self, text):
        tokens = tokenize(text)
        assert all(tokens), "no empty tokens"
        assert all(t == t.lower() for t in tokens)
        # every non-whitespace character survives, in order
        assert "".join(tokens) == "".join(ch.lower() for ch in text if not ch.isspace())


class TestProjectLabels:
    def test_span_covering_two_sentences_labels_both(self):
        plain = "First sentence here. Second sentence there."
        span = TagSpan(ClauseCategory.LIMITATION_OF_LIABILITY, 2, 0, len(plain))
        labeled = segment_sentences(plain, [span])
        assert len(labeled) == 2
        assert all(ls.labels == {(ClauseCategory.LIMITATION_OF_LIABILITY, 2)} for ls in labeled)
        assert all(ls.detection_label for ls in labeled)

    def test_nested_spans_give_both_labels(self):
        raw = "<j1> <a3>Disputes are settled by arbitration in Ruritania.</a3> </j1>"
        plain, spans = parse_tagged_text(raw)
        labeled = segment_sentences(plain, spans)
        assert len(labeled) == 1
        assert labeled[0].labels == {
            (ClauseCategory.JURISDICTION, 1),
            (ClauseCategory.ARBITRATION, 3),
        }
        assert labeled[0].detection_label is True

    def test_level_one_only_is_not_positive(self):
        plain = "Fair clause text."
        span = TagSpan(ClauseCategory.CHOICE_OF_LAW, 1, 0, len(plain))
        (ls,) = segment_sentences(plain, [span])
        assert ls.labels == {(ClauseCategory.CHOICE_OF_LAW, 1)}
        assert ls.detection_label is False

    def test_whitespace_only_overlap_does_not_label(self):
        plain = "One. Two."
        # span covering only the inter-sentence blank
        span = TagSpan(ClauseCategory.ARBITRATION, 2, 4, 5)
        labeled = segment_sentences(plain, [span])
        assert all(not ls.labels for ls in labeled)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_adding_a_span_never_removes_labels(self, data):
        plain = "Alpha beta gamma. Delta epsilon zeta. Eta theta."
        def spans_strategy():
            return st.lists(
                st.tuples(
                    st.sampled_from(list(ClauseCategory)),
                    st.integers(1, 3),
                    st.integers(0, len(plain) - 2),
                ).map(lambda t: TagSpan(t[0], t[1], t[2], min(t[2] + 5, len(plain)))),
                max_size=4,
            )
        spans = data.draw(spans_strategy())
        extra = data.draw(spans_strategy())
        base = segment_sentences(plain, spans)
        more = segment_sentences(plain, spans + extra)
        for b, m in zip(base, more):
            assert b.labels <= m.labels

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_all_pairs_projection(self, data):
        plain = data.draw(st.text(alphabet="a .\nA", min_size=1, max_size=40))
        n = len(plain)
        span = st.builds(
            lambda lvl, bounds: TagSpan(ClauseCategory.ARBITRATION, lvl, *bounds),
            st.integers(1, 2),
            st.integers(0, n - 1).flatmap(lambda a: st.tuples(st.just(a), st.integers(a + 1, n))),
        )
        spans = data.draw(st.lists(span, max_size=10))
        expected = reference_project_labels(spans, reference_segment_sentences(plain))
        assert segment_sentences(plain, spans) == expected


# Differential tests against the character-loop readers kept in conftest.
_PIECES = [
    " ", "\t", "\n", "\x1c", "\xa0", "\u2028",  # whitespace
    "a", "A", "x", "İ", "ß", "_", ".", "!", "?", ",", "(", ")", "<", "/", ">",
    "e.g.", "(e.g.", "U.S.", "no.", "0", "2", "7", "٢", "٧",  # ASCII and Arabic-Indic digits
    *_QUOTES, *CATEGORY_BY_SYMBOL, "<a2>", "</a2>", "<j1>", "</j1>", "<a٢>",
]
_NUMERALS = ["²", "½", "Ⅻ"]  # numeric, not decimal; they change the tag grammar only
# The pieces that decide sentence cuts, so that cut candidates come often.
_CUT_PIECES = ["e.g.", "(e.g.", "U.S.", "no.", "x.", "a", "A", "2", "٢", "!", "?", " ", "\n", "\xa0", *_QUOTES]
# Tokens longer than the abbreviation test's first window (16 characters)
# that end in '.', so that the window doubles; an abbreviation behind a long
# run of non-alphanumerics, which the test strips.
_LONG_PIECES = [
    "Supercalifragilistic.", "x" * 40 + ".", "twitter.com/terms-of-service.", "((((((((e.g.",
    "(" * 20 + "e.g.", "((((((((x.", "-" * 33 + "U.S.", "a" * 15 + "e.g.",
]
# An abbreviation at offset 0 or right after a newline, a no-break space or a
# space, then what may open the next sentence.
_ABBREVIATION_FIRST = st.builds(
    lambda before, abbreviation, after, rest: before + abbreviation + after + rest,
    st.sampled_from(["", "\n", "\xa0", " "]),
    st.sampled_from(sorted(ABBREVIATIONS) + ["E.G.", "(e.g.", "((((((((e.g."]),
    st.sampled_from([" A", " 2", " \"", "\xa0A", " a", "\n", ""]),
    st.lists(st.sampled_from(["e.g.", "no.", "x.", "a", "A", "2", "!", "?", " ", "\n", "\xa0"]), max_size=12).map("".join),
)
# ASCII only, so that tokenize's one-pass ASCII branch runs on every text:
# upper-case words, digits, '_', the separators \x1c-\x1f and abbreviations.
_ASCII_PIECES = [
    " ", "\t", "\n", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", "\x00", "\x7f",
    "a", "Word", "TERMS", "Z", "0", "42", "x7", "_", "__init__", "e.g.", "(e.g.", "U.S.", "u.s.", "No.",
    ".", "!", "?", ",", "(", ")", "/", "<", ">", "\"", "'", "~",
]


def _text(pieces):
    return st.lists(st.sampled_from(pieces), max_size=40).map("".join)


_SEGMENTED_TEXT = st.one_of(
    _text(_PIECES + _NUMERALS), _text(_CUT_PIECES), _text(_ASCII_PIECES), _text(_LONG_PIECES + _CUT_PIECES),
    _ABBREVIATION_FIRST,
)
# Tagged text whose literals are _PIECES texts without the ready-made tags,
# so that most of it is well formed and its spans label sentences.
_LITERAL_PIECES = [p for p in _PIECES + _LONG_PIECES if len(p) == 1 or not p.startswith("<")]
_TAGGED_PIECES = st.recursive(
    _text(_LITERAL_PIECES),
    lambda children: st.lists(st.one_of(_text(_LITERAL_PIECES), _tagged(children)), min_size=1, max_size=3).map(
        "".join
    ),
    max_leaves=6,
)


class TestAgainstCharacterLoops:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_text(_PIECES + _NUMERALS), _text(_ASCII_PIECES)))
    def test_tokenize(self, text):
        assert tokenize(text) == reference_tokenize(text)

    @settings(max_examples=500, deadline=None)
    @given(_SEGMENTED_TEXT)
    def test_segment_sentences(self, text):
        assert segment_sentences(text) == reference_segment_sentences(text)

    @settings(max_examples=300, deadline=None)
    @given(_SEGMENTED_TEXT, st.integers(0, 12))
    def test_a_limited_scan_returns_a_prefix(self, text, limit):
        spans = sentence_spans(text)
        assert spans == [(s.start, s.end) for s in reference_segment_sentences(text)]
        assert sentence_spans(text, limit) == spans[:limit]

    @settings(max_examples=300, deadline=None)
    @given(_TAGGED_PIECES, st.booleans())
    def test_parse_document(self, raw, lenient):
        try:
            plain, spans = reference_parse_tagged_text(raw, lenient)
        except TagError as err:
            with pytest.raises(type(err)):
                parse_document("doc", raw, lenient)
            return
        doc = parse_document("doc", raw, lenient)
        assert (doc.plain_text, list(doc.spans)) == (plain, spans)
        assert list(doc.sentences) == reference_project_labels(spans, reference_segment_sentences(plain))

    @settings(max_examples=300, deadline=None)
    @given(_text(_PIECES), st.booleans())
    def test_parse_tagged_text(self, raw, lenient):
        assert outcome(parse_tagged_text, raw, lenient) == outcome(reference_parse_tagged_text, raw, lenient)


class TestLabeledSentence:
    def test_detection_flag_follows_levels(self):
        def flag(*labels):
            return LabeledSentence(0, 4, "text", ("text",), frozenset(labels)).detection_label

        assert flag() is False
        assert flag((ClauseCategory.ARBITRATION, 1)) is False
        assert flag((ClauseCategory.ARBITRATION, 2)) is True
        assert flag((ClauseCategory.ARBITRATION, 3)) is True
        assert flag((ClauseCategory.ARBITRATION, 1), (ClauseCategory.JURISDICTION, 3)) is True

    @given(
        st.integers(0, 100),
        st.text(max_size=12),
        st.lists(st.text(min_size=1, max_size=4), max_size=5),
        st.lists(st.tuples(st.sampled_from(list(ClauseCategory)), st.sampled_from(FAIRNESS_LEVELS)), max_size=4),
        st.booleans(),
    )
    def test_the_record_keeps_its_fields_and_derives_the_flag(self, start, text, tokens, labels, flag):
        fields = (start, start + len(text), text, tuple(tokens))
        ls = LabeledSentence(*fields, frozenset(labels))
        assert isinstance(ls, Sentence)
        assert tuple(getattr(ls, f.name) for f in dataclasses.fields(Sentence)) == fields
        assert ls.labels == frozenset(labels)
        assert ls.detection_label is any(level in POSITIVE_LEVELS for _, level in labels)
        # the flag is derived, never passed in beside the labels
        with pytest.raises(TypeError):
            LabeledSentence(*fields, frozenset(labels), detection_label=flag)


class TestLoadCorpus:
    def test_mini_corpus_counts(self, mini_corpus):
        assert mini_corpus.M == 3
        assert mini_corpus.N == 17
        assert [d.name for d in mini_corpus.documents] == ["alpha", "beta", "gamma"]
        positives = sum(1 for ls in mini_corpus.all_sentences() if ls.detection_label)
        assert positives == 7

    def test_empty_directory(self, tmp_path):
        with pytest.raises(EmptyCorpus):
            load_corpus(tmp_path)

    def test_parse_error_carries_filename(self, tmp_path):
        (tmp_path / "bad.txt").write_text("<a2>broken", encoding="utf-8")
        with pytest.raises(UnbalancedTag) as err:
            load_corpus(tmp_path)
        assert "bad" in str(err.value)

    def test_deterministic(self, mini_dir):
        a = load_corpus(mini_dir)
        b = load_corpus(mini_dir)
        assert a == b

    def test_untagged_file_yields_all_negative(self, tmp_path):
        (tmp_path / "doc.txt").write_text("Plain text. Nothing tagged here.", encoding="utf-8")
        corpus = load_corpus(tmp_path)
        assert corpus.M == 1
        assert all(not ls.detection_label for ls in corpus.all_sentences())


class TestCorpusStats:
    def test_mini_counts(self, mini_corpus):
        stats = corpus_stats(mini_corpus)
        by_symbol = {cs.category.symbol: cs for cs in stats.per_category}
        assert by_symbol["a"].clause_count == 1 and by_symbol["a"].document_count == 1
        assert by_symbol["law"].clause_count == 0  # level-1 span is not counted
        assert by_symbol["j"].clause_count == 1  # only the level-3 span
        assert stats.total_sentences == 17
        assert stats.positive_sentences == 7
        assert stats.positive_fraction == pytest.approx(7 / 17)

    def test_empty_corpus_all_zeros(self):
        stats = corpus_stats(Corpus(documents=()))
        assert stats.total_sentences == 0
        assert stats.positive_sentences == 0
        assert stats.positive_fraction == 0.0
        assert all(cs.clause_count == 0 for cs in stats.per_category)

    def test_positive_levels_flag(self, mini_corpus):
        only_two = corpus_stats(mini_corpus, positive_levels=(2,))
        both = corpus_stats(mini_corpus)
        assert only_two.positive_sentences <= both.positive_sentences
        # mini corpus has level-3 spans, so restricting to level 2 drops some
        assert only_two.positive_sentences < both.positive_sentences
