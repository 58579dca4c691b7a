from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from itertools import accumulate, chain, product
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
import pytest

from claudette import seqmodel
from claudette.cli import main
from claudette.corpus import (
    ABBREVIATIONS,
    CATEGORY_BY_SYMBOL,
    FAIRNESS_LEVELS,
    ClauseCategory,
    CrossedNesting,
    EmptyTagSpan,
    LabeledSentence,
    Sentence,
    TagSpan,
    UnbalancedTag,
    UnknownTag,
    _line_col,
    load_corpus,
)
from claudette.features import Rows, extract_terms, tfidf_rows
from claudette.svm import DimensionMismatch, EmptyData, KernelModel, LinearModel, box_constraints
from claudette.treekernel import CompiledTrees, enumerate_fragments_oracle
from claudette.trees import MAX_DEPTH, EmptyNode, ParseTree, TrailingInput, TreeTooDeep, UnbalancedParens

FIXTURES = Path(__file__).parent / "fixtures"


def rows_from_pairs(rows, dim: int) -> Rows:
    """A ``Rows`` batch from one list of (index, value) pairs per row; each
    row's indices must be strictly increasing and within [0, dim)."""
    indptr, indices, data = [0], [], []
    for pairs in rows:
        idx = [int(i) for i, _ in pairs]
        if any(a >= b for a, b in zip(idx, idx[1:])) or any(not 0 <= i < dim for i in idx):
            raise ValueError(f"row indices {idx} are not strictly increasing within [0, {dim})")
        indices.extend(idx)
        data.extend(float(v) for _, v in pairs)
        indptr.append(len(indices))
    return Rows(
        np.array(indptr, dtype=np.int64),
        np.array(indices, dtype=np.int64),
        np.array(data, dtype=np.float64),
        dim,
    )


def production(node: ParseTree) -> tuple[str, tuple[str, ...]] | None:
    """A node's label plus its ordered child labels; None for a leaf."""
    if not node.children:
        return None
    return node.label, tuple(c.label for c in node.children)


def document(corpus, name: str):
    """The document of ``corpus`` named ``name``; a ``KeyError`` if none is."""
    return {d.name: d for d in corpus.documents}[name]


# ---------------------------------------------------------------------------
# References the tests compare the program against
# ---------------------------------------------------------------------------

def reinsert_tags(plain: str, spans) -> str:
    """Inverse of ``parse_tagged_text``: put the tags back at their span
    offsets.  Closes are emitted before opens at the same position; spans
    closing at the same position unwind innermost-first."""
    opens: dict[int, list[int]] = defaultdict(list)
    closes: dict[int, list[int]] = defaultdict(list)
    for idx, s in enumerate(spans):
        opens[s.start].append(idx)
        closes[s.end].append(idx)
    out: list[str] = []
    for p in range(len(plain) + 1):
        for idx in sorted(closes.get(p, ()), reverse=True):
            s = spans[idx]
            out.append(f"</{s.category.symbol}{s.level}>")
        for idx in opens.get(p, ()):
            s = spans[idx]
            out.append(f"<{s.category.symbol}{s.level}>")
        if p < len(plain):
            out.append(plain[p])
    return "".join(out)


def linear_objective(model, X: Rows, y, cfg) -> float:
    """Primal objective 0.5*||w||^2 + sum_i C_i * hinge_i of a fitted linear model."""
    y_arr = np.asarray(y, dtype=np.float64)
    total = 0.5 * float(np.dot(model.w, model.w))
    for score, yi, ci in zip(predict_linear(model, X), y_arr, box_constraints(cfg, y_arr)):
        total += ci * max(0.0, 1.0 - yi * score)
    return total


def recomputed_kkt_violation(gram, y, alpha: np.ndarray, cfg) -> float:
    """SMO's stopping measure m(alpha) - M(alpha), recomputed from scratch."""
    y_arr = np.asarray(y, dtype=np.float64)
    C_arr = box_constraints(cfg, y_arr)
    grad = gram.matrix @ (alpha * y_arr) * y_arr - 1.0
    neg_yg = -y_arr * grad
    up_mask = np.where(y_arr > 0, alpha < C_arr, alpha > 0)
    low_mask = np.where(y_arr > 0, alpha > 0, alpha < C_arr)
    if not up_mask.any() or not low_mask.any():
        return 0.0
    return float(np.max(neg_yg[up_mask]) - np.min(neg_yg[low_mask]))


def reference_train_smo(gram, rows, y, cfg) -> KernelModel:
    """``svm.train_smo`` as it was before it kept its selection state between
    iterations: every iteration rebuilds -y * grad, both masks and both
    masked copies over all training rows.  The differential reference for
    the solver; apart from the name, and the input checks left out, the loop
    is unchanged."""
    K = gram.matrix
    n = len(rows)
    y_arr = np.asarray(y, dtype=np.float64)
    C_arr = box_constraints(cfg, y_arr)
    alpha = np.zeros(n, dtype=np.float64)
    grad = -np.ones(n, dtype=np.float64)  # gradient of 0.5 a'Qa - e'a
    warning = None
    violation = np.inf
    b = 0.0
    it = 0
    while True:
        neg_yg = -y_arr * grad
        up_mask = np.where(y_arr > 0, alpha < C_arr, alpha > 0)
        low_mask = np.where(y_arr > 0, alpha > 0, alpha < C_arr)
        if not up_mask.any() or not low_mask.any():
            violation = 0.0
            break
        up_vals = np.where(up_mask, neg_yg, -np.inf)
        low_vals = np.where(low_mask, neg_yg, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        m_up = up_vals[i]
        m_low = low_vals[j]
        violation = m_up - m_low
        b = 0.5 * (m_up + m_low)
        if violation < cfg.tol:
            break
        if it >= cfg.max_iter:
            warning = f"no-convergence: KKT violation {violation:.3e} after {it} iterations"
            break

        ri, rj = rows[i], rows[j]
        quad = K[ri, ri] + K[rj, rj] - 2.0 * K[ri, rj]
        if quad <= 0.0:
            quad = 1e-12
        step = violation / quad
        # alpha_i moves by +y_i*step, alpha_j by -y_j*step; clip to the box
        if y_arr[i] > 0:
            step = min(step, C_arr[i] - alpha[i])
        else:
            step = min(step, alpha[i])
        if y_arr[j] > 0:
            step = min(step, alpha[j])
        else:
            step = min(step, C_arr[j] - alpha[j])
        alpha[i] += y_arr[i] * step
        alpha[j] -= y_arr[j] * step
        # rows, not columns: K is symmetric, and a row of a C-order matrix is contiguous
        grad += step * y_arr * (K[ri] - K[rj])[rows]
        it += 1

    support = np.flatnonzero(alpha > 0.0)
    return KernelModel(
        support_idx=support,
        coef=alpha[support] * y_arr[support],
        b=float(b),
        lam=gram.lam,
        normalized=gram.normalized,
        n_train=n,
        kkt_violation=float(violation),
        warning=warning,
    )


def left_to_right(values) -> float:
    """``0.0`` plus each of ``values`` in turn, in Python floats: the order in
    which ``Rows.row_sums`` adds a row.  Not ``sum()``, which Python 3.12 made
    compensated."""
    total = 0.0
    for v in values:
        total += v
    return total


def row_dots(xs: Rows, w) -> list[float]:
    """Each row's ``w . x``: ``left_to_right`` of its Python-float products
    ``w[i] * value`` in column order (``0.0`` for an empty row)."""
    bounds = xs.indptr.tolist()
    return [
        left_to_right(w[i] * v for i, v in zip(xs.indices[a:b].tolist(), xs.data[a:b].tolist()))
        for a, b in zip(bounds, bounds[1:])
    ]


def per_row_emissions(model, xs: Rows) -> np.ndarray:
    """The (T, L) emissions, each label's ``row_dots``: the reference for the lattice."""
    E = np.array([row_dots(xs, w) for w in model.emissions.tolist()], dtype=np.float64)
    return E.reshape(model.n_labels, len(xs)).T


def loss_lattice(E: np.ndarray, gold) -> np.ndarray:
    """``E`` plus the margin loss: +1 off gold, +0 on gold."""
    loss = np.ones_like(E)
    loss[np.arange(len(gold)), gold] = 0.0
    return E + loss


def lattice_path_score(model, E: np.ndarray, ys) -> float:
    """Reference accumulation over a lattice, mirroring the decoder's order."""
    s = model.start[ys[0]] + E[0, ys[0]]
    for t in range(1, len(ys)):
        s = s + model.transitions[ys[t - 1], ys[t]]
        s = s + E[t, ys[t]]
    return float(s)


def brute_force_best(model, E: np.ndarray):
    """Exhaustive argmax with the documented tie rule: among optimal label
    sequences, the one whose reversed tuple is lexicographically smallest."""
    k, L = E.shape
    best_score = None
    candidates = []
    for ys in product(range(L), repeat=k):
        s = lattice_path_score(model, E, ys)
        if best_score is None or s > best_score:
            best_score = s
            candidates = [ys]
        elif s == best_score:
            candidates.append(ys)
    winner = min(candidates, key=lambda ys: tuple(reversed(ys)))
    return list(winner), best_score


def sentence_of(tokens: Sequence[str]) -> Sentence:
    """A ``Sentence`` holding ``tokens``, its text the tokens joined by spaces."""
    text = " ".join(tokens)
    return Sentence(0, len(text), text, tuple(tokens))


def vectorize_all(sentences, trees, vocab, config) -> Rows:
    """The rows of ``features.tfidf_rows`` packed into one numpy batch: the
    reference that the parity tests compare a table's rows and a
    ``Predictor``'s scores against."""
    rows = tfidf_rows(sentences, trees, vocab, config)
    indptr = np.cumsum(np.array([0] + [len(cols) for cols, _ in rows], dtype=np.int64))
    indices = np.fromiter(chain.from_iterable(cols for cols, _ in rows), np.int64, indptr[-1])
    data = np.fromiter(chain.from_iterable(weights for _, weights in rows), np.float64, indptr[-1])
    return Rows(indptr, indices, data, vocab.size)


def csr_dot(X: Rows, w: np.ndarray) -> list[float]:
    """``w . x`` of every row of the batch: one gather, one multiply,
    ``Rows.row_sums``."""
    if w.shape[0] != X.dim:
        raise DimensionMismatch(f"input dim {X.dim} != weights dim {w.shape[0]}")
    return X.row_sums(w[X.indices] * X.data).tolist()


def predict_linear(model: LinearModel, X: Rows) -> list[float]:
    """Decision score ``w.x + b`` of every row of the batch, through
    ``csr_dot``: the numpy reference of the scores ``analyze.decide`` adds
    in Python floats."""
    return [s + model.b for s in csr_dot(X, model.w)]


def predict_kernel_csr(model: KernelModel, K: np.ndarray) -> list[float]:
    """Kernel scores as ``svm.predict_kernel`` once took them: the dense rows
    ``K`` packed into a ``Rows`` batch, ``csr_dot`` with the coefficients,
    then ``b``."""
    n, m = K.shape
    rows = Rows(np.arange(n + 1) * m, np.tile(np.arange(m), n), K.reshape(-1), m)
    return [s + model.b for s in csr_dot(rows, model.coef)]


def chain_lattice(model, xs: Rows, gold=None) -> list[list[float]]:
    """``seqmodel._lattice`` of ``xs`` over its plan for ``gold`` (margin
    loss included), after checking the sequence: an empty one is
    ``EmptyData``, a dim other than the model's ``DimensionMismatch``."""
    if not len(xs):
        raise EmptyData("empty sequence")
    if xs.dim != model.dim:
        raise DimensionMismatch(f"vector dim {xs.dim} != model dim {model.dim}")
    return seqmodel._lattice(model, xs, seqmodel._plan(xs, model.n_labels, gold))


def viterbi(model, xs: Rows) -> tuple[list[int], float]:
    """The highest-scoring label sequence of ``xs`` and its score, from the
    decoder that prediction runs."""
    return seqmodel._decode(model, chain_lattice(model, xs))[:2]


def structured_objective(model, examples, C: float) -> float:
    """0.5*||W||^2 + C * sum of structured hinges on ``examples``, the
    objective ``train_chain`` minimizes; as in ``train_chain``, gold labels
    outside ``[0, L)`` raise ``UnknownLabel``."""
    reg = 0.5 * (
        float(np.sum(model.emissions**2))
        + float(np.sum(model.transitions**2))
        + float(np.sum(model.start**2))
    )
    hinge = 0.0
    for ex in examples:
        _, aug, gold = seqmodel._decode(model, chain_lattice(model, ex.xs, ex.ys), ex.ys)
        hinge += max(0.0, aug - gold)
    return reg + C * hinge


def loss_augmented_decode(model, xs: Rows, gold):
    """The trainer's loss-augmented Viterbi pass, over the lattice that holds
    the margin loss: best path and its score."""
    return seqmodel._decode(model, chain_lattice(model, xs, gold), gold)[:2]


def sstk(t1: ParseTree, t2: ParseTree, lam: float) -> float:
    """The raw SubSet Tree Kernel of two trees, through the public API: ``t1``
    as a query against ``t2`` compiled alone."""
    return float(CompiledTrees([t2], lam, normalize=False).rows([t1])[0, 0])


def fragment_pair_kernel(t1: ParseTree, t2: ParseTree, lam: float) -> float:
    """The kernel from explicit fragment enumeration: each matching fragment
    pair adds ``lam ** e``, ``e`` being its count of expanded nodes (of ``(``
    in its canonical string).  At lam = 1 it counts matching pairs."""
    f1 = enumerate_fragments_oracle(t1)
    f2 = enumerate_fragments_oracle(t2)
    total = 0.0
    for frag, c1 in f1.items():
        c2 = f2.get(frag)
        if c2:
            total += c1 * c2 * lam ** frag.count("(")
    return total


def reference_term_table(sentences, trees, config) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
    """The ``terms``, ``indptr``, ``indices`` and ``tf`` of a ``TermTable``,
    built with one ``Counter`` per sentence and a ``lexsort``."""
    counts = [
        Counter(extract_terms(s, trees[i] if trees is not None else None, config))
        for i, s in enumerate(sentences)
    ]
    terms = tuple(sorted(set().union(*counts)))
    term_id = dict(zip(terms, range(len(terms))))
    lengths = [len(c) for c in counts]
    indptr = np.array(list(accumulate(lengths, initial=0)), dtype=np.int64)
    ids = np.array([term_id[t] for c in counts for t in c], dtype=np.int64)
    raw = [n for c in counts for n in c.values()]
    tf = np.array([1.0 + math.log(n) for n in raw] if config.log_tf else raw, dtype=np.float64)
    order = np.lexsort((ids, np.repeat(np.arange(len(counts)), lengths)))  # by row, then id
    return terms, indptr, ids[order], tf[order]


def outcome(parse, *args):
    """What ``parse(*args)`` returns, or the type and message of the
    ``ValueError`` it raises, so two readers can be compared on bad input."""
    try:
        return parse(*args)
    except ValueError as err:
        return type(err), str(err)


# The character-loop readers and the all-pairs label projection that the
# compiled-pattern readers in ``claudette.corpus`` and ``claudette.trees``
# replaced.  They are the differential references for those readers; apart
# from their names they are unchanged.

def _scan_tag(raw: str, pos: int) -> tuple[bool, str, str, int] | None:
    """Try to read a tag candidate ``</?letters digits?>`` starting at ``pos``
    (which must point at '<').  Returns (closing, symbol, level_str, end_pos)
    or None when the text at pos is not tag-shaped and should stay literal."""
    i = pos + 1
    closing = False
    if i < len(raw) and raw[i] == "/":
        closing = True
        i += 1
    sym_start = i
    while i < len(raw) and raw[i].isalpha():
        i += 1
    if i == sym_start:
        return None
    sym = raw[sym_start:i]
    lvl_start = i
    while i < len(raw) and raw[i].isdigit():
        i += 1
    lvl = raw[lvl_start:i]
    if i >= len(raw) or raw[i] != ">":
        return None
    return closing, sym, lvl, i + 1


def reference_parse_tagged_text(raw: str, lenient: bool = False) -> tuple[str, list[TagSpan]]:
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
    n = len(raw)
    while pos < n:
        lt = raw.find("<", pos)
        if lt < 0:
            plain_parts.append(raw[pos:])
            plain_len += n - pos
            break
        if lt > pos:
            plain_parts.append(raw[pos:lt])
            plain_len += lt - pos
        scanned = _scan_tag(raw, lt)
        if scanned is None:
            # a lone '<' that cannot start a tag stays literal text
            plain_parts.append("<")
            plain_len += 1
            pos = lt + 1
            continue
        closing, sym, lvl, after = scanned
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
        pos = after

    if stack:
        cat, lvl_open, _, _, raw_off = stack[-1]
        raise UnbalancedTag(f"tag <{cat.symbol}{lvl_open}> never closed", *_line_col(raw, raw_off))

    assert all(s is not None for s in spans)
    return "".join(plain_parts), [s for s in spans if s is not None]


_TERMINALS = ".!?"
_QUOTES = "\"'“”‘’«»"


def _abbreviation_before(plain: str, dot: int, start: int) -> bool:
    """Whether the token ending at the period at ``dot`` is an abbreviation."""
    w = dot
    while w > start and not plain[w - 1].isspace():
        w -= 1
    word = plain[w : dot + 1].lower()
    while word and not word[0].isalnum():
        word = word[1:]
    return word in ABBREVIATIONS


def reference_segment_sentences(plain: str) -> list[Sentence]:
    """Rule-based sentence segmenter.

    Any newline terminates the current sentence (paragraph break).  A '.', '!'
    or '?' terminates it when followed by whitespace whose next non-whitespace
    character is an uppercase letter, a digit, or a quote — unless the token
    preceding a period is a known abbreviation.
    """
    sentences: list[Sentence] = []
    n = len(plain)
    i = 0
    while i < n:
        while i < n and plain[i].isspace():
            i += 1
        if i >= n:
            break
        start = i
        j = i
        end = n
        resume = n
        while j < n:
            c = plain[j]
            if c == "\n":
                end = j
                resume = j + 1
                break
            if c in _TERMINALS:
                k = j + 1
                while k < n and plain[k].isspace():
                    k += 1
                if k == j + 1 and k < n:
                    pass  # punctuation not followed by whitespace
                elif k >= n:
                    end = resume = j + 1
                    break
                else:
                    nxt = plain[k]
                    boundary = nxt.isupper() or nxt.isdigit() or nxt in _QUOTES
                    if boundary and c == "." and _abbreviation_before(plain, j, start):
                        boundary = False
                    if boundary:
                        end = resume = j + 1
                        break
            j += 1
        while end > start and plain[end - 1].isspace():
            end -= 1
        if end > start:
            text = plain[start:end]
            sentences.append(Sentence(start=start, end=end, text=text, tokens=tuple(reference_tokenize(text))))
        i = resume
    return sentences


def reference_tokenize(sentence_text: str) -> list[str]:
    """Lowercased tokens: alphanumeric runs, with every punctuation mark a
    standalone token.  "twitter.com/tos" -> [twitter, ., com, /, tos]."""
    tokens: list[str] = []
    cur: list[str] = []
    for ch in sentence_text:
        if ch.isspace():
            if cur:
                tokens.append("".join(cur).lower())
                cur = []
        elif ch.isalnum():
            cur.append(ch)
        else:
            if cur:
                tokens.append("".join(cur).lower())
                cur = []
            tokens.append(ch.lower())
    if cur:
        tokens.append("".join(cur).lower())
    return tokens


def _overlaps_nonspace(sentence: Sentence, span: TagSpan) -> bool:
    a = max(sentence.start, span.start)
    b = min(sentence.end, span.end)
    if a >= b:
        return False
    window = sentence.text[a - sentence.start : b - sentence.start]
    return any(not ch.isspace() for ch in window)


def reference_project_labels(spans: Sequence[TagSpan], sentences: Sequence[Sentence]) -> list[LabeledSentence]:
    """Attach (category, level) labels to every sentence whose range overlaps
    the span by at least one non-whitespace character.  A span covering
    several sentences labels each of them."""
    out: list[LabeledSentence] = []
    for sent in sentences:
        labels = {
            (span.category, span.level)
            for span in spans
            if _overlaps_nonspace(sent, span)
        }
        out.append(LabeledSentence(sent.start, sent.end, sent.text, sent.tokens, frozenset(labels)))
    return out


def _lex(text: str) -> list[str]:
    tokens: list[str] = []
    cur: list[str] = []
    for ch in text:
        if ch in "()":
            if cur:
                tokens.append("".join(cur))
                cur = []
            tokens.append(ch)
        elif ch.isspace():
            if cur:
                tokens.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        tokens.append("".join(cur))
    return tokens


def reference_parse_bracketed(text: str) -> ParseTree:
    """Parse one bracketed expression such as "(S (A a) (B b))"."""
    tokens = _lex(text)
    if not tokens:
        raise UnbalancedParens("empty input")
    pos = 0

    def parse_node(depth: int) -> ParseTree:
        nonlocal pos
        if depth > MAX_DEPTH:
            raise TreeTooDeep(f"tree is nested deeper than {MAX_DEPTH} levels")
        if tokens[pos] != "(":
            raise UnbalancedParens(f"expected '(' but found {tokens[pos]!r}")
        pos += 1
        if pos >= len(tokens):
            raise UnbalancedParens("unexpected end of input after '('")
        label = tokens[pos]
        if label in "()":
            raise EmptyNode("node is missing a label")
        pos += 1
        children: list[ParseTree] = []
        while True:
            if pos >= len(tokens):
                raise UnbalancedParens("unexpected end of input; missing ')'")
            tok = tokens[pos]
            if tok == ")":
                pos += 1
                break
            if tok == "(":
                children.append(parse_node(depth + 1))
            else:
                children.append(ParseTree(tok))
                pos += 1
        if not children:
            raise EmptyNode(f"node {label!r} has no children and no token")
        return ParseTree(label, children)

    tree = parse_node(1)
    if pos != len(tokens):
        raise TrailingInput(f"unexpected trailing input starting at {tokens[pos]!r}")
    return tree


def lexsort_block_sums(key: np.ndarray, delta: np.ndarray, size: int) -> np.ndarray:
    """A block's tree-pair sums as ``treekernel`` once took them: every pair
    sorted by one ``np.lexsort`` by tree pair ``key``, then ``delta``, and
    added to ``0.0`` in that order by one ``np.bincount``; ``out[k]`` for
    ``k < size``."""
    ascending = np.lexsort((delta, key))
    return np.bincount(key[ascending], weights=delta[ascending], minlength=size)


def ascending_sum(values) -> float:
    """``0.0`` plus ``values`` in ascending order, one rounded add at a time,
    as ``treekernel`` sums a tree pair's deltas.  Builtin ``sum`` compensates
    float sums from Python 3.12 on, so it would not do."""
    total = 0.0
    for value in sorted(values):
        total += value
    return total


class _Compiled(NamedTuple):
    productions: list[int]  # production id per internal node, in preorder
    children: list[tuple[int, ...]]  # child node indices, -1 for a leaf
    by_production: dict[int, list[int]]  # node indices per production id, ascending


def _compile(tree, table: dict, grow: bool = True) -> _Compiled:
    """Flatten ``tree``, interning its productions in ``table``.  Preorder puts
    every child after its parent.  With ``grow=False`` the table is only read:
    an unknown production gets a negative id private to this tree, so it
    matches nothing else compiled against ``table``."""
    nodes = tree.internal_nodes()
    index = {id(n): i for i, n in enumerate(nodes)}
    local: dict = {}
    productions: list[int] = []
    by_production: dict[int, list[int]] = {}
    for i, n in enumerate(nodes):
        prod = production(n)
        pid = table.get(prod)
        if pid is None:
            pid = table.setdefault(prod, len(table)) if grow else local.setdefault(prod, -1 - len(local))
        productions.append(pid)
        by_production.setdefault(pid, []).append(i)
    children = [tuple(index.get(id(c), -1) for c in n.children) for n in nodes]
    return _Compiled(productions, children, by_production)


def _kernel(a: _Compiled, b: _Compiled, lam: float) -> float:
    """The per-pair reference: the raw kernel of two trees compiled against
    one table.  ``rows[i]`` maps the nodes of ``b`` sharing node ``i``'s
    production to delta, filled in reverse preorder so child pairs come
    first; each delta multiplies its factors in child order, and they are
    added in ascending order."""
    b_nodes, b_children = b.by_production, b.children
    rows: list[dict[int, float] | None] = [None] * len(a.productions)
    for i in range(len(a.productions) - 1, -1, -1):
        js = b_nodes.get(a.productions[i])
        if js is None:
            continue
        kids = [(k, rows[c]) for k, c in enumerate(a.children[i]) if c >= 0 and rows[c]]
        if not kids:
            rows[i] = dict.fromkeys(js, lam)
            continue
        rows[i] = row = {}
        for j in js:
            value = lam
            b_kids = b_children[j]
            for k, child_row in kids:
                d = child_row.get(b_kids[k])
                if d is not None:
                    value *= 1.0 + d
            row[j] = value
    return ascending_sum(chain.from_iterable(row.values() for row in rows if row))


def reference_gram(trees, lam: float, normalize: bool) -> np.ndarray:
    """The Gram filled one ``_kernel`` call per unordered pair."""
    table: dict = {}
    compiled = [_compile(t, table) for t in trees]
    diag = [_kernel(c, c, lam) for c in compiled]
    n = len(trees)
    K = np.zeros((n, n))
    for i in range(n):
        K[i, i] = 1.0 if normalize else diag[i]
        for j in range(i + 1, n):
            value = _kernel(compiled[i], compiled[j], lam)
            if normalize:
                value /= float(np.sqrt(diag[i] * diag[j]))
            K[i, j] = K[j, i] = value
    return K


def reference_rows(support, queries, lam: float, normalize: bool) -> np.ndarray:
    """Kernel rows of ``queries`` against ``support``, one ``_kernel`` call
    per pair, the queries compiled without growing the support's table."""
    table: dict = {}
    compiled = [_compile(t, table) for t in support]
    diag = [_kernel(c, c, lam) for c in compiled]
    rows = []
    for tree in queries:
        c = _compile(tree, table, grow=False)
        row = [_kernel(c, other, lam) for other in compiled]
        if normalize:
            self_k = _kernel(c, c, lam)
            row = [k / float(np.sqrt(self_k * other_k)) for k, other_k in zip(row, diag)]
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(len(queries), len(support))


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def mini_dir() -> Path:
    return FIXTURES / "mini"


@pytest.fixture(scope="session")
def planted_dir() -> Path:
    return FIXTURES / "planted"


@pytest.fixture(scope="session")
def adjacency_dir() -> Path:
    return FIXTURES / "adjacency"


@pytest.fixture(scope="session")
def mini_corpus():
    return load_corpus(FIXTURES / "mini")


@pytest.fixture(scope="session")
def planted_corpus():
    return load_corpus(FIXTURES / "planted")


@pytest.fixture(scope="session")
def adjacency_corpus():
    return load_corpus(FIXTURES / "adjacency")


@pytest.fixture(scope="session")
def mini_kernel_model(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("kernel") / "k.json"
    train = ["train", "--task", "detect", "--model", "kernel-sstk", "--corpus", str(FIXTURES / "mini")]
    train += ["--trees", str(FIXTURES / "mini_trees.txt"), "--seed", "3", "--out", str(out)]
    assert main(train) == 0
    return out


@pytest.fixture(scope="session")
def mini_kernel_model_without_fallback(mini_kernel_model, tmp_path_factory) -> Path:
    """The mini kernel model file with its linear fallback deleted."""
    rec = json.loads(mini_kernel_model.read_text(encoding="utf-8"))
    del rec["fallback"]
    out = tmp_path_factory.mktemp("kernel") / "no_fallback.json"
    out.write_text(json.dumps(rec), encoding="utf-8")
    return out
