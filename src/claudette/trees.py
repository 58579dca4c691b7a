"""Penn-style bracketed constituency trees and treebank files.

A treebank file holds one bracketed tree per line, with a blank line between
documents; groups align 1:1 with corpus documents in order, and within a
group lines align with that document's sentences.  A line's tokens are
brackets and runs of characters that are neither brackets nor whitespace:
``str.split`` of the line with a space put on each side of every bracket.
One loop over them with an explicit stack of open nodes builds the tree.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Sequence


class TreeParseError(ValueError):
    pass


class UnbalancedParens(TreeParseError):
    pass


class EmptyNode(TreeParseError):
    pass


class TrailingInput(TreeParseError):
    pass


class TreeTooDeep(TreeParseError):
    pass


#: Deeper than any natural-language parse; ``parse_bracketed`` refuses
#: deeper input.  ``save_model`` refuses support trees deeper than this,
#: since ``load_model`` could not read them back.
MAX_DEPTH = 256


class TreeBankMismatch(ValueError):
    """Treebank groups do not line up with corpus documents/sentences."""


class ParseTree:
    """Labeled ordered tree.  A leaf has no children and its label is the
    word; a preterminal has exactly one leaf child."""

    __slots__ = ("label", "children")

    def __init__(self, label: str, children: Sequence["ParseTree"] = ()):
        self.label = label
        self.children = tuple(children)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_preterminal(self) -> bool:
        return len(self.children) == 1 and self.children[0].is_leaf

    def nodes(self) -> Iterator["ParseTree"]:
        """All nodes, preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def internal_nodes(self) -> list["ParseTree"]:
        return [n for n in self.nodes() if n.children]

    def preterminals(self) -> list["ParseTree"]:
        return [n for n in self.nodes() if n.is_preterminal]

    def n_nodes(self) -> int:
        return sum(1 for _ in self.nodes())

    def depth(self) -> int:
        """Bracket nesting depth: the internal nodes on the longest root path
        (0 for a bare leaf), the depth :func:`parse_bracketed` limits."""
        deepest = 0
        stack = [(self, 1)]
        while stack:
            node, d = stack.pop()
            if node.children:
                deepest = max(deepest, d)
                stack.extend((c, d + 1) for c in node.children)
        return deepest

    def to_bracketed(self) -> str:
        """Canonical single-space bracketed form."""
        parts: list[str] = []
        stack: list[ParseTree | str] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif not item.children:
                parts.append(item.label)
            else:
                parts.append(f"({item.label}")
                stack.append(")")
                for child in reversed(item.children):
                    stack += (child, " ")
        return "".join(parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParseTree):
            return False
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.label != b.label or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self) -> int:
        # bottom-up over the preorder list, so deep trees do not recurse
        order = list(self.nodes())
        hashes: dict[int, int] = {}
        for node in reversed(order):
            hashes[id(node)] = hash((node.label, tuple(hashes[id(c)] for c in node.children)))
        return hashes[id(self)]

    def __repr__(self) -> str:
        return f"ParseTree({self.to_bracketed()!r})"


def parse_bracketed(text: str, leaves: dict[str, ParseTree] | None = None) -> ParseTree:
    """Parse one bracketed expression such as "(S (A a) (B b))".

    ``leaves`` maps a word to its leaf; a word not in it gets a new leaf,
    added to it.  Parse trees are never mutated, so one leaf may stand for
    every occurrence of its word across the trees parsed with one table."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise UnbalancedParens("empty input")
    if tokens[0] != "(":
        raise UnbalancedParens(f"expected '(' but found {tokens[0]!r}")
    if leaves is None:
        leaves = {}
    stack: list[tuple[str, list[ParseTree]]] = []  # the open nodes, outermost first
    it = iter(tokens)
    for tok in it:
        if tok == "(":
            if len(stack) == MAX_DEPTH:
                raise TreeTooDeep(f"tree is nested deeper than {MAX_DEPTH} levels")
            label = next(it, None)
            if label is None:
                raise UnbalancedParens("unexpected end of input after '('")
            if label == "(" or label == ")":
                raise EmptyNode("node is missing a label")
            children: list[ParseTree] = []
            stack.append((label, children))
        elif tok == ")":
            label, kids = stack.pop()
            if not kids:
                raise EmptyNode(f"node {label!r} has no children and no token")
            tree = ParseTree(label, kids)
            if not stack:
                break
            children = stack[-1][1]
            children.append(tree)
        else:
            leaf = leaves.get(tok)
            if leaf is None:
                leaf = leaves[tok] = ParseTree(tok)
            children.append(leaf)
    else:
        raise UnbalancedParens("unexpected end of input; missing ')'")
    trailing = next(it, None)
    if trailing is not None:
        raise TrailingInput(f"unexpected trailing input starting at {trailing!r}")
    return tree


# ---------------------------------------------------------------------------
# Treebank files
# ---------------------------------------------------------------------------

def read_treebank_groups(path: str | Path) -> list[list[ParseTree]]:
    """Blank-line-separated groups of one-tree-per-line.  A line that does
    not parse raises its ``TreeParseError`` again, as the same type, naming
    the file and the line (counted as ``str.splitlines`` counts them)."""
    groups: list[list[ParseTree]] = []
    current: list[ParseTree] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise TreeParseError(f"{path}: not valid UTF-8: {err}") from None
    leaves: dict[str, ParseTree] = {}  # one leaf per distinct word of the file
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            if current:
                groups.append(current)
                current = []
            continue
        try:
            current.append(parse_bracketed(stripped, leaves))
        except TreeParseError as err:
            raise type(err)(f"{path}: {err} (line {number})") from None
    if current:
        groups.append(current)
    return groups


def write_treebank_groups(groups: Sequence[Sequence[ParseTree]], path: str | Path) -> None:
    blocks = ["\n".join(t.to_bracketed() for t in group) for group in groups]
    Path(path).write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


def align_treebank(groups: Sequence[Sequence[ParseTree]], corpus) -> dict[str, list[ParseTree]]:
    """Bind treebank groups to corpus documents by order, validating counts."""
    if len(groups) != corpus.M:
        raise TreeBankMismatch(
            f"treebank has {len(groups)} document groups, corpus has {corpus.M} documents"
        )
    treebank: dict[str, list[ParseTree]] = {}
    for doc, group in zip(corpus.documents, groups):
        if len(group) != len(doc.sentences):
            raise TreeBankMismatch(
                f"document {doc.name!r} has {len(doc.sentences)} sentences "
                f"but its treebank group has {len(group)} trees"
            )
        treebank[doc.name] = list(group)
    return treebank


def load_treebank(path: str | Path, corpus) -> dict[str, list[ParseTree]]:
    return align_treebank(read_treebank_groups(path), corpus)
