"""Connector lexicon: core value types and the lexicon text format.

A word's syntactic behavior is a set of disjuncts.  A disjunct is a pair of
ordered connector lists, written ``((A,Ds) (Ss))``: the left list names links
the word must form with words to its left, the right list with words to its
right.  Within the written left list the first connector links nearest;
within the written right list the first connector links farthest.

File format, one entry per head (entries may span lines, ``#`` to end of
line is a comment)::

    car, corn, condor: ((A,Ds,Os) ( )) | ((Ds) (Ss))
    the: (( ) (D))

Lexicon values are immutable; every operation returns a new value.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional

_CONNECTOR_PATTERN = r"[A-Z]+[a-z]*"
_NAME_PATTERN = r"[a-z]+(?:'[a-z]+)*"
_CONNECTOR_RE = re.compile(r"([A-Z]+)([a-z]*)\Z")
_WORD_RE = re.compile(_NAME_PATTERN + r"\Z")


class LexiconError(ValueError):
    """Malformed lexicon text or an invalid lexicon operation."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, order=True)
class Connector:
    """An uppercase ASCII base name plus an optional lowercase ASCII
    subscript."""

    base: str
    subscript: str = ""

    def __post_init__(self):
        if (not self.base or not self.base.isascii()
                or not self.base.isupper() or not self.base.isalpha()):
            raise LexiconError("bad connector base %r" % (self.base,))
        if self.subscript and not (
            self.subscript.isascii() and self.subscript.islower()
            and self.subscript.isalpha()
        ):
            raise LexiconError("bad connector subscript %r" % (self.subscript,))

    @classmethod
    def parse(cls, text: str) -> "Connector":
        m = _CONNECTOR_RE.match(text)
        if not m:
            raise LexiconError("bad connector %r" % (text,))
        return cls(m.group(1), m.group(2))

    def __str__(self) -> str:
        return self.base + self.subscript


def _side_str(conns: tuple) -> str:
    if not conns:
        return "( )"
    return "(" + ",".join(str(c) for c in conns) + ")"


@dataclass(frozen=True)
class Disjunct:
    """A pair of ordered connector lists, stored in written order."""

    left: tuple[Connector, ...]
    right: tuple[Connector, ...]

    def __post_init__(self):
        # normalize lists passed in as other iterables
        if not isinstance(self.left, tuple):
            object.__setattr__(self, "left", tuple(self.left))
        if not isinstance(self.right, tuple):
            object.__setattr__(self, "right", tuple(self.right))
        # disjuncts are hashed far more often than built
        object.__setattr__(self, "_hash", hash((self.left, self.right)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild rather than restore: string hashes differ between processes
        return Disjunct, (self.left, self.right)

    def __str__(self) -> str:
        return "(%s %s)" % (_side_str(self.left), _side_str(self.right))


def check_word(word: str) -> None:
    """Raise LexiconError unless word is a valid lexicon word."""
    if not _WORD_RE.match(word):
        raise LexiconError("bad word %r" % (word,))


class Lexicon:
    """Immutable mapping from word to its ordered disjunct sequence.  A
    value counts the words of each distinct entry on first use, and `add`
    carries those counts to the value it returns."""

    __slots__ = ("_entries", "_counts")

    def __init__(self, entries: Mapping[str, Iterable[Disjunct]]):
        table: dict[str, tuple[Disjunct, ...]] = {}
        for word, disjuncts in entries.items():
            check_word(word)
            ds = tuple(disjuncts)
            if not ds:
                # a defined word must carry at least one disjunct; absence of
                # a word is expressed by leaving it out entirely
                raise LexiconError("word %r has no disjuncts" % (word,))
            if len(set(ds)) != len(ds):
                raise LexiconError("duplicate disjunct for %r" % (word,))
            table[word] = ds
        self._entries = table
        self._counts = None

    def __contains__(self, word: str) -> bool:
        return word in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Lexicon):
            return NotImplemented
        return self._entries == other._entries

    def __getstate__(self):
        # the counts are derived data: pickle the table alone, in the
        # default form of a slotted value's state
        return None, {"_entries": self._entries}

    def __setstate__(self, state):
        self._entries = state[1]["_entries"]
        self._counts = None

    def __repr__(self) -> str:
        return "Lexicon(%d words)" % len(self._entries)

    def words(self) -> list[str]:
        return sorted(self._entries)

    def lookup(self, word: str) -> Optional[tuple[Disjunct, ...]]:
        """The word's disjuncts in entry order, or None if absent."""
        return self._entries.get(word)

    def inventory(self) -> tuple[Disjunct, ...]:
        """Every distinct disjunct in the lexicon, ordered by display form.
        Read off the distinct entries, as every word's entry is one."""
        return tuple(sorted({d for ds in self.entry_counts() for d in ds},
                            key=str))

    def entry_counts(self) -> Mapping[tuple[Disjunct, ...], int]:
        """Each distinct entry with the number of words carrying it, as a
        read-only view."""
        if self._counts is None:
            self._counts = Counter(self._entries.values())
        return MappingProxyType(self._counts)

    def add(self, word: str, disjuncts: Iterable[Disjunct]) -> "Lexicon":
        """A new lexicon whose entry for word is the union, existing first."""
        check_word(word)
        new = list(disjuncts)
        old = self._entries.get(word)
        if not new and old is None:
            raise LexiconError("word %r has no disjuncts" % (word,))
        merged = list(old or ())
        for d in new:
            if d not in merged:
                merged.append(d)
        entry = tuple(merged)
        table = dict(self._entries)
        table[word] = entry
        counts = self._counts
        if counts is not None and entry != old:
            # move the word from its old entry's count to its new entry's
            counts = counts.copy()
            if old is not None:
                counts[old] -= 1
                if not counts[old]:
                    del counts[old]
            counts[entry] += 1
        return Lexicon._of(table, counts)

    @classmethod
    def _of(cls, table: dict, counts: Optional[Counter] = None) -> "Lexicon":
        """A lexicon of a table of disjunct tuples whose words and entries
        are already checked, with its entry counts if they are known."""
        out = cls.__new__(cls)
        out._entries = table
        out._counts = counts
        return out


# --- text format ---------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z0-9'_]+|[():,|;=]")


def _scan(text: str):
    """Yield (token, line) pairs, skipping whitespace and # comments."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        hash_at = line.find("#")
        if hash_at != -1:
            line = line[:hash_at]
        pos = 0
        while pos < len(line):
            ch = line[pos]
            if ch.isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if not m:
                raise LexiconError("unexpected character %r" % ch, lineno)
            yield m.group(0), lineno
            pos = m.end()


class _Tokens:
    """A tiny LL(1) cursor over scanned tokens."""

    def __init__(self, text: str):
        self._items = list(_scan(text))
        self._index = 0
        self.last_line = self._items[-1][1] if self._items else 1

    def peek(self) -> Optional[str]:
        if self._index < len(self._items):
            return self._items[self._index][0]
        return None

    @property
    def line(self) -> int:
        if self._index < len(self._items):
            return self._items[self._index][1]
        return self.last_line

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise LexiconError("unexpected end of input", self.last_line)
        self._index += 1
        return tok

    def expect(self, token: str) -> None:
        line = self.line
        got = self.take()
        if got != token:
            raise LexiconError("expected %r, got %r" % (token, got), line)


def _parse_connector_list(toks: _Tokens, connector_parser) -> tuple:
    toks.expect("(")
    conns = []
    if toks.peek() == ")":
        toks.take()
        return ()
    while True:
        line = toks.line
        tok = toks.take()
        if tok in "():,|":
            raise LexiconError("expected connector, got %r" % tok, line)
        try:
            conns.append(connector_parser(tok))
        except LexiconError as exc:
            raise LexiconError(str(exc), line) from None
        nxt = toks.take()
        if nxt == ")":
            break
        if nxt != ",":
            raise LexiconError("expected ',' or ')', got %r" % nxt, line)
    return tuple(conns)


def parse_disjunct_body(toks: _Tokens, connector_parser=Connector.parse):
    """Parse ``((...)(...))`` from a token cursor.  Shared with the tagged
    lexicon format, which passes its own connector parser."""
    toks.expect("(")
    left = _parse_connector_list(toks, connector_parser)
    right = _parse_connector_list(toks, connector_parser)
    toks.expect(")")
    return left, right


def _walk_lexicon(text: str) -> dict[str, list[Disjunct]]:
    """The token walker's reading of lexicon text; it raises LexiconError
    with a line number at the first malformed token or entry."""
    toks = _Tokens(text)
    entries: dict[str, list[Disjunct]] = {}
    while toks.peek() is not None:
        # head: word (, word)* ':'
        head = []
        while True:
            line = toks.line
            word = toks.take()
            if not _WORD_RE.match(word):
                raise LexiconError("expected word, got %r" % word, line)
            if word in entries:
                raise LexiconError("duplicate definition of %r" % word, line)
            if word in head:
                raise LexiconError("word %r repeated in head" % word, line)
            head.append(word)
            sep = toks.take()
            if sep == ":":
                break
            if sep != ",":
                raise LexiconError("expected ',' or ':', got %r" % sep, line)
        # disjuncts: disjunct ('|' disjunct)*
        disjuncts: list[Disjunct] = []
        while True:
            line = toks.line
            left, right = parse_disjunct_body(toks)
            d = Disjunct(left, right)
            if d in disjuncts:
                raise LexiconError(
                    "duplicate disjunct %s for %s" % (d, ", ".join(head)), line)
            disjuncts.append(d)
            if toks.peek() == "|":
                toks.take()
                continue
            break
        for word in head:
            entries[word] = list(disjuncts)
    return entries


# The readers match the text one item at a time (an entry head or a `|`,
# then one disjunct body) with a compiled regex, after removing comments,
# and parse each distinct body text once per call.  The regexes accept
# exactly the walker's language: `\s` is `str.isspace`, and a comment ends
# at any `str.splitlines` boundary.  Text they do not accept goes to the
# walker, which reports the error and its line.

_LINE_BREAKS = r"\n\r\v\f\x1c-\x1e\x85\u2028\u2029"  # of str.splitlines
_COMMENT_RE = re.compile(r"#[^%s]*" % _LINE_BREAKS)


def _uncomment(text: str) -> str:
    return _COMMENT_RE.sub("", text) if "#" in text else text


def _body_pattern(connector: str) -> str:
    """Regex source for a ``((...) (...))`` body of the given connectors."""
    side = r"\(\s*(?:%s(?:\s*,\s*%s)*\s*)?\)" % (connector, connector)
    return r"\(\s*%s\s*%s\s*\)" % (side, side)


def _body_tokens(body: str) -> tuple[list[str], list[str]]:
    """The connector tokens on each side of a body `_body_pattern` matched."""
    left, right = "".join(body.split())[2:-2].split(")(")
    return left.split(",") if left else [], right.split(",") if right else []


_LEXICON_ITEM_RE = re.compile(r"\s*(?:(%s(?:\s*,\s*%s)*)\s*:|\|)\s*(%s)" % (
    _NAME_PATTERN, _NAME_PATTERN, _body_pattern(_CONNECTOR_PATTERN)))


def _read_lexicon(text: str) -> Optional[dict[str, list[Disjunct]]]:
    """Entries of well-formed lexicon text; None for anything else."""
    text = _uncomment(text)
    entries: dict[str, list[Disjunct]] = {}
    parsed: dict[str, Disjunct] = {}
    disjuncts = None
    pos = 0
    match = _LEXICON_ITEM_RE.match
    while (m := match(text, pos)) is not None:
        head, body = m.groups()
        if head is not None:
            disjuncts = []
            for word in head.split(","):
                word = word.strip()
                if word in entries:  # defined before, or twice in this head
                    return None
                entries[word] = disjuncts
        elif disjuncts is None:
            return None
        d = parsed.get(body)
        if d is None:
            left, right = _body_tokens(body)
            d = parsed[body] = Disjunct(tuple(map(Connector.parse, left)),
                                        tuple(map(Connector.parse, right)))
        if d in disjuncts:
            return None
        disjuncts.append(d)
        pos = m.end()
    return None if text[pos:].strip() else entries


def parse_lexicon(text: str) -> Lexicon:
    """Parse lexicon text.  Raises LexiconError with a line number."""
    entries = _read_lexicon(text)
    if entries is None:
        entries = _walk_lexicon(text)
    # both readers check the words, that entries are non-empty and that
    # their disjuncts are distinct
    return Lexicon._of({word: tuple(ds) for word, ds in entries.items()})


def serialize_lexicon(lexicon: Lexicon) -> str:
    """Render one word per line, words in lexicographic order."""
    lines = []
    for word in lexicon.words():
        ds = lexicon.lookup(word)
        lines.append("%s: %s" % (word, " | ".join(str(d) for d in ds)))
    return "\n".join(lines) + ("\n" if lines else "")
