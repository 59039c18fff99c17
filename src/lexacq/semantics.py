"""Semantic tagging, generalization, and unknown-word classification.

Concepts live in two separate tree hierarchies (nouns and verbs) whose
leaves are words.  Parsing fully-known sentences tags each noun/verb
connector with the word it linked to; repeated observations generalize by
replacing tags with least common subsumers; an unknown word is classified
by asking which generalized usages of its linked known words fit the rest
of the sentence.  A tag is a concept's name: which hierarchy it belongs
to, and so its kind, is asked of the hierarchies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .lexicon import (_CONNECTOR_PATTERN, _LINE_BREAKS, _NAME_PATTERN,
                      _WORD_RE, Connector, Disjunct, Lexicon, LexiconError,
                      _body_pattern, _body_tokens, _Tokens, _uncomment,
                      parse_disjunct_body)
from .linker import Linkage, UnknownWordError, compatible, slot_links
from .syntax import acquire_syntax


class HierarchyError(ValueError):
    """Malformed hierarchy text or inconsistent hierarchy use."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class UnknownConceptError(LookupError):
    """A name is not a node of the hierarchy."""


class NoSemanticEvidenceError(LookupError):
    """No linked known word carries tagged usages to classify against."""


class UnknownCountError(ValueError):
    """The sentence to classify has other than exactly one unknown word."""


# --- concept hierarchies ----------------------------------------------------


@dataclass(frozen=True)
class ConceptHierarchy:
    """A tree of concepts; children are more specific than parents.  Its
    root is the parent of the first of its (parent, child) edges."""

    kind: str  # noun | verb
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if self.kind not in ("noun", "verb"):
            raise HierarchyError("bad hierarchy kind %r" % (self.kind,))
        edges = tuple(self.edges)
        if not edges:
            raise HierarchyError("empty hierarchy")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "root", edges[0][0])
        # child -> parent; the root has no entry
        object.__setattr__(self, "parent", {c: p for p, c in edges})
        object.__setattr__(self, "_interior", frozenset(p for p, _ in edges))
        object.__setattr__(self, "_chains", {})  # name -> ancestors tuple

    @classmethod
    def parse(cls, text: str, kind: str) -> "ConceptHierarchy":
        """One `parent > child` edge per line; the first line's parent is
        the root.  `#` starts a comment."""
        return cls(kind, _read_hierarchy(text) or _walk_hierarchy(text))

    def serialize(self) -> str:
        return "".join("%s > %s\n" % e for e in self.edges)

    def nodes(self) -> frozenset:
        return frozenset(self.parent) | {self.root}

    def __contains__(self, name: str) -> bool:
        return name == self.root or name in self.parent

    def require(self, name: str) -> None:
        if name not in self:
            raise UnknownConceptError(
                "%r is not a %s concept" % (name, self.kind))

    def is_leaf(self, name: str) -> bool:
        self.require(name)
        return name not in self._interior

    def _chain(self, name: str) -> tuple:
        """ancestors(name) as a tuple, built once per name and value."""
        chain = self._chains.get(name)
        if chain is None:
            self.require(name)
            up = [name]
            while up[-1] != self.root:
                up.append(self.parent[up[-1]])
            chain = self._chains[name] = tuple(up)
        return chain

    def ancestors(self, name: str) -> list:
        """name and its ancestors up to the root, nearest first."""
        return list(self._chain(name))

    def subsumes(self, a: str, b: str) -> bool:
        """True iff a is b or an ancestor of b."""
        self.require(a)
        return a in self._chain(b)

    def lcs(self, a: str, b: str) -> str:
        """Deepest node subsuming both a and b."""
        above_a = self._chain(a)
        return next(node for node in self._chain(b) if node in above_a)


def _walk_hierarchy(text: str) -> tuple:
    """The line loop's reading of hierarchy text; it raises HierarchyError
    with a line number at the first malformed or misplaced edge."""
    edges, known = [], set()  # (parent, child)s; the nodes placed so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ">" not in line:
            raise HierarchyError("expected 'parent > child'", lineno)
        p, _, c = (part.strip() for part in line.partition(">"))
        for name in (p, c):
            if not _WORD_RE.match(name):
                raise HierarchyError("bad concept name %r" % name, lineno)
        if not edges:
            known.add(p)  # the first parent is the root
        if p not in known:
            raise HierarchyError("parent %r not introduced yet" % p, lineno)
        if c in known:
            raise HierarchyError(
                "%r already has a place in the tree" % c, lineno)
        known.add(c)
        edges.append((p, c))
    if not edges:
        raise HierarchyError("empty hierarchy")
    return tuple(edges)


# One edge of uncommented text, after any blank lines: `parent > child`,
# spaced only by whitespace that ends no line, then the line's end.
_EDGE_RE = re.compile(r"\s*({0}){1}>{1}({0}){1}(?=[{2}]|\Z)".format(
    _NAME_PATTERN, r"[^\S%s]*" % _LINE_BREAKS, _LINE_BREAKS))


def _read_hierarchy(text: str) -> Optional[tuple]:
    """The edges of well-formed hierarchy text; None for anything else."""
    text = _uncomment(text)
    edges, known = [], set()  # (parent, child)s; the nodes placed so far
    pos = 0
    match = _EDGE_RE.match
    while (m := match(text, pos)) is not None:
        p, c = m.groups()
        if not edges:
            known.add(p)
        if p not in known or c in known:
            return None
        known.add(c)
        edges.append((p, c))
        pos = m.end()
    return tuple(edges) if edges and not text[pos:].strip() else None


@dataclass(frozen=True)
class ConceptHierarchies:
    nouns: ConceptHierarchy
    verbs: ConceptHierarchy

    def __post_init__(self):
        if (self.nouns.kind, self.verbs.kind) != ("noun", "verb"):
            raise HierarchyError("hierarchy kinds %s, %s are not noun, verb"
                                 % (self.nouns.kind, self.verbs.kind))

    def hierarchy_of(self, name: str) -> Optional[ConceptHierarchy]:
        """The hierarchy a name belongs to; None if neither."""
        in_nouns = name in self.nouns
        if name not in self.verbs:
            return self.nouns if in_nouns else None
        if in_nouns:
            raise HierarchyError("%r appears in both hierarchies" % (name,))
        return self.verbs

    def kind_of(self, name: str) -> Optional[str]:
        """Which hierarchy a name belongs to; None if neither."""
        h = self.hierarchy_of(name)
        return None if h is None else h.kind

    def leaf_kind_of(self, word: str) -> Optional[str]:
        """Which hierarchy the word is a leaf of; None if not a leaf."""
        h = self.hierarchy_of(word)
        return h.kind if h is not None and h.is_leaf(word) else None


def _concept_hierarchy(hiers: ConceptHierarchies,
                       tag: str) -> ConceptHierarchy:
    """The hierarchy of a tag, which must name a concept of one."""
    h = hiers.hierarchy_of(tag)
    if h is None:
        raise UnknownConceptError("%r is not a concept" % (tag,))
    return h


# --- tagged lexical entries --------------------------------------------------

@dataclass(frozen=True)
class TaggedDisjunct:
    """A disjunct whose connectors may carry tags naming the concept they
    linked to, plus the number of merged observations supporting it."""

    shape: Disjunct
    tags: tuple  # ((slot, concept name), ...), left slots first
    support: int = 1

    def __post_init__(self):
        items = sorted(dict(self.tags).items(),
                       key=lambda item: (item[0][0] != "left", item[0][1]))
        object.__setattr__(self, "tags", tuple(items))
        for (side, index), _tag in self.tags:
            conns = self.shape.left if side == "left" else self.shape.right
            if side not in ("left", "right") or not 0 <= index < len(conns):
                raise ValueError("tag slot (%r, %r) outside shape %s"
                                 % (side, index, self.shape))
        if self.support < 1:
            raise ValueError("support must be positive")

    def tag_at(self, side: str, index: int) -> Optional[str]:
        return dict(self.tags).get((side, index))

    def __str__(self) -> str:
        left = [str(c) for c in self.shape.left]
        right = [str(c) for c in self.shape.right]
        for (side, index), tag in self.tags:
            (left if side == "left" else right)[index] += "_" + tag
        return "((%s) (%s))" % (",".join(left) or " ", ",".join(right) or " ")


def _with_support(obs: TaggedDisjunct, support: int) -> TaggedDisjunct:
    """obs with another support count, without re-checking its tags."""
    out = object.__new__(TaggedDisjunct)
    out.__dict__.update(obs.__dict__, support=support)
    return out


def _pooled(observations: Iterable[TaggedDisjunct]) -> tuple:
    """The observations with those of equal shape and tags pooled into one,
    kept where the first of them was, with their supports summed."""
    out: list[TaggedDisjunct] = []
    at: dict[tuple, int] = {}  # (shape, tags) -> index in out
    for obs in observations:
        key = (obs.shape, obs.tags)
        i = at.get(key)
        if i is None:
            at[key] = len(out)
            out.append(obs)
        else:
            out[i] = _with_support(out[i], out[i].support + obs.support)
    return tuple(out)


class SemanticLexicon:
    """Immutable map from word to its ordered tagged observations, one per
    shape and tags.  A parsed value holds each word's checked (body,
    support) items and builds its observations on the word's first
    lookup."""

    __slots__ = ("_entries", "_build")

    def __init__(self, entries: Optional[Mapping[str, Iterable[TaggedDisjunct]]]
                 = None):
        self._entries = {word: _pooled(obs)
                         for word, obs in (entries or {}).items()}
        self._build = None

    @classmethod
    def _of(cls, table: dict, build) -> "SemanticLexicon":
        """A value of a table whose raw items (lists) `build` turns into
        observation tuples."""
        out = cls.__new__(cls)
        out._entries = table
        out._build = build
        return out

    def _built(self) -> dict:
        """The table with every entry built."""
        for word in list(self._entries):
            self.lookup(word)
        return self._entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, SemanticLexicon):
            return NotImplemented
        return self._built() == other._built()

    def __reduce__(self):
        # a parsed value's builder is a closure: pickle the built table
        return SemanticLexicon, (self._built(),)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, word: str) -> bool:
        return word in self._entries

    def __repr__(self) -> str:
        return "SemanticLexicon(%d words)" % len(self._entries)

    def words(self) -> list:
        return sorted(self._entries)

    def lookup(self, word: str) -> tuple:
        obs = self._entries.get(word, ())
        if type(obs) is list:  # raw items, not built yet
            obs = self._entries[word] = self._build(obs)
        return obs

    def observe(self, word: str, obs: TaggedDisjunct) -> "SemanticLexicon":
        """Add one observation, pooled into an equal one if there is one."""
        return self._observed([(word, obs)])

    def _observed(self, pairs: Iterable[tuple]) -> "SemanticLexicon":
        """This value with the (word, observation) pairs added in order;
        one table copy, and each word's entry pooled once."""
        new: dict[str, list[TaggedDisjunct]] = {}
        for word, obs in pairs:
            new.setdefault(word, []).append(obs)
        table = dict(self._entries)
        for word, observations in new.items():
            table[word] = _pooled(self.lookup(word) + tuple(observations))
        return SemanticLexicon._of(table, self._build)


# --- tagging and generalization ----------------------------------------------


def tag_sentence(linkage: Linkage, hiers: ConceptHierarchies,
                 semlex: SemanticLexicon, lexicon: Optional[Lexicon] = None
                 ) -> SemanticLexicon:
    """Record, for every noun/verb word of a valid linkage, its disjunct
    with each connector tagged by the noun/verb it linked to.  Words absent
    from both hierarchies (determiners, adjectives) are neither tagged nor
    used as tags."""
    if lexicon is not None:
        for i, w in enumerate(linkage.words):
            if w not in lexicon:
                raise UnknownWordError(w, i)
    return semlex._observed(_tagged_words(linkage, hiers))


def _tagged_words(linkage: Linkage, hiers: ConceptHierarchies):
    """Yield tag_sentence's (word, observation) pairs, in sentence order."""
    for pos, (lefts, rights) in enumerate(slot_links(linkage)):
        word, d = linkage.words[pos], linkage.choices[pos]
        if (len(lefts), len(rights)) != (len(d.left), len(d.right)):
            raise ValueError("linkage does not saturate its disjuncts")
        if hiers.leaf_kind_of(word) is None:
            continue
        tags = {}
        for side, links in (("left", lefts), ("right", rights)):
            for index, link in enumerate(links):
                other_word = linkage.words[
                    link.left if side == "left" else link.right]
                if hiers.leaf_kind_of(other_word) is not None:
                    tags[(side, index)] = other_word
        if tags:
            yield word, TaggedDisjunct(d, tuple(tags.items()))


def _try_merge(a: TaggedDisjunct, b: TaggedDisjunct,
               hiers: ConceptHierarchies) -> Optional[TaggedDisjunct]:
    """Merge two observations of one shape, tagged at the same slots with
    concepts of the same hierarchies, when every pair of tags generalizes
    strictly below the root; None when they must stay separate."""
    if a.shape != b.shape or len(a.tags) != len(b.tags):
        return None
    merged = []
    for (slot, tag_a), (slot_b, tag_b) in zip(a.tags, b.tags):
        if slot != slot_b:
            return None
        h = _concept_hierarchy(hiers, tag_a)
        if tag_b not in h:
            _concept_hierarchy(hiers, tag_b)  # raises for a name in neither
            return None
        general = h.lcs(tag_a, tag_b)
        if general == h.root:
            return None
        merged.append((slot, general))
    return TaggedDisjunct(a.shape, tuple(merged), a.support + b.support)


def generalize(semlex: SemanticLexicon,
               hiers: ConceptHierarchies) -> SemanticLexicon:
    """Greedy pairwise merging per word: the first mergeable pair in
    insertion order merges into the earlier item, until no pair merges.

    One pass suffices.  A merge only replaces tags by their least common
    subsumers, and the LCS of a more general tag with any x is no deeper
    than before, so a pair that could not merge (different shape, slots
    or hierarchies, or an LCS at the root) never can later.  After a merge
    at (i, j) the scan therefore goes on with the item now at j.

    The result is not pooled again, as it holds no two equal observations:
    two equal ones with no tag at the root would merge, and one with a tag
    at the root never merges, so it is one of the input's, which holds no
    two equal observations either."""
    table = {}
    for word in semlex.words():
        items = list(semlex.lookup(word))
        i = 0
        while i < len(items):
            j = i + 1
            while j < len(items):
                merged = _try_merge(items[i], items[j], hiers)
                if merged is None:
                    j += 1
                else:
                    items[i] = merged
                    del items[j]
            i += 1
        table[word] = tuple(items)
    return SemanticLexicon._of(table, None)


# --- classification -----------------------------------------------------------


@dataclass(frozen=True)
class Evidence:
    """Why a concept applies: the linked word's generalized usage and the
    subsumption facts (filler word, subsuming tag) that let it fit."""

    word: str
    usage: TaggedDisjunct
    facts: tuple  # ((filler, tag), ...)


def classify_unknown(
    words: Sequence[str],
    lexicon: Lexicon,
    semlex: SemanticLexicon,
    hiers: ConceptHierarchies,
    *,
    max_unknowns: int = 2,
    filter_on: bool = True,
) -> list:
    """Concepts the sentence's one unknown word could denote, with evidence.

    Runs syntactic acquisition, takes the first witness linkage, and for
    each known word linked to the unknown position checks its generalized
    usages of matching shape: a usage applies when every other tagged
    slot's actual filler is subsumed by that slot's tag; the tag at the
    slot linking to the unknown is then emitted.  Returns (concept,
    Evidence) pairs deduplicated by concept, deterministic order.
    Raises UnknownCountError, before any search, unless exactly one word
    is unknown, and NoSemanticEvidenceError when no linked word has tagged
    usages.
    """
    unknown = [p for p, w in enumerate(words) if w not in lexicon]
    if len(unknown) != 1:
        raise UnknownCountError(
            "classify needs exactly one unknown word, found %d"
            % len(unknown))
    unknown_pos = unknown[0]
    result = acquire_syntax(words, lexicon,
                            max_unknowns=max_unknowns, filter_on=filter_on)
    witness = result.linkages[0]
    slots = slot_links(witness)
    # the unknown word's neighbours left to right, each with the side of
    # its own connector that the link serves
    lefts, rights = slots[unknown_pos]
    neighbors = ([(link.left, "right", link) for link in reversed(lefts)]
                 + [(link.right, "left", link) for link in reversed(rights)])

    found: list = []
    seen_concepts = set()
    any_tagged = False
    for q, side, link in neighbors:
        usages = semlex.lookup(witness.words[q])
        if any(u.tags for u in usages):
            any_tagged = True
        links_at = dict(zip(("left", "right"), slots[q]))
        index = links_at[side].index(link)
        for usage in usages:
            if not compatible(usage.shape, witness.choices[q]):
                continue
            emitted = usage.tag_at(side, index)
            if emitted is None:
                continue
            facts = []
            fits = True
            for (other_side, other_index), tag in usage.tags:
                if (other_side, other_index) == (side, index):
                    continue
                other_link = links_at[other_side][other_index]
                filler = witness.words[other_link.left if other_side == "left"
                                       else other_link.right]
                h = _concept_hierarchy(hiers, tag)
                if filler not in h or not h.subsumes(tag, filler):
                    fits = False
                    break
                facts.append((filler, tag))
            if fits and emitted not in seen_concepts:
                seen_concepts.add(emitted)
                found.append((emitted,
                              Evidence(witness.words[q], usage, tuple(facts))))
    if not any_tagged:
        raise NoSemanticEvidenceError(
            "no linked word has tagged usages for %r"
            % witness.words[unknown_pos])
    return found


# --- tagged-lexicon text format ------------------------------------------------


def _parse_tagged_connector(token: str):
    if "_" in token:
        conn_text, _, tag_name = token.partition("_")
        if not _WORD_RE.match(tag_name):
            raise LexiconError("bad tag name %r" % (tag_name,))
        return Connector.parse(conn_text), tag_name
    return Connector.parse(token), None


def _walk_semlex(text: str, hiers: ConceptHierarchies) -> SemanticLexicon:
    """The token walker's reading of a tagged lexicon; it raises
    LexiconError with a line number at the first malformed token or entry."""
    toks = _Tokens(text)
    entries: dict[str, list[TaggedDisjunct]] = {}
    while toks.peek() is not None:
        line = toks.line
        word = toks.take()
        if not _WORD_RE.match(word):
            raise LexiconError("bad word %r" % (word,), line)
        if word in entries:
            raise LexiconError("duplicate entry for %r" % (word,), line)
        observations = entries[word] = []
        toks.expect(":")
        while True:
            line = toks.line
            left, right = parse_disjunct_body(toks, _parse_tagged_connector)
            shape = Disjunct(tuple(c for c, _ in left),
                             tuple(c for c, _ in right))
            tags = {}
            for side, conns in (("left", left), ("right", right)):
                for i, (_c, tag_name) in enumerate(conns):
                    if tag_name is None:
                        continue
                    try:
                        kind = hiers.kind_of(tag_name)
                    except HierarchyError as exc:
                        raise LexiconError(str(exc), line) from None
                    if kind is None:
                        raise LexiconError(
                            "tag %r is in neither hierarchy" % tag_name, line)
                    tags[(side, i)] = tag_name
            support = 1
            if toks.peek() == ";":
                toks.take()
                toks.expect("support")
                toks.expect("=")
                count_line = toks.line
                count_text = toks.take()
                try:
                    support = int(count_text) if count_text.isdigit() else 0
                except ValueError:  # past the interpreter's int digit limit
                    raise LexiconError(
                        "support count of %d digits is too long"
                        % len(count_text), count_line) from None
                if support < 1:
                    raise LexiconError(
                        "bad support count %r" % count_text, count_line)
            observations.append(
                TaggedDisjunct(shape, tuple(tags.items()), support))
            if toks.peek() != "|":
                break
            toks.take()
    return SemanticLexicon(entries)


# A word, connector or tag is always followed by whitespace or punctuation
# in the grammar; a support count may be followed by the next entry's word,
# and must end where the walker's token does.
_SEMLEX_ITEM_RE = re.compile(
    r"\s*(?:(%s)\s*:|\|)\s*(%s)"
    r"(?:\s*;\s*support\s*=\s*([0-9]+)(?![A-Za-z0-9'_]))?" % (
        _NAME_PATTERN,
        _body_pattern("%s(?:_%s)?" % (_CONNECTOR_PATTERN, _NAME_PATTERN))))


def _tagged_body(body: str) -> TaggedDisjunct:
    """The observation, with support 1, of a body the item regex matched."""
    sides, tags = [], []
    for side, tokens in zip(("left", "right"), _body_tokens(body)):
        conns = []
        for i, token in enumerate(tokens):
            name, _, tag_name = token.partition("_")
            conns.append(Connector.parse(name))
            if tag_name:
                tags.append(((side, i), tag_name))
        sides.append(tuple(conns))
    return TaggedDisjunct(Disjunct(*sides), tuple(tags))


def _builder():
    """Turns a word's raw (body, support) items into its pooled
    observations.  One per parsed value, so that a body text is read once."""
    parsed: dict[str, TaggedDisjunct] = {}  # body text -> observation

    def observation(body: str, support: int) -> TaggedDisjunct:
        obs = parsed.get(body)
        if obs is None:
            obs = parsed[body] = _tagged_body(body)
        return obs if support == 1 else _with_support(obs, support)

    return lambda items: _pooled(observation(*item) for item in items)


# in text the item regex accepts, `_` starts a tag name and nothing else
_TAG_NAME_RE = re.compile(r"_(%s)" % _NAME_PATTERN)


def _read_semlex(text: str, hiers: ConceptHierarchies
                 ) -> Optional[SemanticLexicon]:
    """A well-formed tagged lexicon, each word's observations built on its
    first lookup; None for anything else.  Every check that can reject the
    text runs here, whether or not its entries are ever looked up."""
    text = _uncomment(text)
    table: dict[str, list[tuple[str, int]]] = {}  # word -> (body, support)s
    items = None
    pos = 0
    match = _SEMLEX_ITEM_RE.match
    while (m := match(text, pos)) is not None:
        word, body, count = m.groups()
        if word is not None:
            if word in table:
                return None
            items = table[word] = []
        elif items is None:
            return None
        try:
            support = 1 if count is None else int(count)
        except ValueError:  # too long: the walker reports it
            return None
        if support < 1:
            return None
        items.append((body, support))
        pos = m.end()
    if text[pos:].strip():
        return None
    try:
        if None in map(hiers.kind_of, set(_TAG_NAME_RE.findall(text))):
            return None  # a name in neither hierarchy
    except HierarchyError:  # a name in both
        return None
    return SemanticLexicon._of(table, _builder())


def parse_semlex(text: str, hiers: ConceptHierarchies) -> SemanticLexicon:
    """Parse a tagged lexicon.  Tags are `_name` connector suffixes, each
    naming a concept of exactly one of `hiers`; `;support=N` follows a
    disjunct.  Raises LexiconError with a line number; a malformed entry
    is reported here, before any lookup."""
    semlex = _read_semlex(text, hiers)
    return _walk_semlex(text, hiers) if semlex is None else semlex


def serialize_semlex(semlex: SemanticLexicon) -> str:
    """One word per line, observations in entry order with their support."""
    lines = []
    for word in semlex.words():
        parts = ["%s ;support=%d" % (obs, obs.support)
                 for obs in semlex.lookup(word)]
        lines.append("%s: %s" % (word, " | ".join(parts)))
    return "\n".join(lines) + "\n" if lines else ""
