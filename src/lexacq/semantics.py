"""Semantic tagging, generalization, and unknown-word classification.

Concepts live in two separate tree hierarchies (nouns and verbs) whose
leaves are words.  Parsing fully-known sentences tags each noun/verb
connector with the word it linked to; a word's observations of one shape
whose tags sit, slot by slot, under the same children of the roots merge
into one, tagged with least common subsumers; an unknown word is
classified by asking which generalized usages of its linked known words
fit the rest of the sentence.  A tag is a concept's name: which
hierarchy it belongs to, and so its kind, is asked of the hierarchies.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .lexicon import (_CONNECTOR_PATTERN, _LINE_BREAKS, _NAME_PATTERN,
                      _WORD_RE, Connector, Disjunct, Lexicon, LexiconError,
                      _body_pattern, _body_tokens, _Tokens, _uncomment,
                      check_word, parse_disjunct_body)
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
    root is the parent of the first of its (parent, child) edges, and each
    later edge's parent must be placed before it and its child not."""

    kind: str  # noun | verb
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        self._place(names_checked=False)

    @classmethod
    def _of(cls, kind: str, edges: tuple) -> "ConceptHierarchy":
        """A hierarchy of edges whose concept names a reader has already
        checked."""
        out = cls.__new__(cls)
        object.__setattr__(out, "kind", kind)
        object.__setattr__(out, "edges", edges)
        out._place(names_checked=True)
        return out

    def _place(self, names_checked: bool) -> None:
        """Check the kind and the edges, then derive the tree's maps."""
        if self.kind not in ("noun", "verb"):
            raise HierarchyError("bad hierarchy kind %r" % (self.kind,))
        edges = tuple(self.edges if names_checked else map(_edge, self.edges))
        if not edges:
            raise HierarchyError("empty hierarchy")
        placed: set = set()
        for p, c in edges:
            problem = _misplaced(placed, p, c)
            if problem is not None:
                raise HierarchyError(problem)
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
        try:  # text the regex path cannot read has no edges
            return cls._of(kind, _read_hierarchy(text) or ())
        except HierarchyError:  # the line loop names the bad edge's line
            return cls._of(kind, _walk_hierarchy(text))

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


def _edge(edge) -> tuple:
    """A hand-built edge as a (parent, child) tuple of concept names."""
    if not isinstance(edge, (tuple, list)) or len(edge) != 2:
        raise HierarchyError("bad edge %r" % (edge,))
    for name in edge:
        if not (isinstance(name, str) and _WORD_RE.match(name)):
            raise HierarchyError("bad concept name %r" % (name,))
    return tuple(edge)


def _misplaced(placed: set, parent: str, child: str) -> Optional[str]:
    """Why edge parent > child cannot join a tree of the `placed` nodes (if
    none, parent is the root); None when it can, and child is placed."""
    if not placed:
        placed.add(parent)
    if parent not in placed:
        return "parent %r not introduced yet" % (parent,)
    if child in placed:
        return "%r already has a place in the tree" % (child,)
    placed.add(child)
    return None


def _walk_hierarchy(text: str) -> tuple:
    """The line loop's reading of hierarchy text; it raises HierarchyError
    with a line number at the first malformed or misplaced edge."""
    edges, placed = [], set()  # (parent, child)s; the nodes placed so far
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
        problem = _misplaced(placed, p, c)
        if problem is not None:
            raise HierarchyError(problem, lineno)
        edges.append((p, c))
    if not edges:
        raise HierarchyError("empty hierarchy")
    return tuple(edges)


# One edge of uncommented text, after any blank lines: `parent > child`,
# spaced only by whitespace that ends no line, then the line's end.
_EDGE_RE = re.compile(r"\s*({0}){1}>{1}({0}){1}(?=[{2}]|\Z)".format(
    _NAME_PATTERN, r"[^\S%s]*" % _LINE_BREAKS, _LINE_BREAKS))


def _read_hierarchy(text: str) -> Optional[tuple]:
    """The edges of well-formed hierarchy text, placed or not; None for
    anything else."""
    text = _uncomment(text)
    edges = []
    pos = 0
    match = _EDGE_RE.match
    while (m := match(text, pos)) is not None:
        edges.append(m.groups())
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
        nouns, verbs = self.nouns.nodes(), self.verbs.nodes()
        if shared := nouns & verbs:
            raise HierarchyError("%r appears in both hierarchies"
                                 % (min(shared),))
        object.__setattr__(self, "_holder",  # name -> its hierarchy
                           dict.fromkeys(nouns, self.nouns)
                           | dict.fromkeys(verbs, self.verbs))

    def hierarchy_of(self, name: str) -> Optional[ConceptHierarchy]:
        """The hierarchy a name belongs to; None if neither."""
        return self._holder.get(name)


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
        tags: dict = {}
        for slot, tag in (self.tags.items() if isinstance(self.tags, Mapping)
                          else self.tags):
            if slot in tags:
                raise ValueError("tag slot %r is tagged twice" % (slot,))
            tags[slot] = tag
        items = sorted(tags.items(),
                       key=lambda item: (item[0][0] != "left", item[0][1]))
        object.__setattr__(self, "tags", tuple(items))
        for (side, index), tag in self.tags:
            conns = self.shape.left if side == "left" else self.shape.right
            if side not in ("left", "right") or not 0 <= index < len(conns):
                raise ValueError("tag slot (%r, %r) outside shape %s"
                                 % (side, index, self.shape))
            if not _WORD_RE.match(tag):
                raise LexiconError("bad tag name %r" % (tag,))
        if self.support < 1:
            raise ValueError("support must be positive")

    @classmethod
    def _of(cls, shape, tags: tuple, support: int = 1) -> "TaggedDisjunct":
        """An observation of tags already checked and in slot order."""
        out = cls.__new__(cls)
        out.__dict__.update(shape=shape, tags=tags, support=support)
        return out

    def tag_at(self, side: str, index: int) -> Optional[str]:
        return dict(self.tags).get((side, index))

    def __str__(self) -> str:
        left = [str(c) for c in self.shape.left]
        right = [str(c) for c in self.shape.right]
        for (side, index), tag in self.tags:
            (left if side == "left" else right)[index] += "_" + tag
        return "((%s) (%s))" % (",".join(left) or " ", ",".join(right) or " ")


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
            out[i] = TaggedDisjunct._of(*key, out[i].support + obs.support)
    return tuple(out)


class SemanticLexicon:
    """Immutable map from word to its ordered tagged observations, one per
    shape and tags.  A parsed value holds each word's checked (body,
    support) items and builds its observations on the word's first
    lookup."""

    __slots__ = ("_entries", "_build")

    def __init__(self, entries: Optional[Mapping[str, Iterable[TaggedDisjunct]]]
                 = None):
        entries = entries or {}
        for word in entries:
            check_word(word)
        self._entries = {word: _pooled(obs) for word, obs in entries.items()}
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
        check_word(word)
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


def _slot_partners(linkage: Linkage):
    """Yield, for each word in order, a map from each of its slots (side,
    index), left slots first, to the position that slot links to; raise
    ValueError at the first word whose disjunct the links do not
    saturate."""
    for d, (lefts, rights) in zip(linkage.choices, slot_links(linkage)):
        if (len(lefts), len(rights)) != (len(d.left), len(d.right)):
            raise ValueError("linkage does not saturate its disjuncts")
        yield {**{("left", i): link.left for i, link in enumerate(lefts)},
               **{("right", i): link.right for i, link in enumerate(rights)}}


def _tagged_words(linkage: Linkage, hiers: ConceptHierarchies):
    """Yield tag_sentence's (word, observation) pairs, in sentence order."""
    words = linkage.words
    leaf = [(h := hiers.hierarchy_of(w)) is not None and h.is_leaf(w)
            for w in words]
    for pos, partners in enumerate(_slot_partners(linkage)):
        if not leaf[pos]:
            continue
        tags = tuple((slot, words[q]) for slot, q in partners.items()
                     if leaf[q])
        if tags:
            yield words[pos], TaggedDisjunct._of(linkage.choices[pos], tags)


def generalize(semlex: SemanticLexicon,
               hiers: ConceptHierarchies) -> SemanticLexicon:
    """Each word's observations merged by class: those of one shape whose
    tags sit, slot by slot, under the same children of the roots merge into
    the first of them, tagged with least common subsumers and supports
    summed; one tagged at a root merges with nothing.

    Two tags meet below the root exactly when they sit under one child of
    it, and a merge keeps them there, so any order of pairwise merges gives
    this, with no two equal observations left to pool.  A tag in neither
    hierarchy raises UnknownConceptError."""
    tops: dict = {}  # tag -> (its hierarchy, (kind, root's child) or None)
    table = {}
    for word in semlex.words():
        out: list[TaggedDisjunct] = []
        at: dict[tuple, int] = {}  # merge class -> index in out
        for obs in semlex.lookup(word):
            key = [obs.shape]
            for slot, tag in obs.tags:
                if tag not in tops:
                    h = _concept_hierarchy(hiers, tag)
                    chain = h._chain(tag)
                    tops[tag] = h, ((h.kind, chain[-2]) if chain[1:] else None)
                key += slot, tops[tag][1]
            i = at.get(key := tuple(key))
            if i is None:
                if None not in key:  # one tagged at a root has no class
                    at[key] = len(out)
                out.append(obs)
            else:
                first = out[i]
                out[i] = TaggedDisjunct._of(first.shape, tuple(
                    (slot, tops[b][0].lcs(a, b))
                    for (slot, a), (_, b) in zip(first.tags, obs.tags)),
                    first.support + obs.support)
        table[word] = tuple(out)
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
    partners = list(_slot_partners(witness))
    found: dict = {}  # concept -> Evidence of its first fitting usage
    any_tagged = False
    # the unknown word's neighbours left to right, each with its own slot
    # that links to the unknown word
    for q in sorted(partners[unknown_pos].values()):
        slot = next(s for s, r in partners[q].items() if r == unknown_pos)
        usages = semlex.lookup(words[q])
        any_tagged = any_tagged or any(u.tags for u in usages)
        for usage in usages:
            if not compatible(usage.shape, witness.choices[q]):
                continue
            emitted = usage.tag_at(*slot)
            if emitted is None:
                continue
            facts = []
            for other, tag in usage.tags:
                if other == slot:
                    continue
                filler = words[partners[q][other]]
                h = _concept_hierarchy(hiers, tag)
                if filler not in h or not h.subsumes(tag, filler):
                    break
                facts.append((filler, tag))
            else:
                found.setdefault(emitted,
                                 Evidence(words[q], usage, tuple(facts)))
    if not any_tagged:
        raise NoSemanticEvidenceError(
            "no linked word has tagged usages for %r" % words[unknown_pos])
    return list(found.items())


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
                    if hiers.hierarchy_of(tag_name) is None:
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


def _tagged_body(body: str, connector) -> TaggedDisjunct:
    """The observation, with support 1, of a body the item regex matched;
    `connector` reads a connector's text."""
    sides, tags = [], []
    for side, tokens in zip(("left", "right"), _body_tokens(body)):
        conns = []
        for i, token in enumerate(tokens):
            name, _, tag_name = token.partition("_")
            conns.append(connector(name))
            if tag_name:
                tags.append(((side, i), tag_name))
        sides.append(tuple(conns))
    return TaggedDisjunct._of(Disjunct(*sides), tuple(tags))


def _builder():
    """Turns a word's raw (body, support) items into its pooled
    observations.  One per parsed value, so that a body text is read once
    and each connector text once."""
    parsed: dict[str, TaggedDisjunct] = {}  # body text -> observation
    connector = functools.cache(Connector.parse)  # connector text -> value

    def observation(body: str, support: int) -> TaggedDisjunct:
        obs = parsed.get(body)
        if obs is None:
            obs = parsed[body] = _tagged_body(body, connector)
        return (obs if support == 1
                else TaggedDisjunct._of(obs.shape, obs.tags, support))

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
    if None in map(hiers.hierarchy_of, set(_TAG_NAME_RE.findall(text))):
        return None  # a name in neither hierarchy
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
