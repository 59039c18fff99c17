"""Planar linkage solving over connector lexicons.

A linkage for a sentence picks one disjunct per word and a set of links so
that links do not cross (planarity), the linkage graph is connected, no
word pair carries more than one link (exclusion), every connector is used by
exactly one link, and each word's links occur in the positional order its
connector lists dictate.  Cycles are allowed.  Planarity is exactly a stack
discipline, so with the ordering rule one choice of disjuncts fixes the
links: `links_for` makes and labels them.

The solver (`solve`, behind `parse`) is a depth-first search over the
sentence left to right whose state is (position, open connectors): the
stack of open rightward connectors is passed down the recursion, and the
failure kinds each subtree witnessed are returned up it.  The rest of the
state is scoped to the path and lives in lists of one solve: the links made
so far, each with the connector at its known end instead of a label, and
the disjunct chosen at each word are appended on the way down and truncated
on the way back; each (position, entry index) ORs the failure kinds of its
branches into one mask, and the causes are built from these after the
search.  A solution is its choice vector, one disjunct per word, made at a
leaf that is a linkage.  An unknown word is a wildcard whose disjunct is
read off the path's links at that leaf: the connectors its left and right
context link with.  `linkages_from` turns choice vectors into linkages
through `links_for`.  Any search behind `solve` keeps its contract: None
candidates mark wildcards, solutions are choice vectors in canonical
(search) order, `nodes` counts the search nodes, and `causes` holds one
FAILURE_KINDS mask per known (position, disjunct) it tried that failed on
some branch.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .lexicon import Connector, Disjunct, Lexicon, LexiconError

# The search recurses once per word; the cap keeps it well below Python's
# default recursion limit of 1000 frames.
MAX_SENTENCE_WORDS = 500
# The search is exponential in the sentence length; the cap bounds the
# nodes one solve may visit, about 17 times the most any test or benchmark
# op visits.
MAX_SEARCH_NODES = 500_000

# The failure kinds a search branch can witness, in the order a pruning
# reason names them; bit i of a kinds mask stands for FAILURE_KINDS[i].
FAILURE_KINDS = ("ordering", "exclusion", "connectivity")
_ORDERING, _EXCLUSION, _CONNECTIVITY = 1, 2, 4


class UnknownWordError(LookupError):
    """A sentence word is absent from the lexicon."""

    def __init__(self, word: str, position: int):
        super().__init__("unknown word %r at position %d" % (word, position))
        self.word = word
        self.position = position


class SentenceTooLongError(ValueError):
    """Sentence is longer than the solver allows (MAX_SENTENCE_WORDS)."""

    def __init__(self, length: int):
        super().__init__("sentence of %d words exceeds the limit of %d"
                         % (length, MAX_SENTENCE_WORDS))


class SearchBudgetError(ValueError):
    """The search visited more nodes than the solver allows
    (MAX_SEARCH_NODES)."""

    def __init__(self, budget: int):
        super().__init__("linkage search exceeds the limit of %d nodes"
                         % budget)


def match(c1: Connector, c2: Connector) -> bool:
    """Connectors link iff bases agree and subscripts agree or one is empty."""
    return c1.base == c2.base and (
        not c1.subscript or not c2.subscript or c1.subscript == c2.subscript
    )


def compatible(a: Disjunct, b: Disjunct) -> bool:
    """Same shape and every connector pair can match."""
    if len(a.left) != len(b.left) or len(a.right) != len(b.right):
        return False
    return all(match(x, y) for x, y in zip(a.left + a.right, b.left + b.right))


def link_label(c1: Connector, c2: Connector) -> str:
    """Display form of the more specific of two matched connectors."""
    return str(c1) if len(c1.subscript) >= len(c2.subscript) else str(c2)


def links_for(choices: Sequence[Disjunct]) -> tuple[tuple[int, int, str], ...]:
    """The sorted (left, right, label) links of wildcard-free choices by the
    stack rule: each word's left connectors, nearest first, pop the open
    connectors on top; then its right ones are pushed, the nearest on top."""
    stack: list = []
    links = []
    for p, d in enumerate(choices):
        for a in d.left:
            q, c = stack.pop()
            links.append((q, p, link_label(c, a)))
        for b in d.right:
            stack.append((p, b))
    return tuple(sorted(links))


@dataclass(frozen=True, order=True)
class Link:
    left: int
    right: int
    label: str

    def __post_init__(self):
        if not 0 <= self.left < self.right:
            raise ValueError("bad link positions (%r, %r)" % (self.left, self.right))


@dataclass(frozen=True)
class Linkage:
    words: tuple[str, ...]
    choices: tuple[Disjunct, ...]
    links: tuple[Link, ...]

    def __post_init__(self):
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "choices", tuple(self.choices))
        object.__setattr__(self, "links", tuple(sorted(self.links)))
        if len(self.words) != len(self.choices):
            raise ValueError("one disjunct choice per word required")

    def link_set(self) -> set[tuple[int, int, str]]:
        return {(l.left, l.right, l.label) for l in self.links}


@dataclass(frozen=True)
class Violation:
    rule: str  # planarity | connectivity | exclusion | ordering | saturation
    positions: tuple[int, ...]
    detail: str = ""


# --- solver ---------------------------------------------------------------


@dataclass
class SolveOutcome:
    # each solution is its choice vector, one disjunct per word, in
    # canonical order; `links_for` gives its links
    solutions: list[tuple[Disjunct, ...]]
    nodes: int = 0
    causes: dict = field(default_factory=dict)  # (pos, disjunct) -> mask


def _reachable(links) -> set[int]:
    """Positions reachable from word 0 over (left, right, ...) links.
    A sentence of n words is connected iff n of them are reachable."""
    adj: dict[int, list[int]] = {}
    for q, p, _ in links:
        adj.setdefault(q, []).append(p)
        adj.setdefault(p, []).append(q)
    seen = {0}
    frontier = [0]
    while frontier:
        for nxt in adj.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _read_off(p: int, links) -> Disjunct:
    """The disjunct a wildcard at p links with, from links (q, r, c) that
    carry the connector c at their known end: left connectors from the
    links (q, p) nearest q first, right connectors from the links (p, r)
    farthest r first."""
    ordered = sorted(links, reverse=True)
    return Disjunct(tuple(c for q, r, c in ordered if r == p),
                    tuple(c for q, r, c in ordered if q == p))


def solve(
    candidates: Sequence[Optional[Sequence[Disjunct]]],
    collect_causes: bool = False,
) -> SolveOutcome:
    """Enumerate every valid linkage by depth-first search.

    `candidates[p]` is the disjunct sequence tried at position p, or None
    for a wildcard that may absorb any open rightward connector and may
    open connectors for later known words to absorb; never a wildcard's,
    as no known requirement would justify that link.  Each solution is a
    choice vector: the disjunct at each word, a wildcard's read off the
    connectors its links meet.  The solutions come in search order, which
    is canonical; `nodes` counts the search nodes.  Each branch returns
    the failure kinds its subtree witnessed as a FAILURE_KINDS mask; with
    `collect_causes`, `causes` maps each known (position, disjunct) pair
    that failed on some branch to the OR of its failed branches' masks; a
    disjunct listed twice at one position has one key.  The search keeps
    its path in lists of its own, freed on return, and mutates no input.
    Raises SentenceTooLongError past MAX_SENTENCE_WORDS words and
    SearchBudgetError past MAX_SEARCH_NODES search nodes.  A known word
    with no candidate links nothing, so its sentence is not searched.
    """
    n = len(candidates)
    if n > MAX_SENTENCE_WORDS:
        raise SentenceTooLongError(n)
    out = SolveOutcome([])
    if not all(ds for ds in candidates if ds is not None):
        return out
    budget = MAX_SEARCH_NODES

    # a wildcard may open at most as many connectors as the words after it
    # could ever absorb
    push_cap = [0] * (n + 1)
    for p in range(n - 1, -1, -1):
        cap = push_cap[p + 1]
        if candidates[p] is not None:
            cap += max(len(d.left) for d in candidates[p])
        push_cap[p] = cap

    # the path-scoped state of the module docstring; an entry's push tuple
    # is built the first time it links
    links: list = []
    chosen: list = []
    pushes = [None if ds is None else [None] * len(ds) for ds in candidates]
    masks = ([None if ds is None else [0] * len(ds) for ds in candidates]
             if collect_causes else None)

    def at(p: int, stack: tuple) -> int:
        """Search on from word p, given the open rightward connectors: a
        stack of (source position, Connector, or None for a wildcard's).
        Returns the failure kinds of the subtree."""
        if p == n:
            if stack:
                return _ORDERING
            if len(_reachable(links)) < n:
                return _CONNECTIVITY
            out.solutions.append(tuple(_read_off(q, links) if d is None else d
                                       for q, d in enumerate(chosen)))
            return 0
        kinds = 0
        top = len(stack)
        mark = len(links)
        ds = candidates[p]
        if ds is None:
            max_k = 0
            seen = ()
            while max_k < top:
                src, conn = stack[top - 1 - max_k]
                if conn is None or src in seen:
                    break
                seen += (src,)
                max_k += 1
            chosen.append(None)
            cap = push_cap[p + 1]
            for k in range(max_k + 1):
                if k:
                    src, conn = stack[top - k]
                    links.append((src, p, conn))
                rest = stack[: top - k]
                for j in range(cap + 1):
                    out.nodes += 1
                    if out.nodes > budget:
                        raise SearchBudgetError(budget)
                    kinds |= at(p + 1, rest + ((p, None),) * j)
            del links[mark:]
            chosen.pop()
            return kinds
        for i, d in enumerate(ds):
            out.nodes += 1
            if out.nodes > budget:
                raise SearchBudgetError(budget)
            left = d.left
            if len(left) > top:
                failed = _ORDERING
            else:
                # d's left connectors link with the top of the stack
                failed = 0
                seen = ()
                at_top = top
                for a in left:
                    at_top -= 1
                    src, conn = stack[at_top]
                    if src in seen:
                        failed = _EXCLUSION
                        break
                    seen += (src,)
                    if conn is not None and not match(conn, a):
                        failed = _ORDERING
                        break
                    links.append((src, p, a))
                if not failed:
                    push = pushes[p][i]
                    if push is None:
                        push = pushes[p][i] = tuple((p, b) for b in d.right)
                    chosen.append(d)
                    failed = at(p + 1, stack[:at_top] + push)
                    chosen.pop()
                del links[mark:]
            if failed:
                kinds |= failed
                if masks is not None:
                    masks[p][i] |= failed
        return kinds

    try:
        at(0, ())
    finally:  # `at` holds itself through its closure: free the search state
        del at
    if masks is not None:
        # a position may list one disjunct twice: one key ORs both masks
        causes = out.causes
        for p, row in enumerate(masks):
            for i, mask in enumerate(row or ()):
                if mask:
                    key = (p, candidates[p][i])
                    causes[key] = causes.get(key, 0) | mask
    return out


def parse(words: Sequence[str], lexicon: Lexicon) -> list[Linkage]:
    """All valid linkages, in search order.  That order is canonical:
    by each word's entry index, as the search tries entries in order and
    one choice of disjuncts fixes the links."""
    words = tuple(words)
    candidates = []
    for i, w in enumerate(words):
        ds = lexicon.lookup(w)
        if ds is None:
            raise UnknownWordError(w, i)
        candidates.append(ds)
    return linkages_from(words, solve(candidates).solutions)


def linkages_from(words: Sequence[str],
                  solutions: Sequence[Sequence[Disjunct]]) -> list[Linkage]:
    """The linkages of the choice vectors, in the order given, each with
    the links `links_for` its choices."""
    return [Linkage(words, c, tuple(Link(*t) for t in links_for(c)))
            for c in solutions]


# --- validation -----------------------------------------------------------


def slot_links(linkage: Linkage) -> list[tuple[list[Link], list[Link]]]:
    """For each word, the links at its left connectors and the links at
    its right connectors, in the pairing the ordering rule dictates: left
    nearest first, right farthest first.  A word whose disjunct the links
    do not saturate gets lists of other lengths than its disjunct's
    sides."""
    n = len(linkage.words)
    in_links: list[list[Link]] = [[] for _ in range(n)]
    out_links: list[list[Link]] = [[] for _ in range(n)]
    for link in linkage.links:
        out_links[link.left].append(link)
        in_links[link.right].append(link)
    return [(sorted(in_links[p], key=lambda l: -l.left),
             sorted(out_links[p], key=lambda l: -l.right))
            for p in range(n)]


def _label_connector(label: str):
    """The link label parsed back into a connector; None for labels no
    connector could display."""
    try:
        return Connector.parse(label)
    except LexiconError:
        return None


def _slot_serves(slot: Connector, label_conn) -> bool:
    """Can a connector written at a word justify a link with this label?"""
    return label_conn is not None and match(slot, label_conn)


def _bijection_exists(slots, label_conns) -> bool:
    """Is there any slot assignment serving every incident link's label?
    Within one base a bare slot or label matches any other, and two
    subscripted ones match only when their subscripts are equal.  So one
    exists iff every label is a connector, each base has as many slots as
    labels, and the subscripted labels that no slot of their own subscript
    can take fit in that base's bare slots."""
    if len(slots) != len(label_conns) or None in label_conns:
        return False
    surplus = Counter((c.base, c.subscript) for c in label_conns)
    surplus.subtract((c.base, c.subscript) for c in slots)
    per_base = Counter()
    bare_left = Counter(c.base for c in slots if not c.subscript)
    for (base, subscript), n in surplus.items():
        per_base[base] += n
        if subscript and n > 0:
            bare_left[base] -= n
    return (not any(per_base.values())
            and min(bare_left.values(), default=0) >= 0)


def validate(linkage: Linkage) -> list[Violation]:
    """Violated linkage rules, empty for a valid linkage."""
    violations: list[Violation] = []
    n = len(linkage.words)
    links = linkage.links
    for link in links:
        if link.right >= n:
            raise ValueError("link %r outside sentence" % (link,))

    # exclusion: at most one link per word pair
    pair_counts: dict[tuple[int, int], int] = {}
    for link in links:
        key = (link.left, link.right)
        pair_counts[key] = pair_counts.get(key, 0) + 1
    for pair, count in sorted(pair_counts.items()):
        if count > 1:
            violations.append(
                Violation("exclusion", pair, "%d links between pair" % count))

    # planarity: no two links may cross
    for l1, l2 in itertools.combinations(sorted(links), 2):
        a, b = l1.left, l1.right
        c, d = l2.left, l2.right
        if a < c < b < d or c < a < d < b:
            violations.append(
                Violation("planarity", (a, b, c, d),
                          "links (%d,%d) and (%d,%d) cross" % (a, b, c, d)))

    # connectivity
    comp = _reachable((l.left, l.right, l.label) for l in links)
    if len(comp) < n:
        violations.append(
            Violation("connectivity", tuple(sorted(set(range(n)) - comp)),
                      "not reachable from word 0"))

    # saturation and ordering, word by word against incident link labels;
    # paired as the ordering rule dictates
    slot_of: dict[tuple[int, Link], Connector] = {}
    clean = [False] * n
    for p, (lefts, rights) in enumerate(slot_links(linkage)):
        d = linkage.choices[p]
        if len(lefts) != len(d.left) or len(rights) != len(d.right):
            violations.append(
                Violation("saturation", (p,),
                          "word %d has %d links for %d leftward and %d for %d"
                          " rightward connectors"
                          % (p, len(lefts), len(d.left),
                             len(rights), len(d.right))))
            continue
        failed = False
        for links_here, slots in ((lefts, d.left), (rights, d.right)):
            for link, slot in zip(links_here, slots):
                slot_of[(p, link)] = slot
                if not _slot_serves(slot, _label_connector(link.label)):
                    failed = True
        if not failed:
            clean[p] = True
            continue
        # a reordering that serves every label is an ordering fault; a link
        # no assignment can serve leaves some connector unsatisfied
        left_labels = [_label_connector(l.label) for l in lefts]
        right_labels = [_label_connector(l.label) for l in rights]
        if (_bijection_exists(list(d.left), left_labels)
                and _bijection_exists(list(d.right), right_labels)):
            violations.append(
                Violation("ordering", (p,),
                          "connectors of word %d are linked out of order" % p))
        else:
            violations.append(
                Violation("saturation", (p,),
                          "a link at word %d matches no connector" % p))

    # a link's label must be exactly what its two connectors display
    for link in links:
        if not (clean[link.left] and clean[link.right]):
            continue
        cl = slot_of[(link.left, link)]
        cr = slot_of[(link.right, link)]
        if not match(cl, cr) or link.label != link_label(cl, cr):
            violations.append(
                Violation("saturation", (link.left, link.right),
                          "label %s of link (%d,%d) is not justified by %s"
                          " and %s" % (link.label, link.left, link.right,
                                       cl, cr)))
    return violations


# --- text renderings ------------------------------------------------------


def render_diagram(linkage: Linkage) -> str:
    """ASCII arc diagram: words on the bottom line separated by single
    spaces, a tick above every linked word, shorter links nested below
    longer ones, each arc labeled with its link label."""
    if validate(linkage):
        raise ValueError("cannot render an invalid linkage")
    words = linkage.words
    cols = []
    at = 0
    for w in words:
        cols.append(at)
        at += len(w) + 1
    words_line = " ".join(words)
    if not linkage.links:
        return words_line

    heights: dict[Link, int] = {}
    for link in sorted(linkage.links, key=lambda l: (l.right - l.left, l.left)):
        inner = [
            h for other, h in heights.items()
            if link.left <= other.left and other.right <= link.right
        ]
        heights[link] = 1 + max(inner, default=0)
    top = max(heights.values())

    width = len(words_line)
    grid = [[" "] * width for _ in range(top)]
    for link, h in heights.items():
        row = top - h
        cl, cr = cols[link.left], cols[link.right]
        for i in range(cl + 1, cr):
            grid[row][i] = "-"
        grid[row][cl] = grid[row][cr] = "+"
        pad = max((cr - cl - 1 - len(link.label)) // 2, 0)
        start = cl + 1 + pad
        for i, ch in enumerate(link.label):
            if start + i < cr:
                grid[row][start + i] = ch
    # carry tall arcs' endpoints down through the rows beneath them
    for link, h in heights.items():
        for h2 in range(1, h):
            row = top - h2
            for c in (cols[link.left], cols[link.right]):
                if grid[row][c] == " ":
                    grid[row][c] = "|"
    tick_row = [" "] * width
    for link in linkage.links:
        tick_row[cols[link.left]] = "|"
        tick_row[cols[link.right]] = "|"
    lines = ["".join(r).rstrip() for r in grid]
    lines.append("".join(tick_row).rstrip())
    lines.append(words_line)
    return "\n".join(lines)


def linkage_records(linkage: Linkage) -> str:
    """Line-oriented machine form: one word line per position, then links."""
    lines = [
        "%d:%s:%s" % (i, w, d)
        for i, (w, d) in enumerate(zip(linkage.words, linkage.choices))
    ]
    lines.extend(
        "link:%d:%d:%s" % (l.left, l.right, l.label) for l in linkage.links
    )
    return "\n".join(lines)
