"""The references the solver is checked against.

`enumerate_bruteforce` tries every disjunct combination and every pairing
of matching connector occurrences, keeping the candidates that pass
`validate`.  It is independent of the solver's search, and capped for
tractability.

`reference_solve` is the earlier form of `linker.solve`, under the same
contract: the same search, which labels every link as it makes it, reads a
wildcard's disjunct back off those labels (`reference_read_off`), and
collects failure causes by pushing each (position, disjunct) pair on a
shared path and tagging the whole path with a set of kinds at every failed
branch.

`reference_substituted` is the earlier form of `syntax._substituted`: it
relabels the unknown words' links of a witness through `slot_links`, and
picks each unknown word's inventory form by those relabelled pairs.

`reference_bijection_exists` is the earlier form of
`linker._bijection_exists`: it tries every permutation of a word's slots.

`reference_generalize` is the earlier form of `semantics.generalize`: a
greedy pairwise scan of each word's observations through `try_merge`,
which merges two observations when every pair of their tags has a least
common subsumer below the root.

`reference_classify` is the earlier form of `semantics.classify_unknown`:
it walks the unknown word's links from `slot_links` in reverse, finds each
neighbour's slot with `list.index`, and reads each filler off that slot's
link.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from lexacq.lexicon import Connector, Disjunct, Lexicon
from lexacq.linker import (FAILURE_KINDS, MAX_SENTENCE_WORDS, Link, Linkage,
                           SentenceTooLongError, SolveOutcome,
                           UnknownWordError, _reachable, _slot_serves,
                           compatible, link_label, match, slot_links,
                           validate)
from lexacq.semantics import (ConceptHierarchies, Evidence,
                              NoSemanticEvidenceError, SemanticLexicon,
                              TaggedDisjunct, UnknownCountError,
                              _concept_hierarchy)
from lexacq.syntax import acquire_syntax

ORACLE_CAP_DEFAULT = 7


class OracleCapError(ValueError):
    """Sentence is longer than the brute-force enumerator allows."""


def enumerate_bruteforce(
    words: Sequence[str], lexicon: Lexicon, cap: int = ORACLE_CAP_DEFAULT
) -> list[Linkage]:
    """Exhaustive reference enumeration: every disjunct combination, every
    pairing of rightward with matching leftward connector occurrences,
    filtered by `validate`.  Independent of the solver's search; capped for
    tractability.
    """
    words = tuple(words)
    if len(words) > cap:
        raise OracleCapError(
            "%d words exceeds oracle cap %d" % (len(words), cap))
    entry_lists = []
    for i, w in enumerate(words):
        ds = lexicon.lookup(w)
        if ds is None:
            raise UnknownWordError(w, i)
        entry_lists.append(ds)

    found: dict[tuple, Linkage] = {}
    for indices in itertools.product(*(range(len(ds)) for ds in entry_lists)):
        combo = tuple(entry_lists[p][i] for p, i in enumerate(indices))
        right_occ = [(p, c) for p, d in enumerate(combo) for c in d.right]
        left_occ = [(p, c) for p, d in enumerate(combo) for c in d.left]
        if len(right_occ) != len(left_occ):
            continue  # each link consumes one rightward and one leftward

        def pairings(next_left: int, used: int, acc: list):
            if next_left == len(left_occ):
                yield list(acc)
                return
            lp, lc = left_occ[next_left]
            for r, (rp, rc) in enumerate(right_occ):
                # rightward connectors link strictly rightward, and only
                # matching connectors can serve one link
                if used & (1 << r) or rp >= lp or not match(rc, lc):
                    continue
                acc.append((rp, rc, lp, lc))
                yield from pairings(next_left + 1, used | (1 << r), acc)
                acc.pop()

        for pairing in pairings(0, 0, []):
            link_objs = tuple(
                Link(rp, lp, link_label(rc, lc)) for rp, rc, lp, lc in pairing
            )
            candidate = Linkage(words, combo, link_objs)
            if validate(candidate):
                continue
            key = (indices, candidate.links)
            if key not in found:
                found[key] = candidate
    return [found[k] for k in sorted(found)]


def reference_read_off(p: int, links) -> Disjunct:
    """The disjunct a wildcard at p links with: left connectors from the
    links (q, p) nearest q first, right connectors from the links (p, r)
    farthest r first.  A wildcard link's label is the known word's
    connector written out exactly."""
    left = sorted(((q, label) for q, r, label in links if r == p),
                  reverse=True)
    right = sorted(((r, label) for q, r, label in links if q == p),
                   reverse=True)
    return Disjunct(tuple(Connector.parse(label) for _, label in left),
                    tuple(Connector.parse(label) for _, label in right))


def reference_solve(
    candidates: Sequence[Optional[Sequence[Disjunct]]],
    collect_causes: bool = False,
) -> SolveOutcome:
    """Enumerate every valid linkage by depth-first search, under the same
    contract as `linker.solve`.

    `candidates[p]` is the disjunct sequence tried at position p, or None
    for a wildcard that may absorb any open rightward connector and may
    open connectors for later known words to absorb; never a wildcard's,
    as no known requirement would justify that link.  When
    `collect_causes` is set, each known (position, disjunct) pair taking
    part in a failed branch is tagged with the failure kinds it witnessed
    (ordering, exclusion, connectivity), and the tags become FAILURE_KINDS
    masks at the end.  Raises SentenceTooLongError past MAX_SENTENCE_WORDS
    words.
    """
    n = len(candidates)
    if n > MAX_SENTENCE_WORDS:
        raise SentenceTooLongError(n)
    unknown = {p for p, ds in enumerate(candidates) if ds is None}
    out = SolveOutcome([])
    blamed: dict = {}  # (pos, disjunct) -> set of failure kinds
    applied: list = []  # (pos, disjunct) pairs on the current path

    # a wildcard may open at most as many connectors as the words after it
    # could ever absorb
    push_cap = [0] * (n + 1)
    for p in range(n - 1, -1, -1):
        cap = push_cap[p + 1]
        if p not in unknown and candidates[p]:
            cap += max(len(d.left) for d in candidates[p])
        push_cap[p] = cap

    def blame(kind: str, extra=None) -> None:
        if not collect_causes:
            return
        for key in applied:
            blamed.setdefault(key, set()).add(kind)
        if extra is not None:
            blamed.setdefault(extra, set()).add(kind)

    def record_solution(links: tuple) -> None:
        by_pos = dict(applied)
        choices = tuple(reference_read_off(p, links) if p in unknown
                        else by_pos[p] for p in range(n))
        out.solutions.append(choices)

    def links_for(p: int, d: Disjunct, stack: tuple):
        """The links d's left connectors make with the top of the stack;
        None on failure."""
        if len(d.left) > len(stack):
            blame("ordering", (p, d))
            return None
        seen = set()
        new_links = []
        for i, a in enumerate(d.left):
            src, conn = stack[-1 - i]
            if src in seen:
                blame("exclusion", (p, d))
                return None
            seen.add(src)
            if conn is None:
                new_links.append((src, p, str(a)))
            elif match(conn, a):
                new_links.append((src, p, link_label(conn, a)))
            else:
                blame("ordering", (p, d))
                return None
        return tuple(new_links)

    def at(p: int, stack: tuple, links: tuple) -> None:
        """Search on from word p, given the links made before it and the
        open rightward connectors: a stack of (source position, Connector,
        or None for a wildcard's)."""
        if p == n:
            if stack:
                blame("ordering")
            elif len(_reachable(links)) < n:
                blame("connectivity")
            else:
                record_solution(links)
            return
        if p in unknown:
            max_k = 0
            seen = set()
            while max_k < len(stack):
                src, conn = stack[-1 - max_k]
                if conn is None or src in seen:
                    break
                seen.add(src)
                max_k += 1
            for k in range(max_k + 1):
                rest = stack[: len(stack) - k]
                here = links + tuple(
                    (src, p, str(c)) for src, c in stack[len(stack) - k:])
                for j in range(push_cap[p + 1] + 1):
                    out.nodes += 1
                    at(p + 1, rest + ((p, None),) * j, here)
            return
        for d in candidates[p]:
            out.nodes += 1
            new_links = links_for(p, d, stack)
            if new_links is None:
                continue
            applied.append((p, d))
            at(p + 1,
               stack[: len(stack) - len(d.left)]
               + tuple((p, b) for b in d.right),
               links + new_links)
            applied.pop()

    at(0, (), ())
    out.causes = {key: sum(1 << FAILURE_KINDS.index(kind) for kind in kinds)
                  for key, kinds in blamed.items()}
    return out


def reference_substituted(witness: Linkage, unknown: Sequence[int],
                           inventory: Sequence[Disjunct]) -> Linkage:
    """The witness with each unknown word's read-off disjunct replaced by
    the compatible inventory form giving the smallest relabelled links
    (the first in inventory order on ties), so the links carry the
    lexicon's subscripts."""
    slots = slot_links(witness)
    choices = list(witness.choices)
    labels = {}
    for p in unknown:
        h = choices[p]
        lefts, rights = slots[p]

        def relabelled(form):
            """p's (link, label) pairs with form at p, in link order."""
            return sorted(
                (link, link_label(c, f))
                for links, cs, fs in ((lefts, h.left, form.left),
                                      (rights, h.right, form.right))
                for link, c, f in zip(links, cs, fs))

        choices[p] = min((d for d in inventory if compatible(h, d)),
                         key=relabelled)
        labels.update(relabelled(choices[p]))
    return Linkage(witness.words, choices, tuple(
        Link(l.left, l.right, labels.get(l, l.label)) for l in witness.links))


def reference_bijection_exists(slots, label_conns) -> bool:
    """Is there any slot assignment serving every incident link's label?
    Tries every permutation of the slots."""
    if len(slots) != len(label_conns):
        return False
    if not slots:
        return True
    for perm in itertools.permutations(range(len(slots))):
        if all(_slot_serves(slots[slot_i], lc)
               for lc, slot_i in zip(label_conns, perm)):
            return True
    return False


def try_merge(a: TaggedDisjunct, b: TaggedDisjunct,
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


def reference_generalize(semlex: SemanticLexicon,
                         hiers: ConceptHierarchies) -> SemanticLexicon:
    """Greedy pairwise merging per word: the first mergeable pair in
    insertion order merges into the earlier item, until no pair merges.
    One pass suffices, as a pair that could not merge never can later:
    after a merge at (i, j) the scan goes on with the item now at j."""
    table = {}
    for word in semlex.words():
        items = list(semlex.lookup(word))
        i = 0
        while i < len(items):
            j = i + 1
            while j < len(items):
                merged = try_merge(items[i], items[j], hiers)
                if merged is None:
                    j += 1
                else:
                    items[i] = merged
                    del items[j]
            i += 1
        table[word] = tuple(items)
    return SemanticLexicon(table)


def reference_classify(
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
