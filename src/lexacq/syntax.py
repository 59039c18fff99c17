"""Unknown-word syntactic acquisition.

Given a sentence containing words missing from the lexicon, infer the
disjuncts those words must carry for the sentence to have a valid linkage.
One pipeline: prune known disjuncts by counting, then one `solve` with the
unknown words as wildcards keeps the known disjuncts some linkage uses and
synthesizes each unknown word's disjunct from its links; the hypotheses are
filtered against the lexicon's disjunct inventory, and each surviving
joint's witness is read off that same solve.  Every elimination and
hypothesis is recorded in a replayable trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .lexicon import Disjunct, Lexicon, check_word
from .linker import (FAILURE_KINDS, Linkage, SolveOutcome, compatible,
                     linkages_from, links_for, solve)


class NoSolutionError(ValueError):
    """No disjunct assignment gives the sentence a valid linkage.  `trace`
    holds the elimination events of the pruning that found none."""

    def __init__(self, message: str, trace: Sequence[TraceEvent] = ()):
        super().__init__(message)
        self.trace = tuple(trace)


class TooManyUnknownsError(ValueError):
    """More unknown words than the configured cap."""


@dataclass(frozen=True)
class TraceEvent:
    action: str  # eliminate | hypothesize
    position: int
    word: str
    disjunct: Disjunct
    reason: str

    def __str__(self):
        return "%s:%d:%s:%s:%s" % (
            self.action, self.position, self.word, self.disjunct, self.reason)


def render_trace(events: Sequence[TraceEvent]) -> str:
    return "\n".join(str(e) for e in events)


@dataclass
class AcquisitionResult:
    words: tuple[str, ...]
    unknown_positions: tuple[int, ...]
    hypotheses: dict[int, tuple[Disjunct, ...]]  # post-filter projections
    prefilter: dict[int, tuple[Disjunct, ...]]
    pruned_known: dict[int, tuple[Disjunct, ...]]
    joints: tuple[dict, ...]  # position -> Disjunct, one per surviving joint
    linkages: list[Linkage]  # one witness per joint
    novel: bool
    trace: tuple[TraceEvent, ...]
    stats: dict = field(default_factory=dict)

    def acquired_entries(self) -> dict[str, tuple[Disjunct, ...]]:
        """Union of hypotheses per unknown word, in hypothesis order."""
        entries: dict[str, list[Disjunct]] = {}
        for p in self.unknown_positions:
            bucket = entries.setdefault(self.words[p], [])
            for d in self.hypotheses[p]:
                if d not in bucket:
                    bucket.append(d)
        return {w: tuple(ds) for w, ds in entries.items()}


# --- pruning ----------------------------------------------------------------

def _count_reason(side: str, available: int) -> str:
    if available == 0:
        return "%s connector unsatisfiable: no words to the %s" % (side, side)
    word = "word" if available == 1 else "words"
    return "%s connector unsatisfiable: only %d %s to the %s" % (
        side, available, word, side)


def _cause_reason(mask: int) -> str:
    """The lowest failure kind set in the FAILURE_KINDS mask, as a reason.
    Every search branch ends in a solution or a failure, so an unsupported
    disjunct with no failure kinds was never tried."""
    if not mask:
        return "not reached"
    return "%s conflict" % FAILURE_KINDS[(mask & -mask).bit_length() - 1]


def _prune(words: tuple[str, ...], known: Mapping[int, tuple[Disjunct, ...]]):
    """Two-pass pruning of the known positions' entries; returns
    (survivors, trace, solve outcome).

    Pass 1 removes disjuncts needing more words to one side than exist;
    pass 2 keeps exactly the disjuncts used by some valid linkage when
    the other positions act as wildcards; when pass 1 leaves a word nothing,
    no linkage exists and pass 2 names that word.  Scanning is by position
    then entry order, so the trace replays eliminations deterministically.
    """
    n = len(words)
    trace: list[TraceEvent] = []
    survivors: dict[int, list[Disjunct]] = {}
    for p in sorted(known):
        survivors[p] = []
        for d in known[p]:
            if len(d.left) > p:
                trace.append(TraceEvent("eliminate", p, words[p], d,
                                        _count_reason("left", p)))
            elif len(d.right) > n - 1 - p:
                trace.append(TraceEvent("eliminate", p, words[p], d,
                                        _count_reason("right", n - 1 - p)))
            else:
                survivors[p].append(d)

    candidates = [tuple(survivors[p]) if p in survivors else None
                  for p in range(n)]
    outcome = solve(candidates, collect_causes=True)
    emptied = next((p for p, ds in survivors.items() if not ds), None)

    supported = {(p, choices[p]) for choices in outcome.solutions
                 for p in known}
    pruned: dict[int, tuple[Disjunct, ...]] = {}
    for p in sorted(survivors):
        kept = []
        for d in survivors[p]:
            if (p, d) in supported:
                kept.append(d)
            else:
                reason = ("word %d has no disjunct left" % emptied
                          if emptied is not None
                          else _cause_reason(outcome.causes.get((p, d), 0)))
                trace.append(TraceEvent("eliminate", p, words[p], d, reason))
        pruned[p] = tuple(kept)
    return pruned, trace, outcome


# --- hypothesis generation --------------------------------------------------


def _frequencies(forms: Mapping[Disjunct, Sequence[Disjunct]],
                 lexicon: Lexicon) -> dict[Disjunct, int]:
    """For each hypothesis, the number of lexicon words whose entry holds
    one of its compatible inventory forms.  Words with equal entries are
    counted together, so each distinct entry is read once per hypothesis."""
    entries = lexicon.entry_counts().items()
    sets = {h: set(fs) for h, fs in forms.items()}
    return {h: sum(n for ds, n in entries if not fs.isdisjoint(ds))
            for h, fs in sets.items()}


def _ranked(keys: Iterable[tuple], i: int, rank) -> tuple[Disjunct, ...]:
    """The distinct hypotheses in column i of the joint keys, in rank order."""
    return tuple(sorted({key[i] for key in keys}, key=rank))


def _joints_from(outcome: SolveOutcome, unknown: Sequence[int]
                 ) -> dict[tuple, tuple[Disjunct, ...]]:
    """Distinct joint assignments in discovery order, each with the choice
    vector of its smallest links, the first found on ties; links are made
    only for a joint that more than one solution has."""
    joints: dict[tuple, list] = {}
    for choices in outcome.solutions:
        joints.setdefault(tuple(choices[p] for p in unknown), []).append(
            choices)
    return {key: sols[0] if len(sols) == 1 else min(sols, key=links_for)
            for key, sols in joints.items()}


def _forms(h: Disjunct, inventory: Sequence[Disjunct]) -> list[Disjunct]:
    """The inventory forms compatible with h, in inventory order: connector
    match, not equality, so ((D) (Ss)) has the form ((Ds) (Ss))."""
    return [d for d in inventory if compatible(h, d)]


def filter_by_inventory(hyps: Sequence[Disjunct],
                        inventory: Sequence[Disjunct]) -> tuple[Disjunct, ...]:
    """Hypotheses already used by some known word, input order preserved."""
    return tuple(h for h in hyps if _forms(h, inventory))


def _substituted(witness: tuple[Disjunct, ...], unknown: Sequence[int],
                 forms: Mapping[Disjunct, Sequence[Disjunct]]
                 ) -> tuple[Disjunct, ...]:
    """The witness's choices with each unknown word's read-off disjunct
    replaced by its compatible inventory form (`forms`) giving the smallest
    links (the first in inventory order on ties), so the links carry the
    lexicon's subscripts."""
    choices = witness
    for p in unknown:
        trials = [choices[:p] + (d,) + choices[p + 1:]
                  for d in forms[witness[p]]]
        choices = min(trials, key=links_for)
    return choices


def acquire_syntax(
    words: Sequence[str],
    lexicon: Lexicon,
    *,
    max_unknowns: int = 2,
    filter_on: bool = True,
) -> AcquisitionResult:
    """Full pipeline: prune, one solve, synthesize, filter, witness read-off.

    Unknown words are the ones absent from the lexicon.  With no unknowns
    the sentence is simply parsed.  Raises LexiconError for an unknown
    word the lexicon could not hold, TooManyUnknownsError over the cap,
    SentenceTooLongError and SearchBudgetError past the solver's length and
    search limits, and NoSolutionError for unlinkable sentences.
    """
    words = tuple(words)
    known: dict[int, tuple[Disjunct, ...]] = {}
    unknown: list[int] = []
    for p, w in enumerate(words):
        entry = lexicon.lookup(w)
        if entry is None:
            check_word(w)
            unknown.append(p)
        else:
            known[p] = entry
    if len(unknown) > max_unknowns:
        raise TooManyUnknownsError(
            "%d unknown words exceed the cap of %d (%s)"
            % (len(unknown), max_unknowns,
               ", ".join(words[p] for p in unknown)))

    pruned, trace, outcome = _prune(words, known)
    if not outcome.solutions:
        raise NoSolutionError(
            "no valid linkage for %r" % (" ".join(words),), trace)

    # once per linkable call: the blind count and the forms read it
    inventory = lexicon.inventory() if unknown else ()
    blind = max(len(inventory), 1) ** len(unknown)
    for entry in known.values():
        blind *= max(len(entry), 1)
    stats = {"explored_nodes": outcome.nodes, "blind_candidates": blind}

    if not unknown:
        # count pruning drops only disjuncts no linkage can use and keeps
        # entry order, so these are parse's linkages in parse's order
        return AcquisitionResult(
            words, (), {}, {}, pruned, ({},),
            linkages_from(words, outcome.solutions),
            novel=False, trace=tuple(trace), stats=stats)

    joint_map = _joints_from(outcome, unknown)
    # each distinct hypothesis's compatible inventory forms, once per call:
    # ranking, the filter and the witnesses read them
    forms = {h: _forms(h, inventory)
             for h in {h for key in joint_map for h in key}}
    # rank keys (most frequent first, then display form)
    counts = _frequencies(forms, lexicon)
    rank = {h: (-n, str(h)) for h, n in counts.items()}
    hyp_key = rank.__getitem__

    ordered_joints = sorted(
        joint_map, key=lambda key: tuple(hyp_key(h) for h in key))
    prefilter: dict[int, tuple[Disjunct, ...]] = {}
    for i, p in enumerate(unknown):
        prefilter[p] = _ranked(ordered_joints, i, hyp_key)
        for h in prefilter[p]:
            trace.append(TraceEvent("hypothesize", p, words[p], h,
                                    "synthesis"))

    novel = False
    if filter_on:
        surviving = [key for key in ordered_joints
                     if all(forms[h] for h in key)]
        if surviving:
            for p in unknown:
                for h in prefilter[p]:
                    if not forms[h]:
                        trace.append(TraceEvent(
                            "eliminate", p, words[p], h,
                            "not in lexicon inventory"))
        else:
            novel = True
            surviving = ordered_joints
    else:
        surviving = ordered_joints

    hypotheses = {p: _ranked(surviving, i, hyp_key)
                  for i, p in enumerate(unknown)}

    # each joint's witness is its smallest solution of the pruning solve
    witnesses = [joint_map[key] for key in surviving]
    if filter_on and not novel:
        witnesses = [_substituted(c, unknown, forms) for c in witnesses]
    linkages = linkages_from(words, witnesses)

    return AcquisitionResult(
        words, tuple(unknown), hypotheses, prefilter, pruned,
        tuple(dict(zip(unknown, key)) for key in surviving), linkages,
        novel, tuple(trace), stats)
