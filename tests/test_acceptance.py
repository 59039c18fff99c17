"""Acceptance suite: one test per shipped guarantee.

Each test prints one PASS line (visible with -v as the test outcome) and
checks exact expected values or exhaustive/randomized properties.
"""

import itertools
import random
import time
from pathlib import Path

import pytest

from lexacq.lexicon import Connector, Disjunct, parse_lexicon, serialize_lexicon
from lexacq.linker import (
    Link,
    Linkage,
    match,
    parse,
    validate,
)
from oracle import enumerate_bruteforce
from lexacq.semantics import (
    ConceptHierarchy,
    classify_unknown,
    parse_semlex,
    serialize_semlex,
)
from lexacq.syntax import acquire_syntax, render_trace

GOLDEN_TRACE = Path(__file__).parent / "data" / "snipe_trace.txt"

EIGHT_WORDS = ("big", "car", "condor", "corn", "eats", "gasoline", "meat",
               "the")


def D(text):
    return parse_lexicon("x: %s" % text).lookup("x")[0]


def test_criterion_01_transitive_sentence_linkage(lexicon):
    started = time.perf_counter()
    linkages = parse("the condor eats the meat".split(), lexicon)
    elapsed = time.perf_counter() - started
    assert len(linkages) == 1
    only = linkages[0]
    assert only.link_set() == {
        (0, 1, "Ds"), (1, 2, "Ss"), (2, 4, "Os"), (3, 4, "Ds")}
    assert only.choices == (
        D("(( ) (D))"), D("((Ds) (Ss))"), D("((Ss) (O))"), D("(( ) (D))"),
        D("((Ds,Os) ( ))"))
    assert elapsed < 1.0
    print("criterion 1 PASS: unique linkage with the expected links")


def test_criterion_02_solver_equals_oracle_exhaustively(lexicon):
    started = time.perf_counter()
    oracle_cache = {}
    total = 0
    for length in range(1, 6):
        for sentence in itertools.product(EIGHT_WORDS, repeat=length):
            total += 1
            got = {(l.choices, l.links) for l in parse(sentence, lexicon)}
            signature = tuple(lexicon.lookup(w) for w in sentence)
            if signature not in oracle_cache:
                oracle_cache[signature] = {
                    (l.choices, l.links)
                    for l in enumerate_bruteforce(sentence, lexicon)
                }
            assert got == oracle_cache[signature], " ".join(sentence)
    elapsed = time.perf_counter() - started
    assert total == 37448
    assert elapsed < 300.0
    print("criterion 2 PASS: parse matched the oracle on all %d sentences"
          % total)


def test_criterion_03_unknown_subject_walkthrough(lexicon):
    result = acquire_syntax("the snipe eats meat".split(), lexicon)
    assert result.pruned_known[3] == (D("((Os) ( ))"),)
    assert result.prefilter[1] == (D("((D) (Ss))"), D("((D) (Os,Ss))"))
    assert result.hypotheses[1] == (D("((D) (Ss))"),)
    assert len(result.linkages) == 1
    assert result.linkages[0].link_set() == {
        (0, 1, "Ds"), (1, 2, "Ss"), (2, 3, "Os")}
    print("criterion 3 PASS: pruning, hypotheses, filter, and final linkage")


def test_criterion_04_elimination_trace_golden_file(lexicon):
    result = acquire_syntax("the snipe eats meat".split(), lexicon)
    golden = GOLDEN_TRACE.read_text(encoding="utf-8").rstrip("\n")
    assert render_trace(result.trace) == golden
    print("criterion 4 PASS: elimination trace matches the golden file")


def test_criterion_05_training_generalizes_usages(trained_semlex):
    eats = trained_semlex.lookup("eats")
    assert [(str(t), t.support) for t in eats] == [
        ("((Ss_animal) (O_food))", 2),
        ("((Ss_car) (O_gasoline))", 1),
    ]
    print("criterion 5 PASS: trained verb usages generalize as expected")


def test_criterion_06_unknown_word_classification(lexicon, hierarchies,
                                                  trained_semlex):
    results = classify_unknown("the snipe eats meat".split(),
                               lexicon, trained_semlex, hierarchies)
    assert [concept for concept, _ in results] == ["animal"]
    evidence = results[0][1]
    assert evidence.word == "eats"
    assert str(evidence.usage) == "((Ss_animal) (O_food))"
    assert evidence.facts == (("meat", "food"),)
    print("criterion 6 PASS: unknown subject classified as animal via food")


# --- criterion 7 helpers -----------------------------------------------------


def _crosses(p, q):
    (a, b), (c, d) = p, q
    return a < c < b < d or c < a < d < b


def _linkage_from(n, labeled_pairs):
    """Build a linkage whose choices are derived from its links: left
    connectors written nearest first, right connectors farthest first."""
    left_of = {i: [] for i in range(n)}
    right_of = {i: [] for i in range(n)}
    for (a, b), label in labeled_pairs:
        right_of[a].append((b, label))
        left_of[b].append((a, label))
    choices = []
    for i in range(n):
        lefts = tuple(Connector.parse(label)
                      for _, label in sorted(left_of[i], reverse=True))
        rights = tuple(Connector.parse(label)
                       for _, label in sorted(right_of[i], reverse=True))
        choices.append(Disjunct(lefts, rights))
    links = tuple(Link(a, b, label) for (a, b), label in labeled_pairs)
    return Linkage(("w",) * n, tuple(choices), links)


def _path_with_extras(rng, n):
    """A random valid planar connected link set: adjacency path plus
    non-crossing, non-duplicate longer links."""
    pairs = {(i, i + 1) for i in range(n - 1)}
    for _ in range(rng.randint(0, n)):
        a = rng.randrange(n - 1)
        b = rng.randrange(a + 2, n + 1)
        if b >= n or (a, b) in pairs:
            continue
        if any(_crosses((a, b), q) for q in pairs):
            continue
        pairs.add((a, b))
    return sorted(pairs)


def _independent_structural_rules(linkage):
    """Planarity, exclusion, connectivity re-checked from scratch."""
    rules = set()
    occurrences = [(l.left, l.right) for l in linkage.links]
    if len(occurrences) != len(set(occurrences)):
        rules.add("exclusion")
    if any(_crosses(p, q)
           for p, q in itertools.combinations(sorted(set(occurrences)), 2)):
        rules.add("planarity")
    n = len(linkage.words)
    seen = {0}
    frontier = [0]
    while frontier:
        here = frontier.pop()
        for a, b in occurrences:
            for there in ((b,) if a == here else (a,) if b == here else ()):
                if there not in seen:
                    seen.add(there)
                    frontier.append(there)
    if len(seen) != n:
        rules.add("connectivity")
    return rules


def test_criterion_07_rule_checker_detects_injected_violations():
    rng = random.Random(0xACCE55)
    kinds = ("valid", "planarity", "exclusion", "ordering", "connectivity")
    for trial in range(1000):
        kind = kinds[trial % len(kinds)]
        n = rng.randint(4, 8)
        if kind == "valid":
            linkage = _linkage_from(
                n, [(p, "X") for p in _path_with_extras(rng, n)])
            expected = set()
        elif kind == "planarity":
            a, c, b, d = sorted(rng.sample(range(n), 4))
            pairs = [(i, i + 1) for i in range(n - 1)] + [(a, b), (c, d)]
            linkage = _linkage_from(n, [(p, "X") for p in sorted(pairs)])
            expected = {"planarity"}
        elif kind == "exclusion":
            pairs = _path_with_extras(rng, n)
            pairs.append(rng.choice(pairs))
            linkage = _linkage_from(n, [(p, "X") for p in pairs])
            expected = {"exclusion"}
        elif kind == "ordering":
            labels = ["A", "B", "C", "E", "F", "G", "H"][: n - 1]
            star = [((0, j), labels[j - 1]) for j in range(1, n)]
            linkage = _linkage_from(n, star)
            good = list(linkage.choices[0].right)
            i = rng.randrange(len(good) - 1)
            good[i], good[i + 1] = good[i + 1], good[i]
            choices = (Disjunct((), tuple(good)),) + linkage.choices[1:]
            linkage = Linkage(linkage.words, choices, linkage.links)
            expected = {"ordering"}
        else:
            n2 = rng.randint(2, 4)
            left = [(p, "X") for p in _path_with_extras(rng, n)]
            right = [((a + n, b + n), "X")
                     for a, b in _path_with_extras(rng, n2)]
            linkage = _linkage_from(n + n2, left + right)
            expected = {"connectivity"}

        flagged = {v.rule for v in validate(linkage)}
        assert flagged == expected, (kind, linkage)
        structural = _independent_structural_rules(linkage)
        assert structural == expected - {"ordering"}, (kind, linkage)
    print("criterion 7 PASS: 1000 linkages, exact violation detection")


def test_criterion_08_acquisition_sound_and_complete(lexicon):
    rng = random.Random(0x5EED)
    vocabulary = lexicon.words()
    inventory = lexicon.inventory()

    def compatible(a, b):
        return (len(a.left) == len(b.left) and len(a.right) == len(b.right)
                and all(match(x, y) for x, y in
                        zip(a.left + a.right, b.left + b.right)))

    checked = 0
    while checked < 200:
        words = [rng.choice(vocabulary)
                 for _ in range(rng.randint(2, 5))]
        if not parse(words, lexicon):
            continue
        checked += 1
        position = rng.randrange(len(words))
        masked = list(words)
        masked[position] = "wug"
        result = acquire_syntax(masked, lexicon, filter_on=False)
        hypotheses = result.prefilter[position]
        assert hypotheses, masked
        for h in hypotheses:  # soundness: every hypothesis re-parses
            assert parse(masked, lexicon.add("wug", (h,))), (masked, h)
        for d in inventory:  # completeness against the brute-force oracle
            if enumerate_bruteforce(masked, lexicon.add("wug", (d,))):
                assert any(compatible(h, d) for h in hypotheses), (masked, d)
    print("criterion 8 PASS: 200 masked sentences, sound and complete")


def test_criterion_09_hierarchy_subsumption_properties():
    rng = random.Random(1959)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    for _ in range(100):
        size = rng.randint(2, 50)
        names = ["n" + alphabet[i % 26] * (i // 26 + 1) for i in range(size)]
        lines = ["%s > %s" % (names[rng.randrange(i)], names[i])
                 for i in range(1, size)]
        h = ConceptHierarchy.parse("\n".join(lines), "noun")
        nodes = sorted(h.nodes())
        depth = {x: len(h.ancestors(x)) for x in nodes}
        for a in nodes:
            assert h.subsumes(a, a)  # reflexive
            chain_a = set(h.ancestors(a))
            for b in nodes:
                forward = h.subsumes(a, b)
                backward = h.subsumes(b, a)
                if forward and backward:  # antisymmetric
                    assert a == b
                # lcs agrees with the deepest common ancestor, recomputed
                common = chain_a & set(h.ancestors(b))
                deepest = max(common, key=lambda x: (depth[x], x))
                assert h.lcs(a, b) == deepest
        for _ in range(300):  # transitive, sampled
            a, b, c = (rng.choice(nodes) for _ in range(3))
            if h.subsumes(a, b) and h.subsumes(b, c):
                assert h.subsumes(a, c)
    print("criterion 9 PASS: subsumption is a partial order, lcs verified")


def test_criterion_10_formats_round_trip(lexicon, hierarchies, trained_semlex):
    assert parse_lexicon(serialize_lexicon(lexicon)) == lexicon
    for h in (hierarchies.nouns, hierarchies.verbs):
        assert ConceptHierarchy.parse(h.serialize(), h.kind) == h
    text = serialize_semlex(trained_semlex)
    assert parse_semlex(text, hierarchies) == trained_semlex
    print("criterion 10 PASS: lexicon, hierarchies, and tagged lexicon"
          " round-trip")
