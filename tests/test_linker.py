"""Linkage solver: matching, link rules, validation, oracle agreement."""

import gc
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexacq.lexicon import Connector, Disjunct, Lexicon, parse_lexicon
from lexacq.linker import (
    MAX_SENTENCE_WORDS,
    Link,
    Linkage,
    SearchBudgetError,
    SentenceTooLongError,
    UnknownWordError,
    _bijection_exists,
    compatible,
    link_label,
    linkages_from,
    links_for,
    match,
    parse,
    slot_links,
    solve,
    validate,
)
from oracle import (OracleCapError, enumerate_bruteforce,
                    reference_bijection_exists, reference_solve)


def C(text):
    return Connector.parse(text)


def D(text):
    return parse_lexicon("x: %s" % text).lookup("x")[0]


def linkage_of(sentence, choices, links):
    words = tuple(sentence.split())
    return Linkage(words, tuple(D(c) for c in choices),
                   tuple(Link(*l) for l in links))


def test_match_requires_equal_bases():
    assert match(C("S"), C("S"))
    assert not match(C("S"), C("O"))


def test_match_subscript_blank_is_wildcard():
    assert match(C("Ss"), C("S"))
    assert match(C("S"), C("Ss"))
    assert match(C("Ss"), C("Ss"))
    assert not match(C("Ss"), C("Sp"))


def test_link_label_prefers_subscripted_form():
    assert link_label(C("S"), C("Ss")) == "Ss"
    assert link_label(C("Ss"), C("S")) == "Ss"
    assert link_label(C("D"), C("D")) == "D"


def test_compatible_needs_same_shape_and_matching_connectors():
    assert compatible(D("((D) (Ss))"), D("((Ds) (Ss))"))
    assert compatible(D("((Ds) (Ss))"), D("((D) (Ss))"))
    assert not compatible(D("((Dp) (Ss))"), D("((Ds) (Ss))"))
    assert not compatible(D("((D) (Ss))"), D("((D) (O,Ss))"))
    assert not compatible(D("((D) (Ss))"), D("((D,A) (Ss))"))
    assert not compatible(D("((D) (Ss))"), D("((A) (Ss))"))


def test_link_endpoints_must_be_ordered():
    with pytest.raises(ValueError):
        Link(2, 1, "X")
    with pytest.raises(ValueError):
        Link(1, 1, "X")


def test_parse_unknown_word_carries_position(lexicon):
    with pytest.raises(UnknownWordError) as info:
        parse(["the", "wug", "eats"], lexicon)
    assert info.value.word == "wug"
    assert info.value.position == 1


def test_parse_unique_linkage_for_transitive_sentence(lexicon):
    linkages = parse("the condor eats the meat".split(), lexicon)
    assert len(linkages) == 1
    assert linkages[0].link_set() == {
        (0, 1, "Ds"), (1, 2, "Ss"), (2, 4, "Os"), (3, 4, "Ds")}


def test_parse_right_connectors_written_farthest_first():
    lex = parse_lexicon("""
v: (( ) (A,B))
x: ((B) ( ))
y: ((A) ( ))
""")
    assert parse(["v", "x", "y"], lex)[0].link_set() == {
        (0, 1, "B"), (0, 2, "A")}
    # swapping the carriers leaves A wanting the near target: no linkage
    lex2 = parse_lexicon("""
v: (( ) (A,B))
x: ((A) ( ))
y: ((B) ( ))
""")
    assert parse(["v", "x", "y"], lex2) == []


def test_parse_left_connectors_written_nearest_first():
    lex = parse_lexicon("""
a: (( ) (A))
b: (( ) (B))
w: ((B,A) ( ))
""")
    assert parse(["a", "b", "w"], lex)[0].link_set() == {
        (0, 2, "A"), (1, 2, "B")}
    lex2 = parse_lexicon("""
a: (( ) (A))
b: (( ) (B))
w: ((A,B) ( ))
""")
    assert parse(["a", "b", "w"], lex2) == []


def test_parse_allows_cycles():
    lex = parse_lexicon("""
a: (( ) (Y,X))
b: ((X) (Z))
c: ((Z,Y) ( ))
""")
    linkages = parse(["a", "b", "c"], lex)
    assert len(linkages) == 1
    assert linkages[0].link_set() == {(0, 1, "X"), (0, 2, "Y"), (1, 2, "Z")}


def test_parse_rejects_double_link_between_pair():
    lex = parse_lexicon("""
a: (( ) (X,Y))
b: ((Y,X) ( ))
""")
    assert parse(["a", "b"], lex) == []


def test_parse_rejects_crossing_only_structures():
    lex = parse_lexicon("""
p: (( ) (X))
q: (( ) (Y))
r: ((X) ( ))
s: ((Y) ( ))
""")
    assert parse(["p", "q", "r", "s"], lex) == []
    assert enumerate_bruteforce(["p", "q", "r", "s"], lex) == []


def test_parse_rejects_sentence_past_length_limit(lexicon):
    # a sentence at the limit is searched without reaching the recursion limit
    assert parse(["the"] * MAX_SENTENCE_WORDS, lexicon) == []
    with pytest.raises(SentenceTooLongError,
                       match="sentence of %d words exceeds the limit of %d"
                       % (MAX_SENTENCE_WORDS + 1, MAX_SENTENCE_WORDS)):
        parse(["the"] * (MAX_SENTENCE_WORDS + 1), lexicon)


def test_parse_stops_past_the_search_budget(lexicon, monkeypatch):
    words = "the condor eats meat".split()  # a search of 21 nodes
    monkeypatch.setattr("lexacq.linker.MAX_SEARCH_NODES", 21)
    assert len(parse(words, lexicon)) == 1
    monkeypatch.setattr("lexacq.linker.MAX_SEARCH_NODES", 20)
    with pytest.raises(SearchBudgetError,
                       match="linkage search exceeds the limit of 20 nodes"):
        parse(words, lexicon)


def test_solve_stops_past_the_search_budget_at_a_wildcard(lexicon,
                                                          monkeypatch):
    # node 1 is the's one disjunct, node 2 the wildcard's first branch
    candidates = [lexicon.lookup("the"), None, lexicon.lookup("eats")]
    monkeypatch.setattr("lexacq.linker.MAX_SEARCH_NODES", 1)
    with pytest.raises(SearchBudgetError,
                       match="linkage search exceeds the limit of 1 nodes"):
        solve(candidates)


def test_solve_leaves_nothing_for_the_cyclic_collector(lexicon, monkeypatch):
    # the search state is freed on return and on SearchBudgetError, not
    # held in a reference cycle until the collector runs
    candidates = [lexicon.lookup("the"), None, lexicon.lookup("eats"),
                  lexicon.lookup("meat")]
    gc.collect()
    gc.disable()
    try:
        assert solve(candidates, collect_causes=True).solutions
        assert gc.collect() == 0
        monkeypatch.setattr("lexacq.linker.MAX_SEARCH_NODES", 20)
        try:
            solve(candidates, collect_causes=True)
        except SearchBudgetError:
            pass
        else:
            pytest.fail("the search stayed within 20 nodes")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_solve_skips_a_sentence_with_a_known_word_of_no_candidates(lexicon):
    # a known word with nothing to try links nothing, so no node is searched
    # even with a wildcard elsewhere to absorb its neighbours' connectors
    candidates = [lexicon.lookup("the"), (), None, lexicon.lookup("meat")]
    for collect_causes in (False, True):
        outcome = solve(candidates, collect_causes)
        assert (outcome.solutions, outcome.nodes, outcome.causes) == (
            [], 0, {})


def test_parse_single_word_needs_empty_disjunct(lexicon):
    assert parse(["meat"], lexicon) == []
    lex = parse_lexicon("z: (( ) ( ))")
    linkages = parse(["z"], lex)
    assert len(linkages) == 1
    assert linkages[0].links == ()
    # two isolated words are not connected
    assert parse(["z", "z"], lex) == []


def test_validate_accepts_parser_output(lexicon):
    for linkage in parse("the big cow eats yellow corn".split(), lexicon):
        assert validate(linkage) == []


def test_validate_flags_crossing():
    linkage = linkage_of(
        "w w w w",
        ["(( ) (X))", "(( ) (X))", "((X) (Z))", "((Z,X) ( ))"],
        [(0, 2, "X"), (1, 3, "X"), (2, 3, "Z")])
    assert {v.rule for v in validate(linkage)} == {"planarity"}


def test_validate_flags_duplicate_pair():
    linkage = linkage_of(
        "a b",
        ["(( ) (X,X))", "((X,X) ( ))"],
        [(0, 1, "X"), (0, 1, "X")])
    assert {v.rule for v in validate(linkage)} == {"exclusion"}


def test_validate_flags_out_of_order_connectors():
    linkage = linkage_of(
        "a b c",
        ["(( ) (X,Y))", "((X) ( ))", "((Y) ( ))"],
        [(0, 1, "X"), (0, 2, "Y")])
    assert {v.rule for v in validate(linkage)} == {"ordering"}


def test_validate_flags_unsaturated_word():
    linkage = linkage_of(
        "a b",
        ["(( ) (X,Y))", "((X) ( ))"],
        [(0, 1, "X")])
    assert {v.rule for v in validate(linkage)} == {"saturation"}


def test_validate_flags_disconnection():
    linkage = linkage_of(
        "a b a b",
        ["(( ) (X))", "((X) ( ))", "(( ) (X))", "((X) ( ))"],
        [(0, 1, "X"), (2, 3, "X")])
    assert {v.rule for v in validate(linkage)} == {"connectivity"}


def test_validate_flags_label_mismatch_as_saturation():
    linkage = linkage_of(
        "a b",
        ["(( ) (X))", "((X) ( ))"],
        [(0, 1, "Q")])
    assert {v.rule for v in validate(linkage)} == {"saturation"}


def test_validate_flags_label_no_connector_displays():
    # Ss is a connector S cannot display; ss is no connector at all
    for label in ("Ss", "ss"):
        linkage = linkage_of(
            "a b",
            ["(( ) (S))", "((S) ( ))"],
            [(0, 1, label)])
        assert {v.rule for v in validate(linkage)} == {"saturation"}, label


def test_linkage_needs_one_choice_per_word():
    with pytest.raises(ValueError, match="one disjunct choice per word"):
        linkage_of("a b", ["(( ) ( ))"], [])


def test_validate_rejects_a_link_past_the_last_word():
    linkage = linkage_of("a b", ["(( ) (X))", "((X) ( ))"], [(0, 2, "X")])
    with pytest.raises(ValueError, match="outside sentence"):
        validate(linkage)


def test_validate_ordering_fault_does_not_spread_to_partners():
    linkage = linkage_of(
        "a b c",
        ["(( ) (X,Y))", "((X) ( ))", "((Y) ( ))"],
        [(0, 1, "X"), (0, 2, "Y")])
    assert [(v.rule, v.positions) for v in validate(linkage)] == [
        ("ordering", (0,))]


def test_validate_matches_twelve_slots_without_trying_every_order():
    # word 12 has twelve left connectors A..L; the permutation search took
    # 0.65 s at nine and would take minutes at twelve
    slots = "ABCDEFGHIJKL"
    for labels, rule in ((slots, "ordering"), ("Z" + slots[1:], "saturation")):
        # link i comes from word i, so word 12 reads them nearest first:
        # labels[11] at its first slot, labels[0] at its last
        linkage = linkage_of(
            " ".join("w" * 13),
            ["(( ) (%s))" % c for c in labels]
            + ["((%s) ( ))" % ",".join(slots)],
            [(i, 12, c) for i, c in enumerate(labels)])
        start = time.perf_counter()
        violations = validate(linkage)
        assert time.perf_counter() - start < 1.0
        assert (rule, (12,)) in [(v.rule, v.positions) for v in violations]


def test_slot_links_pairs_each_slot(lexicon):
    linkage = parse("the condor eats the meat".split(), lexicon)[0]
    slots = slot_links(linkage)
    # two ends per link
    assert sum(len(lefts) + len(rights) for lefts, rights in slots) == 8
    assert slots[4][0][0] == Link(3, 4, "Ds")
    assert slots[4][0][1] == Link(2, 4, "Os")
    assert slots[2][1][0] == Link(2, 4, "Os")


def test_oracle_cap():
    lex = parse_lexicon("z: (( ) ( ))")
    with pytest.raises(OracleCapError):
        enumerate_bruteforce(["z"] * 8, lex)


def test_oracle_agrees_with_solver_on_random_sentences(lexicon):
    rng = random.Random(20260814)
    vocabulary = lexicon.words()
    for _ in range(150):
        words = [rng.choice(vocabulary) for _ in range(rng.randint(1, 4))]
        got = parse(words, lexicon)
        expected = enumerate_bruteforce(words, lexicon)
        assert got == expected, "disagreement on %r" % " ".join(words)


def test_oracle_agrees_on_synthetic_lexicon():
    lex = parse_lexicon("""
a: (( ) (X)) | (( ) (X,X)) | (( ) ( ))
b: ((X) (X)) | ((X) ( )) | ((X,X) ( ))
c: ((X) ( )) | (( ) (X)) | ((X) (X))
""")
    rng = random.Random(7)
    for _ in range(80):
        words = [rng.choice("abc") for _ in range(rng.randint(1, 5))]
        assert parse(words, lex) == enumerate_bruteforce(words, lex)


# --- differential property against the oracle on random small grammars ------

_BASES = st.sampled_from("XY")
_SUBSCRIPTS = st.sampled_from(["", "a", "b"])
_SIDES = st.lists(st.builds(Connector, _BASES, _SUBSCRIPTS),
                  max_size=2).map(tuple)


@st.composite
def _slots_and_labels(draw):
    """Up to 6 connectors at one side of a word and as many link labels,
    each parsed back to a connector or None: drawn apart, or the
    connectors shuffled with a few replaced; now and then one label too
    many.  Three subscripts let a label serve some slots of its base and
    not others."""
    connectors = st.builds(Connector, _BASES,
                           st.sampled_from(["", "a", "b", "c"]))
    k = draw(st.integers(0, 6))
    slots = draw(st.lists(connectors, min_size=k, max_size=k))
    labels = st.one_of(st.none(), connectors)
    if draw(st.booleans()):
        labels = draw(st.lists(labels, min_size=k, max_size=k))
    else:
        labels = [draw(labels) if draw(st.integers(0, 4)) == 0 else c
                  for c in draw(st.permutations(slots))]
    if draw(st.integers(0, 9)) == 0:
        labels.append(draw(connectors))
    return slots, labels


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=_slots_and_labels())
# both Xc labels need the bare slot X: the first takes it by moving label X
# on to slot Xa, and a matching that loses track of that move finds slot Xb
# free for the second
@example(case=([C("X"), C("Xa"), C("Xb")], [C("X"), C("Xc"), C("Xc")]))
# label Sb takes the bare slot, so Sa keeps its own
@example(case=([C("S"), C("Sa")], [C("Sa"), C("Sb")]))
# no slot serves Sb
@example(case=([C("Sa"), C("Sa")], [C("Sa"), C("Sb")]))
def test_slot_matching_agrees_with_the_permutation_search(case):
    slots, labels = case
    assert _bijection_exists(slots, labels) == (
        reference_bijection_exists(slots, labels))


@st.composite
def _grammars(draw):
    """A random lexicon of 2-4 words with 1-3 disjuncts each, a sentence of
    2-6 of its words and one position in it.  Random sentences over random
    grammars seldom link, so half the cases first plant a random planar,
    connected linkage and give each word the disjuncts it uses there."""
    names = ["aa", "bb", "cc", "dd"][:draw(st.integers(2, 4))]
    n = draw(st.integers(2, 6))
    words = draw(st.lists(st.sampled_from(names), min_size=n, max_size=n))
    entries: dict = {w: [] for w in names}
    if draw(st.booleans()):
        arcs: list = []
        for p in range(1, n):
            # an arc (q, p) crosses an earlier arc (a, b) iff a < q < b; no
            # word gets more than 2 connectors on a side
            open_q = [q for q in range(p)
                      if sum(a == q for a, _ in arcs) < 2
                      and not any(a < q < b for a, b in arcs)]
            if open_q:
                arcs += [(q, p) for q in draw(st.lists(
                    st.sampled_from(open_q), min_size=1, max_size=2,
                    unique=True))]
        left: list = [[] for _ in range(n)]
        right: list = [[] for _ in range(n)]
        for q, p in arcs:
            # matching ends: one base, each end with the subscript or none
            base, sub = draw(_BASES), st.sampled_from(["", draw(_SUBSCRIPTS)])
            right[q].append((p, Connector(base, draw(sub))))
            left[p].append((q, Connector(base, draw(sub))))
        for p, w in enumerate(words):
            d = Disjunct(tuple(c for _, c in sorted(left[p], reverse=True)),
                         tuple(c for _, c in sorted(right[p], reverse=True)))
            if d not in entries[w] and len(entries[w]) < 3:
                entries[w].append(d)
    for w, ds in entries.items():
        for d in draw(st.lists(st.builds(Disjunct, _SIDES, _SIDES),
                               min_size=0 if ds else 1,
                               max_size=3 - len(ds))):
            if d not in ds:
                ds.append(d)
        entries[w] = draw(st.permutations(ds))
    return Lexicon(entries), words, draw(st.integers(0, n - 1))


@st.composite
def _two_wildcard_grammars(draw):
    """A `_grammars` case of at least 3 words, with two non-adjacent
    positions in place of its one."""
    lex, words, _ = draw(_grammars().filter(lambda case: len(case[1]) >= 3))
    u = draw(st.integers(0, len(words) - 3))
    return lex, words, u, draw(st.integers(u + 2, len(words) - 1))


# derandomized: the oracle's cost varies by orders of magnitude between
# grammars, and a fixed example set keeps the test's time fixed
@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=_grammars())
def test_solve_agrees_with_oracle_on_random_grammars(case):
    lex, words, u = case
    linkages = parse(words, lex)
    oracle = enumerate_bruteforce(words, lex)
    assert linkages == oracle
    # the stack rule alone gives each linkage's links from its choices
    for linkage in oracle:
        assert tuple(Link(*t) for t in links_for(linkage.choices)) == (
            linkage.links)
    # each word's slot lists fit its disjunct, and each link sits at one
    # slot of each of its two words
    for linkage in linkages:
        slots = slot_links(linkage)
        for (lefts, rights), d in zip(slots, linkage.choices):
            assert (len(lefts), len(rights)) == (len(d.left), len(d.right))
        for link in linkage.links:
            assert slots[link.left][1].count(link) == 1
            assert slots[link.right][0].count(link) == 1

    # word u as a wildcard, renamed wug
    candidates = [lex.lookup(w) for w in words]
    candidates[u] = None
    solutions = solve(candidates).solutions
    masked = list(words)
    masked[u] = "wug"
    read_off = {sol[u] for sol in solutions}
    # sound: with the solution's disjuncts as the only entries, wug's read
    # off its links, the oracle finds the solution's linkage (validated
    # first, since an invalid one can make the oracle's enumeration huge)
    for sol in solutions:
        linkage = linkages_from(masked, [sol])[0]
        assert not validate(linkage), (masked, sol)
        entries: dict = {}
        for w, d in zip(masked, sol):
            if d not in entries.setdefault(w, []):
                entries[w].append(d)
        assert linkage in enumerate_bruteforce(masked, Lexicon(entries)), (
            masked, sol)
    # complete: an inventory disjunct no read-off matches does not link
    for d in lex.inventory():
        if (len(d.left) <= u and len(d.right) < len(words) - u
                and not any(compatible(h, d) for h in read_off)):
            assert not enumerate_bruteforce(masked, lex.add("wug", (d,))), (
                masked, d)


# derandomized like the oracle property, so both check a fixed example set
@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=_grammars())
def test_solve_matches_the_reference_search(case):
    # the solutions in order, the node count and every (position, disjunct)
    # pair's failure kinds, with and without word u as a wildcard
    lex, words, u = case
    candidates = [lex.lookup(w) for w in words]
    wildcard = candidates[:u] + [None] + candidates[u + 1:]
    for cands in (candidates, wildcard):
        for collect_causes in (False, True):
            assert solve(cands, collect_causes) == (
                reference_solve(cands, collect_causes))


# derandomized like the one-wildcard property; acquisition with two unknown
# words spends most of its search time in solves like these
@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_two_wildcard_grammars())
def test_solve_matches_the_reference_search_with_two_wildcards(case):
    lex, words, u, v = case
    candidates = [None if p in (u, v) else lex.lookup(w)
                  for p, w in enumerate(words)]
    for collect_causes in (False, True):
        assert solve(candidates, collect_causes) == (
            reference_solve(candidates, collect_causes))


def test_solve_merges_the_causes_of_a_disjunct_listed_twice():
    # a lexicon refuses a duplicate disjunct, but solve takes any sequence;
    # both copies fail on the same branches, under one (position, disjunct)
    the, det_s = D("(( ) (D))"), D("((D) (Ss))")
    both = D("((D) (Ss,O))")
    eats, meat = D("((Ss) (O))"), D("((O) ( ))")
    for candidates in ([(the,), (det_s, both, det_s), (eats,), (meat,)],
                       [(the,), (det_s, both, det_s), None, (meat,)]):
        for collect_causes in (False, True):
            outcome = solve(candidates, collect_causes)
            assert outcome == reference_solve(candidates, collect_causes)
        assert [sol[1] for sol in outcome.solutions] == [
            det_s, det_s]
        assert outcome.causes[(1, both)]
