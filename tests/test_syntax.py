"""Syntactic acquisition: pruning, hypothesis synthesis, inventory filter."""

import pickle
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexacq.lexicon import (Connector, Disjunct, Lexicon, LexiconError,
                            parse_lexicon, serialize_lexicon)
from lexacq.linker import (FAILURE_KINDS, SearchBudgetError,
                           SentenceTooLongError, compatible, linkages_from,
                           links_for, parse, solve, validate)
from lexacq import syntax
from lexacq.syntax import (
    NoSolutionError,
    TooManyUnknownsError,
    TraceEvent,
    _cause_reason,
    _forms,
    _frequencies,
    _substituted,
    acquire_syntax,
    filter_by_inventory,
    render_trace,
)
from oracle import reference_substituted

GOLDEN_TRACE = Path(__file__).parent / "data" / "snipe_trace.txt"


def D(text):
    return parse_lexicon("x: %s" % text).lookup("x")[0]


def _pruning(trace):
    """The eliminations made by pruning known words."""
    return [e for e in trace if e.action == "eliminate"
            and e.reason != "not in lexicon inventory"]


def test_acquire_splits_known_and_unknown(lexicon):
    words = ["the", "snipe", "eats", "meat"]
    result = acquire_syntax(words, lexicon)
    assert result.unknown_positions == (1,)
    assert set(result.pruned_known) == {0, 2, 3}
    # each known position's survivors and eliminations are its whole entry
    for p in (0, 2, 3):
        gone = {e.disjunct for e in _pruning(result.trace) if e.position == p}
        assert [d for d in lexicon.lookup(words[p]) if d not in gone] == list(
            result.pruned_known[p])


def test_prune_keeps_only_supported_disjuncts(lexicon):
    result = acquire_syntax(["the", "snipe", "eats", "meat"], lexicon)
    pruned = result.pruned_known
    assert pruned[3] == (D("((Os) ( ))"),)
    # the wildcard at position 1 can host meat's Os itself, so both of
    # eats' disjuncts stay live before hypothesis filtering
    assert pruned[2] == lexicon.lookup("eats")
    assert pruned[0] == lexicon.lookup("the")
    assert len(_pruning(result.trace)) == 5


def test_prune_count_reasons(lexicon):
    # no linkage survives, so the trace comes with the error
    with pytest.raises(NoSolutionError) as info:
        acquire_syntax(["eats", "meat"], lexicon)
    reasons = {str(e.disjunct): e.reason
               for e in info.value.trace if e.position == 0}
    assert reasons["((Ss) (O))"] == (
        "left connector unsatisfiable: no words to the left")
    trace2 = acquire_syntax(["the", "meat", "eats", "meat"], lexicon).trace
    counted = [e for e in trace2 if e.position == 1 and "only" in e.reason]
    assert any(
        e.reason == "left connector unsatisfiable: only 1 word to the left"
        for e in counted)


@pytest.mark.parametrize("mask", range(8))
def test_cause_reason_names_the_first_failure_kind(mask):
    # the first kind of the mask's set in FAILURE_KINDS order: ordering,
    # exclusion, connectivity; a pair no branch failed on was not reached
    kinds = {kind for bit, kind in enumerate(FAILURE_KINDS) if mask >> bit & 1}
    first = next((kind for kind in FAILURE_KINDS if kind in kinds), None)
    assert _cause_reason(mask) == (
        "not reached" if first is None else "%s conflict" % first)
    assert FAILURE_KINDS == ("ordering", "exclusion", "connectivity")


def test_trace_event_rendering():
    event = TraceEvent("eliminate", 3, "meat", D("((A,Os) ( ))"), "ordering conflict")
    assert str(event) == "eliminate:3:meat:((A,Os) ( )):ordering conflict"


def test_acquire_synthesizes_bare_connectors(lexicon):
    result = acquire_syntax(["the", "snipe", "eats", "meat"], lexicon,
                            filter_on=False)
    assert [j[1] for j in result.joints] == [
        D("((D) (Ss))"), D("((D) (Os,Ss))")]


def test_filter_by_inventory_uses_match_compatibility(lexicon):
    kept = filter_by_inventory(
        [D("((D) (Ss))"), D("((D) (Os,Ss))")], lexicon.inventory())
    assert kept == (D("((D) (Ss))"),)


def test_acquire_snipe_walkthrough(lexicon):
    result = acquire_syntax("the snipe eats meat".split(), lexicon)
    assert result.unknown_positions == (1,)
    assert result.pruned_known[3] == (D("((Os) ( ))"),)
    assert result.prefilter[1] == (D("((D) (Ss))"), D("((D) (Os,Ss))"))
    assert result.hypotheses[1] == (D("((D) (Ss))"),)
    assert not result.novel
    assert result.acquired_entries() == {"snipe": (D("((D) (Ss))"),)}
    assert len(result.linkages) == 1
    assert result.linkages[0].link_set() == {
        (0, 1, "Ds"), (1, 2, "Ss"), (2, 3, "Os")}


def test_acquire_trace_matches_golden_file(lexicon):
    result = acquire_syntax("the snipe eats meat".split(), lexicon)
    golden = GOLDEN_TRACE.read_text(encoding="utf-8").rstrip("\n")
    assert render_trace(result.trace) == golden


def test_acquire_stops_past_the_search_budget(lexicon, monkeypatch):
    words = "the snipe eats meat".split()  # a search of 95 nodes
    monkeypatch.setattr("lexacq.linker.MAX_SEARCH_NODES", 95)
    assert acquire_syntax(words, lexicon).linkages
    monkeypatch.setattr("lexacq.linker.MAX_SEARCH_NODES", 94)
    with pytest.raises(SearchBudgetError):
        acquire_syntax(words, lexicon)


def test_acquire_without_filter_keeps_both_hypotheses(lexicon):
    result = acquire_syntax("the snipe eats meat".split(), lexicon,
                            filter_on=False)
    assert result.hypotheses[1] == result.prefilter[1]
    assert len(result.joints) == 2


def test_acquire_explores_fewer_nodes_than_blind_enumeration(lexicon):
    result = acquire_syntax("the snipe eats meat".split(), lexicon)
    assert 0 < result.stats["explored_nodes"] < result.stats["blind_candidates"]


def test_acquire_two_unknowns_share_a_word(lexicon):
    result = acquire_syntax("the snipe eats the snipe".split(), lexicon)
    assert result.unknown_positions == (1, 4)
    assert set(result.acquired_entries()["snipe"]) == {
        D("((D) (Ss))"), D("((D,O) ( ))")}


def test_acquire_lone_unknown_word_is_novel(lexicon):
    result = acquire_syntax(["wug"], lexicon)
    assert result.hypotheses[0] == (D("(( ) ( ))"),)
    assert result.novel


def test_acquire_rejects_unlinkable_unknown_pair(lexicon):
    with pytest.raises(NoSolutionError):
        acquire_syntax(["wug", "wug"], lexicon)


def test_inventory_is_built_only_for_a_linkable_sentence(lexicon,
                                                        monkeypatch):
    built = []
    inventory = Lexicon.inventory

    def counting(self):
        built.append(self)
        return inventory(self)

    monkeypatch.setattr(Lexicon, "inventory", counting)
    with pytest.raises(NoSolutionError):
        acquire_syntax("meat eats the snipe".split(), lexicon)
    assert built == []
    result = acquire_syntax("the snipe eats meat".split(), lexicon)
    assert built == [lexicon]
    # the: 1 disjunct, eats: 2, meat: 6
    assert result.stats["blind_candidates"] == len(inventory(lexicon)) * 2 * 6


def test_acquire_unknown_cap(lexicon):
    with pytest.raises(TooManyUnknownsError):
        acquire_syntax(["wug", "zorp", "blick"], lexicon)
    result = acquire_syntax("the wug eats the zorp".split(), lexicon,
                            max_unknowns=2)
    assert result.unknown_positions == (1, 4)
    with pytest.raises(TooManyUnknownsError):
        acquire_syntax("the wug eats the zorp".split(), lexicon,
                       max_unknowns=1)


def test_acquire_fully_known_sentence_parses(lexicon):
    result = acquire_syntax("the condor eats the meat".split(), lexicon)
    assert result.unknown_positions == ()
    assert result.hypotheses == {}
    assert result.joints == ({},)
    assert len(result.linkages) == 1
    assert result.linkages[0].link_set() == {
        (0, 1, "Ds"), (1, 2, "Ss"), (2, 4, "Os"), (3, 4, "Ds")}


def test_acquire_unparseable_known_sentence(lexicon):
    with pytest.raises(NoSolutionError):
        acquire_syntax(["meat", "eats"], lexicon)


_NOUNS = ("car", "condor", "corn", "cow", "gasoline", "meat")
_ADJECTIVES = ("big", "yellow")
_NOUN_PHRASES = st.builds(
    lambda det, adjectives, noun: det + adjectives + [noun],
    st.sampled_from([[], ["the"]]),
    st.lists(st.sampled_from(_ADJECTIVES), max_size=1),
    st.sampled_from(_NOUNS))
# random word strings rarely parse; clauses built from noun phrases often do
_KNOWN_SENTENCES = st.one_of(
    st.lists(st.sampled_from(_NOUNS + _ADJECTIVES + ("the", "eats")),
             min_size=1, max_size=7),
    st.builds(lambda subject, obj: subject + ["eats"] + obj,
              _NOUN_PHRASES, st.one_of(st.just([]), _NOUN_PHRASES)))


@settings(max_examples=300, deadline=None)
@given(words=_KNOWN_SENTENCES)
def test_acquire_without_unknowns_returns_parse(lexicon, words):
    expected = parse(words, lexicon)
    if not expected:
        with pytest.raises(NoSolutionError):
            acquire_syntax(words, lexicon)
        return
    assert acquire_syntax(words, lexicon).linkages == expected


def test_acquire_without_unknowns_keeps_parse_order():
    # count pruning drops aa's first disjunct, shifting the indices of the
    # two that link
    lex = parse_lexicon("aa: ((Y) ( )) | (( ) (Xs)) | (( ) (X))\n"
                        "bb: ((X) ( ))")
    expected = parse(["aa", "bb"], lex)
    assert [l.choices[0] for l in expected] == list(lex.lookup("aa")[1:])
    assert acquire_syntax(["aa", "bb"], lex).linkages == expected


def test_acquired_hypotheses_ordered_by_frequency(lexicon):
    result = acquire_syntax("the snipe eats meat".split(), lexicon,
                            filter_on=False)
    # ((D) (Ss)) matches six noun entries, ((D) (Os,Ss)) matches none
    assert result.prefilter[1][0] == D("((D) (Ss))")


def test_acquire_rejects_bad_unknown_word_before_search(lexicon):
    with pytest.raises(LexiconError, match="bad word '3rd'"):
        acquire_syntax("the 3rd eats meat".split(), lexicon)
    # checked before the cap and before the solver sees the sentence
    with pytest.raises(LexiconError, match="bad word '3rd'"):
        acquire_syntax("the 3rd eats the zorp".split(), lexicon,
                       max_unknowns=1)
    with pytest.raises(LexiconError, match="bad word '3rd'"):
        acquire_syntax(["the"] * 1200 + ["3rd"], lexicon)
    with pytest.raises(SentenceTooLongError):
        acquire_syntax(["the"] * 1200 + ["wug"], lexicon)


# --- hypothesis frequencies --------------------------------------------------


def _forms_of(hyps, lexicon):
    """Each hypothesis's compatible forms in the lexicon's inventory, as an
    acquisition builds them."""
    inventory = lexicon.inventory()
    return {h: _forms(h, inventory) for h in hyps}


def _naive_frequency(hyp, lexicon):
    """Reference count: rescan every word's entry for a compatible disjunct."""
    count = 0
    for w in lexicon.words():
        if any(compatible(hyp, d) for d in lexicon.lookup(w)):
            count += 1
    return count


_CONNECTORS = st.builds(Connector, st.sampled_from("AB"),
                        st.sampled_from(["", "s", "p"]))
_SIDES = st.lists(_CONNECTORS, max_size=2).map(tuple)
_DISJUNCTS = st.builds(Disjunct, _SIDES, _SIDES)
_ENTRIES = st.lists(_DISJUNCTS, min_size=1, max_size=3, unique=True).map(tuple)
# no lexicon disjunct has a C connector
_NOWHERE = Disjunct((Connector("C"),), ())


def _bare(d):
    """d with its subscripts dropped: compatible with every subscripted
    form of the same connectors."""
    return Disjunct(tuple(Connector(c.base) for c in d.left),
                    tuple(Connector(c.base) for c in d.right))


@st.composite
def _lexicons(draw):
    """Words that share one of a few entries mixed with words whose entry
    is their own."""
    shared = draw(st.lists(_ENTRIES, min_size=1, max_size=3))
    size = draw(st.integers(min_value=1, max_value=12))
    return Lexicon({
        "w" + "x" * i: draw(st.one_of(st.sampled_from(shared), _ENTRIES))
        for i in range(size)
    })


@st.composite
def _grown_lexicons(draw):
    """A lexicon of _lexicons grown by adds: a new word, new or present
    disjuncts for a word it has, or none.  Its entry counts are built
    before the adds, between two of them or never, so that `add` carries
    them through the rest."""
    lexicon = draw(_lexicons())
    steps = draw(st.integers(min_value=1, max_value=6))
    build_at = draw(st.sampled_from([None, *range(steps + 1)]))
    for i in range(steps):
        if i == build_at:
            lexicon.entry_counts()
        words = list(lexicon)
        word = draw(st.one_of(st.just("v" + "x" * i), st.sampled_from(words)))
        present = lexicon.lookup(word)
        if present is None:
            # its own entry, or another word's
            new = draw(st.one_of(_ENTRIES, st.sampled_from(
                [lexicon.lookup(w) for w in words])))
        else:
            new = draw(st.lists(st.one_of(_DISJUNCTS, st.sampled_from(present)),
                                max_size=3))
        lexicon = lexicon.add(word, new)
    if build_at == steps:
        lexicon.entry_counts()
    return lexicon


@settings(max_examples=300, deadline=None)
@given(lexicon=st.one_of(_lexicons(), _grown_lexicons()), data=st.data())
def test_frequencies_equal_per_word_count(lexicon, data):
    inventory = lexicon.inventory()
    hyps = data.draw(st.lists(st.one_of(
        st.just(_NOWHERE),
        _DISJUNCTS,
        st.sampled_from(inventory),
        st.sampled_from(inventory).map(_bare),
    ), max_size=6))
    forms = _forms_of(hyps, lexicon)
    assert _frequencies(forms, lexicon) == {
        h: _naive_frequency(h, lexicon) for h in hyps}
    for h in hyps:
        assert forms[h] == [d for d in inventory if compatible(h, d)]
        assert bool(forms[h]) == bool(filter_by_inventory((h,), inventory))
    # the carried counts are a fresh value's, with no zero left over
    fresh = parse_lexicon(serialize_lexicon(lexicon))
    expected = dict(Counter(map(fresh.lookup, fresh)))
    assert dict(lexicon.entry_counts()) == expected
    assert dict(pickle.loads(pickle.dumps(lexicon)).entry_counts()) == expected


@settings(max_examples=300, deadline=None)
@given(lexicon=st.one_of(_lexicons(), _grown_lexicons()))
@example(lexicon=Lexicon({}))
def test_inventory_equals_per_word_build(lexicon):
    # counts built before the adds, between them or never, then a fresh
    # value's counts after a pickle round trip
    expected = tuple(sorted({d for w in lexicon for d in lexicon.lookup(w)},
                            key=str))
    assert lexicon.inventory() == expected
    assert pickle.loads(pickle.dumps(lexicon)).inventory() == expected


def test_entry_counts_are_read_only():
    lexicon = parse_lexicon("""
        a, b: ((Ds) (Ss)) | ((D) (Os))
        c: ((Dp) (Sp))
    """)
    hyps = [D("((D) (S))"), D("((Dp) (Sp))")]
    counts = lexicon.entry_counts()
    before = dict(counts)
    forms = _forms_of(hyps, lexicon)
    frequencies = _frequencies(forms, lexicon)
    entry = lexicon.lookup("c")
    with pytest.raises(TypeError):
        counts[entry] = 0
    with pytest.raises(AttributeError):
        counts.clear()
    assert dict(lexicon.entry_counts()) == before
    assert _frequencies(forms, lexicon) == frequencies == {
        hyps[0]: 3, hyps[1]: 1}


def test_frequencies_cover_none_some_and_all_words():
    lexicon = parse_lexicon("""
        a, b, c: ((Ds) (Ss)) | ((D) (Os))
        d: ((Dp) (Sp))
        e: ((A) ( )) | ((D) (Ss))
    """)
    hyps = [D("((D) (S))"), D("((Ds) (Ss))"), D("((A) ( ))"),
            D("((C) ( ))"), D("((D) (Os))")]
    counts = _frequencies(_forms_of(hyps, lexicon), lexicon)
    assert [counts[h] for h in hyps] == [5, 4, 1, 0, 3]
    assert counts == {h: _naive_frequency(h, lexicon) for h in hyps}


# --- one inventory check per acquisition ---------------------------------------


def _per_hypothesis_filter(words, lexicon):
    """Reference: (surviving joints, inventory eliminations, novel) when
    filter_by_inventory is asked about each hypothesis on its own, once per
    joint and again for the trace."""
    unfiltered = acquire_syntax(words, lexicon, filter_on=False)
    unknown = unfiltered.unknown_positions
    inventory = lexicon.inventory()
    joints = [tuple(j[p] for p in unknown) for j in unfiltered.joints]
    surviving = [key for key in joints
                 if all(filter_by_inventory((h,), inventory) for h in key)]
    if not surviving:
        return joints, [], True
    eliminated = [(p, h) for p in unknown for h in unfiltered.prefilter[p]
                  if not filter_by_inventory((h,), inventory)]
    return surviving, eliminated, False


def _filtered(words, lexicon):
    result = acquire_syntax(words, lexicon)
    joints = [tuple(j[p] for p in result.unknown_positions)
              for j in result.joints]
    eliminated = [(e.position, e.disjunct) for e in result.trace
                  if e.reason == "not in lexicon inventory"]
    return joints, eliminated, result.novel


@st.composite
def _sentences_with_unknowns(draw):
    """A sample-lexicon sentence with one or two of its words unknown."""
    words = draw(_KNOWN_SENTENCES)
    count = draw(st.integers(1, min(2, len(words))))
    for p in draw(st.lists(st.integers(0, len(words) - 1), min_size=count,
                           max_size=count, unique=True)):
        words[p] = draw(st.sampled_from(["snipe", "wug"]))
    return words


@settings(max_examples=200, deadline=None)
@given(words=_sentences_with_unknowns())
@example(words=["the", "snipe", "eats", "meat"])
@example(words=["the", "big", "snipe", "eats", "the", "wug"])
def test_one_inventory_check_equals_per_hypothesis_filter(lexicon, words):
    try:
        expected = _per_hypothesis_filter(words, lexicon)
    except NoSolutionError:
        with pytest.raises(NoSolutionError):
            acquire_syntax(words, lexicon)
        return
    assert _filtered(words, lexicon) == expected


@pytest.mark.parametrize("sentence", [
    "the snipe eats meat",
    "the big snipe eats the wug",
    "the snipe cow eats the wug",  # 5 joints share 7 hypotheses
])
def test_each_hypothesis_scans_the_inventory_once(lexicon, monkeypatch,
                                                  sentence):
    """Ranking, the filter and the witnesses share one compatibility scan
    of the inventory per distinct hypothesis."""
    calls = []

    def counting(h, d):
        calls.append((h, d))
        return compatible(h, d)

    monkeypatch.setattr(syntax, "compatible", counting)
    result = acquire_syntax(sentence.split(), lexicon)
    hyps = {h for p in result.unknown_positions for h in result.prefilter[p]}
    assert result.linkages and not result.novel
    assert len(calls) == len(hyps) * len(lexicon.inventory())


def test_inventory_check_keeps_one_joint_of_three(lexicon):
    words = "the big snipe eats the wug".split()
    unfiltered = acquire_syntax(words, lexicon, filter_on=False)
    assert len(unfiltered.joints) == 3
    expected = (
        [(D("((A,D) (Ss))"), D("((D,O) ( ))"))],
        [(2, D("(( ) (Ss))")), (2, D("((A) (Ss))")),
         (5, D("((D,O,A,D) ( ))")), (5, D("((D,O,D) ( ))"))],
        False)
    assert _per_hypothesis_filter(words, lexicon) == expected
    assert _filtered(words, lexicon) == expected


# --- witnesses read off the pruning solve --------------------------------------


def _witness_linkage(words, pruned, joint, lexicon, substitute):
    """Reference: re-parse with the joint's disjuncts fixed at the unknown
    positions.  When `substitute` is set, each hypothesis is replaced by its
    compatible inventory forms so links carry the lexicon's subscripts."""
    n = len(words)
    candidates = [None] * n
    for p in range(n):
        if p in joint:
            h = joint[p]
            if substitute:
                forms = [d for d in lexicon.inventory() if compatible(h, d)]
                candidates[p] = tuple(forms) or (h,)
            else:
                candidates[p] = (h,)
        else:
            candidates[p] = pruned[p]
    outcome = solve(candidates)
    if not outcome.solutions:
        return None
    best = min(outcome.solutions, key=links_for)
    return linkages_from(words, [best])[0]


def _links_unknowns(linkage, unknown):
    return any(l.left in unknown and l.right in unknown for l in linkage.links)


def test_witness_links_no_two_unknown_words(lexicon):
    words = "wug eats wug eats corn".split()
    result = acquire_syntax(words, lexicon)
    joint = {0: D("(( ) (Os,Ss))"), 2: D("((O) (Ss))")}
    witness = result.linkages[result.joints.index(joint)]
    # a re-parse with the joint fixed links the two wugs to each other
    reparsed = _witness_linkage(words, result.pruned_known, joint, lexicon,
                                substitute=False)
    assert (0, 2, "Os") in reparsed.link_set()
    assert witness.link_set() == {
        (0, 1, "Ss"), (0, 4, "Os"), (1, 2, "O"), (2, 3, "Ss")}


def test_witness_is_the_joints_smallest_solution():
    # wug links only with aa's A either way; aa's C links to cc in the
    # first solution found and to bb in the smaller one
    lex = parse_lexicon("""
        aa: (( ) (C,A))
        bb: (( ) (D)) | ((C) (D))
        cc: ((D,C) ( )) | ((D) ( ))
    """)
    words = "aa wug bb cc".split()
    result = acquire_syntax(words, lex, filter_on=False)
    assert result.joints[0] == {1: D("((A) ( ))")}
    assert result.linkages[0].link_set() == {
        (0, 1, "A"), (0, 2, "C"), (2, 3, "D")}
    assert result.linkages[0] == _witness_linkage(
        words, result.pruned_known, result.joints[0], lex, substitute=False)


def test_witness_takes_the_inventory_form_with_the_smallest_links():
    lex = parse_lexicon("""
        xx: (( ) (A))
        yy: (( ) (B))
        zz: (( ) (Cc))
        ww: (( ) (E))
        pp: ((Ba,Az) ( )) | ((Bz,Aa) ( )) | ((E,Cc) ( )) | ((E,C) ( ))
    """)
    # links are ordered by position, so xx's label decides, although
    # ((Ba,Az) ( )) comes first in the inventory
    words = "xx yy wug".split()
    result = acquire_syntax(words, lex)
    assert result.linkages[0].choices[2] == D("((Bz,Aa) ( ))")
    assert result.linkages[0].link_set() == {(0, 2, "Aa"), (1, 2, "Bz")}
    assert result.linkages[0] == _witness_linkage(
        words, result.pruned_known, result.joints[0], lex, substitute=True)
    # both forms give the same links: the first in inventory order wins
    words = "zz ww wug".split()
    result = acquire_syntax(words, lex)
    assert result.linkages[0].choices[2] == D("((E,C) ( ))")
    assert result.linkages[0].link_set() == {(0, 2, "Cc"), (1, 2, "E")}
    assert result.linkages[0] == _witness_linkage(
        words, result.pruned_known, result.joints[0], lex, substitute=True)


# forms that differ by subscript, so an unknown word's read-off disjunct
# may match several, and sentences that link over them
_SUBSCRIPTED = parse_lexicon("""
    xx: (( ) (A)) | (( ) (Ab)) | ((B) ( ))
    yy: (( ) (B)) | ((A) (B)) | ((Ab) (Cc))
    zz: (( ) (Cc)) | ((B) (E))
    ww: (( ) (E)) | ((E) ( ))
    pp: ((Ba,Az) ( )) | ((Bz,Aa) ( )) | ((E,Cc) ( )) | ((E,C) ( )) |
        ((Cz) ( ))
""")
_SUBSCRIPTED_SENTENCES = (
    "yy xx", "ww ww", "xx yy xx", "xx yy pp", "yy zz ww", "zz ww pp",
    "xx xx yy pp", "xx yy zz ww", "xx yy ww pp", "zz yy zz pp",
    "xx yy yy zz pp", "zz xx yy zz pp")


@st.composite
def _subscripted_sentences_with_unknowns(draw):
    """A `_SUBSCRIPTED` sentence with one or two of its words unknown."""
    words = draw(st.sampled_from(_SUBSCRIPTED_SENTENCES)).split()
    for p, unknown in zip(draw(st.lists(
            st.integers(0, len(words) - 1), min_size=1, max_size=2,
            unique=True)), ("wug", "zorp")):
        words[p] = unknown
    return words


def test_substituted_witness_equals_the_reference(lexicon):
    """On acquisitions with one or two unknown words, over the sample
    lexicon and over `_SUBSCRIPTED`, on every joint whose hypotheses all
    have a compatible inventory form; some offer an unknown word two or
    more."""
    cases = []  # (unknown words, most compatible forms at one of them)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=st.one_of(
        _sentences_with_unknowns().map(lambda words: (lexicon, words)),
        _subscripted_sentences_with_unknowns().map(
            lambda words: (_SUBSCRIPTED, words))))
    def check(case):
        lex, words = case
        try:
            result = acquire_syntax(words, lex, filter_on=False)
        except NoSolutionError:
            return
        unknown = result.unknown_positions
        inventory = lex.inventory()
        for joint, witness in zip(result.joints, result.linkages):
            sizes = [sum(compatible(joint[p], d) for d in inventory)
                     for p in unknown]
            if min(sizes):
                forms = _forms_of(joint.values(), lex)
                substituted = _substituted(witness.choices, unknown, forms)
                assert linkages_from(words, [substituted])[0] == (
                    reference_substituted(witness, unknown, inventory))
                cases.append((len(unknown), max(sizes)))

    check()
    assert sum(count == 2 for count, _ in cases) >= 50
    assert sum(forms >= 2 for _, forms in cases) >= 20


@settings(max_examples=200, deadline=None)
@given(words=_sentences_with_unknowns(), filter_on=st.booleans())
@example(words=["the", "snipe", "eats", "meat"], filter_on=True)
@example(words=["the", "big", "snipe", "eats", "the", "wug"], filter_on=True)
@example(words=["wug", "eats", "wug", "eats", "corn"], filter_on=False)
def test_witness_read_off_equals_reparse(lexicon, words, filter_on):
    try:
        result = acquire_syntax(words, lexicon, filter_on=filter_on)
    except NoSolutionError:
        return
    # every word keeps a disjunct, and every disjunct is tried
    assert not any(e.reason == "not reached"
                   or e.reason.endswith("has no disjunct left")
                   for e in result.trace)
    unknown = result.unknown_positions
    substitute = filter_on and not result.novel
    inventory = lexicon.inventory()
    assert len(result.linkages) == len(result.joints)
    for joint, witness in zip(result.joints, result.linkages):
        assert validate(witness) == []
        assert not _links_unknowns(witness, unknown)
        for p in unknown:
            if substitute:
                assert witness.choices[p] in inventory
                assert compatible(joint[p], witness.choices[p])
            else:
                assert witness.choices[p] == joint[p]
        reference = _witness_linkage(words, result.pruned_known, joint,
                                     lexicon, substitute)
        if not _links_unknowns(reference, unknown):
            assert witness == reference
