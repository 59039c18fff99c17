"""Concept hierarchies, usage tagging, generalization, classification."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexacq.lexicon import LexiconError, parse_lexicon
from lexacq import semantics
from lexacq.linker import Linkage, SearchBudgetError, UnknownWordError, parse
from lexacq.semantics import (
    ConceptHierarchies,
    ConceptHierarchy,
    HierarchyError,
    NoSemanticEvidenceError,
    SemanticLexicon,
    TaggedDisjunct,
    UnknownConceptError,
    UnknownCountError,
    classify_unknown,
    generalize,
    parse_semlex,
    serialize_semlex,
    tag_sentence,
)
from lexacq.semantics import _tagged_words, _walk_semlex
from oracle import reference_classify, reference_generalize, try_merge


def D(text):
    return parse_lexicon("x: %s" % text).lookup("x")[0]


def TD(shape, tags, support=1):
    return TaggedDisjunct(D(shape), tags, support)


# --- hierarchies ----------------------------------------------------------


def test_hierarchy_parse_and_shape():
    h = ConceptHierarchy.parse("""
# tiny taxonomy
thing > animal
animal > bird
thing > machine
""", "noun")
    assert h.root == "thing"
    assert h.nodes() == {"thing", "animal", "bird", "machine"}
    assert "bird" in h and "fish" not in h
    assert h.is_leaf("bird") and not h.is_leaf("animal")
    assert h.ancestors("bird") == ["bird", "animal", "thing"]


def test_hierarchy_rejects_unintroduced_parent():
    with pytest.raises(HierarchyError) as info:
        ConceptHierarchy.parse("thing > animal\nplant > tree", "noun")
    assert info.value.line == 2


def test_hierarchy_rejects_redefined_child():
    with pytest.raises(HierarchyError):
        ConceptHierarchy.parse("thing > animal\nthing > animal", "noun")
    with pytest.raises(HierarchyError):
        ConceptHierarchy.parse("thing > animal\nanimal > thing", "noun")


def test_hierarchy_rejects_malformed_line():
    with pytest.raises(HierarchyError):
        ConceptHierarchy.parse("thing animal", "noun")


def test_hierarchy_require_unknown_concept(hierarchies):
    with pytest.raises(UnknownConceptError):
        hierarchies.nouns.require("unicorn")


def test_subsumes_and_lcs(hierarchies):
    nouns = hierarchies.nouns
    assert nouns.subsumes("animal", "cow")
    assert nouns.subsumes("cow", "cow")
    assert not nouns.subsumes("cow", "animal")
    assert not nouns.subsumes("food", "gasoline")
    assert nouns.lcs("cow", "condor") == "animal"
    assert nouns.lcs("meat", "corn") == "food"
    assert nouns.lcs("cow", "gasoline") == "thing"
    assert nouns.lcs("bird", "bird") == "bird"


def test_hierarchy_round_trip(hierarchies):
    text = hierarchies.nouns.serialize()
    again = ConceptHierarchy.parse(text, "noun")
    assert again == hierarchies.nouns


def test_hand_built_hierarchy_equals_the_parsed_one():
    parsed = ConceptHierarchy.parse("animal > cow\n", "noun")
    # an edge given as a list is stored as a (parent, child) tuple
    for edges in ((("animal", "cow"),), [["animal", "cow"]]):
        h = ConceptHierarchy("noun", edges)
        assert h == parsed and hash(h) == hash(parsed)
        assert h.edges == (("animal", "cow"),)
        assert h.root == "animal" and not h.is_leaf("animal")
        assert h.is_leaf("cow")
        assert h.serialize() == "animal > cow\n"
        assert ConceptHierarchy.parse(h.serialize(), "noun") == h


def test_hierarchy_without_edges_is_an_error():
    with pytest.raises(HierarchyError, match="empty hierarchy"):
        ConceptHierarchy("noun", ())


@pytest.mark.parametrize("edges, message", [
    ((("a", "b"), ("c", "d"), ("d", "c")), "parent 'c' not introduced yet"),
    ((("a", "b"), ("x", "y")), "parent 'x' not introduced yet"),
    ((("a", "b"), ("a", "b")), "'b' already has a place in the tree"),
    # an edge is a (parent, child) tuple or list; a string is not one
    (["ab"], "bad edge 'ab'"),
    ([5], "bad edge 5"),
    ((("thing", "cow", "x"),), "bad edge ('thing', 'cow', 'x')"),
    ((("thing",),), "bad edge ('thing',)"),
])
def test_hand_built_hierarchy_must_be_a_tree(edges, message):
    # a cycle would hang ancestors(), and an unplaced parent raise KeyError
    with pytest.raises(HierarchyError) as info:
        ConceptHierarchy("noun", edges)
    assert (str(info.value), info.value.line) == (message, None)


@pytest.mark.parametrize("edges, name", [
    ((("Thing", "a b"),), "Thing"),
    ((("thing", "a b"),), "a b"),
    ((("thing", "cow"), ("cow", "3rd")), "3rd"),
    ((("thing", 5),), 5),
])
def test_hand_built_hierarchy_rejects_a_bad_concept_name(edges, name):
    # its serialized text would be rejected by parse
    with pytest.raises(HierarchyError) as info:
        ConceptHierarchy("noun", edges)
    assert (str(info.value), info.value.line) == (
        "bad concept name %r" % (name,), None)


def test_parsed_hierarchy_names_are_checked_by_the_reader_alone(
        hierarchies, monkeypatch):
    class Unused:
        def match(self, name):
            raise AssertionError("name %r checked twice" % (name,))

    monkeypatch.setattr(semantics, "_WORD_RE", Unused())
    text = hierarchies.nouns.serialize()
    assert ConceptHierarchy.parse(text, "noun") == hierarchies.nouns


def test_hierarchies_of_the_wrong_kinds_are_an_error(hierarchies):
    nouns, verbs = hierarchies.nouns, hierarchies.verbs
    with pytest.raises(HierarchyError):
        ConceptHierarchies(verbs, nouns)
    with pytest.raises(HierarchyError):
        ConceptHierarchies(nouns, nouns)
    with pytest.raises(HierarchyError, match="bad hierarchy kind 'adj'"):
        ConceptHierarchy("adj", nouns.edges)


def test_kind_of_selects_hierarchy(hierarchies):
    assert hierarchies.hierarchy_of("animal") is hierarchies.nouns
    assert hierarchies.hierarchy_of("eats") is hierarchies.verbs
    assert hierarchies.hierarchy_of("the") is None
    assert hierarchies.hierarchy_of("cow").kind == "noun"
    assert hierarchies.hierarchy_of("cow").is_leaf("cow")
    assert not hierarchies.nouns.is_leaf("animal")  # interior, not a word


def test_word_in_both_hierarchies_is_an_error():
    # refused when the pair is built, naming the smallest shared name
    a = ConceptHierarchy.parse("thing > cow\nthing > bird", "noun")
    b = ConceptHierarchy.parse("action > cow\naction > bird", "verb")
    with pytest.raises(HierarchyError) as info:
        ConceptHierarchies(a, b)
    assert str(info.value) == "'bird' appears in both hierarchies"


def test_random_trees_subsumption_partial_order_and_lcs():
    rng = random.Random(4242)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    for _ in range(20):
        size = rng.randint(2, 30)
        names = ["c" + alphabet[i % 26] * (i // 26 + 1) for i in range(size)]
        lines = []
        for i in range(1, size):
            lines.append("%s > %s" % (names[rng.randrange(i)], names[i]))
        h = ConceptHierarchy.parse("\n".join(lines), "noun")
        nodes = sorted(h.nodes())
        for a in nodes:
            assert h.subsumes(a, a)
            for b in nodes:
                if h.subsumes(a, b) and h.subsumes(b, a):
                    assert a == b
                # reference lcs: deepest common member of ancestor chains
                common = [x for x in h.ancestors(b) if x in set(h.ancestors(a))]
                assert h.lcs(a, b) == common[0]
        for _ in range(50):
            a, b, c = (rng.choice(nodes) for _ in range(3))
            if h.subsumes(a, b) and h.subsumes(b, c):
                assert h.subsumes(a, c)


# --- tagging and generalization --------------------------------------------


def test_tag_sentence_records_linked_nouns_and_verbs(lexicon, hierarchies):
    linkage = parse("the condor eats meat".split(), lexicon)[0]
    semlex = tag_sentence(linkage, hierarchies, SemanticLexicon(), lexicon)
    assert set(semlex.words()) == {"condor", "eats", "meat"}
    assert semlex.lookup("eats") == (
        TD("((Ss) (O))", {("left", 0): "condor",
                          ("right", 0): "meat"}),)
    assert semlex.lookup("condor") == (
        TD("((Ds) (Ss))", {("right", 0): "eats"}),)
    assert semlex.lookup("meat") == (
        TD("((Os) ( ))", {("left", 0): "eats"}),)


def test_tag_sentence_rejects_an_unsaturated_linkage(lexicon, hierarchies):
    linkage = parse("the condor eats meat".split(), lexicon)[0]
    broken = Linkage(linkage.words, linkage.choices, linkage.links[1:])
    with pytest.raises(ValueError, match="does not saturate"):
        tag_sentence(broken, hierarchies, SemanticLexicon(), lexicon)


def test_tag_sentence_rejects_a_word_the_lexicon_lacks(lexicon, hierarchies):
    linkage = parse("the condor eats meat".split(), lexicon)[0]
    words = ("the", "snipe", "eats", "meat")
    unknown = Linkage(words, linkage.choices, linkage.links)
    with pytest.raises(UnknownWordError,
                       match="unknown word 'snipe' at position 1") as info:
        tag_sentence(unknown, hierarchies, SemanticLexicon(), lexicon)
    assert (info.value.word, info.value.position) == ("snipe", 1)


def test_tag_sentence_pools_identical_observations(lexicon, hierarchies):
    linkage = parse("the condor eats meat".split(), lexicon)[0]
    semlex = tag_sentence(linkage, hierarchies, SemanticLexicon(), lexicon)
    semlex = tag_sentence(linkage, hierarchies, semlex, lexicon)
    assert semlex.lookup("eats")[0].support == 2
    assert len(semlex.lookup("eats")) == 1


def test_tag_sentence_skips_untaggable_words(lexicon, hierarchies):
    linkage = parse("the big cow eats yellow corn".split(), lexicon)[0]
    semlex = tag_sentence(linkage, hierarchies, SemanticLexicon(), lexicon)
    assert "the" not in semlex and "big" not in semlex
    # cow's adjective link contributes no tag, only the verb link does
    assert semlex.lookup("cow") == (
        TD("((A,Ds) (Ss))", {("right", 0): "eats"}),)


def test_constructor_pools_equal_observations(hierarchies):
    a = TD("((Ss) (O))", {("left", 0): "cow"})
    b = TD("((Ss) (O))", {("right", 0): "cow"})
    a2 = TD("((Ss) (O))", {("left", 0): "cow"}, 2)
    semlex = SemanticLexicon({"w": (a, b, a2)})
    assert semlex.lookup("w") == (TD("((Ss) (O))", a.tags, 3), b)
    assert parse_semlex(serialize_semlex(semlex), hierarchies) == semlex


def test_observe_pools_into_the_first_equal_observation():
    a = TD("((Ss) ( ))", {("left", 0): "cow"})
    b = TD("((Os) ( ))", {("left", 0): "eats"})
    c = TD("((Ss) ( ))", {("left", 0): "corn"})
    semlex = SemanticLexicon({"w": (a, b)})
    assert semlex.observe("w", TD("((Ss) ( ))", a.tags, 2)).lookup("w") == (
        TD("((Ss) ( ))", a.tags, 3), b)
    assert semlex.observe("w", c).lookup("w") == (a, b, c)
    assert semlex.observe("v", c).lookup("v") == (c,)
    assert semlex.lookup("w") == (a, b)  # the value observed into is kept


def test_walker_pools_equal_bodies(hierarchies):
    text = ("w: ((Ss_cow) ( )) | ((Os) ( )) | (( Ss_cow ) ( )) ;support=2"
            " | ((Ss_cow) ( ))\n")
    cow = {("left", 0): "cow"}
    expected = (TD("((Ss) ( ))", cow, 4), TD("((Os) ( ))", {}))
    assert _walk_semlex(text, hierarchies).lookup("w") == expected
    assert parse_semlex(text, hierarchies).lookup("w") == expected


def test_tagged_disjunct_str():
    td = TD("((Ss) (O))", {("left", 0): "animal",
                           ("right", 0): "food"}, 2)
    assert str(td) == "((Ss_animal) (O_food))"


@pytest.mark.parametrize("tags, support, message", [
    ({("left", 1): "animal"}, 1, r"tag slot \('left', 1\) outside shape"),
    ({("up", 0): "animal"}, 1, r"tag slot \('up', 0\) outside shape"),
    ({("left", 0): "animal"}, 0, "support must be positive"),
    # a slot tagged twice would keep only its last tag
    (((("left", 0), "cow"), (("left", 0), "meat")), 1,
     r"tag slot \('left', 0\) is tagged twice"),
])
def test_tagged_disjunct_rejects_a_bad_slot_or_support(tags, support,
                                                       message):
    with pytest.raises(ValueError, match=message):
        TD("((Ss) (O))", tags, support)


def test_generalize_merges_below_root(trained_semlex):
    eats = trained_semlex.lookup("eats")
    assert [(str(t), t.support) for t in eats] == [
        ("((Ss_animal) (O_food))", 2),
        ("((Ss_car) (O_gasoline))", 1),
    ]


def test_generalize_does_not_merge_through_root(hierarchies):
    a = TD("((Ss) ( ))", {("left", 0): "cow"})
    b = TD("((Ss) ( ))", {("left", 0): "gasoline"})
    semlex = SemanticLexicon({"v": (a, b)})
    assert generalize(semlex, hierarchies).lookup("v") == (a, b)


def test_generalize_requires_same_tagged_slots(hierarchies):
    a = TD("((Ss) (O))", {("left", 0): "cow"})
    b = TD("((Ss) (O))", {("right", 0): "meat"})
    semlex = SemanticLexicon({"v": (a, b)})
    assert generalize(semlex, hierarchies).lookup("v") == (a, b)


@pytest.mark.parametrize("first, second", [("unicorn", "cow"),
                                           ("cow", "unicorn")])
def test_generalize_rejects_a_tag_naming_no_concept(hierarchies, first,
                                                     second):
    semlex = SemanticLexicon({"v": (TD("((Ss) ( ))", {("left", 0): first}),
                                    TD("((Ss) ( ))", {("left", 0): second}))})
    with pytest.raises(UnknownConceptError):
        generalize(semlex, hierarchies)


def test_generalize_rejects_a_lone_tag_naming_no_concept(hierarchies):
    # every tag is resolved, whether or not another observation meets it
    semlex = SemanticLexicon({"v": (TD("((Ss) ( ))",
                                       {("left", 0): "unicorn"}),)})
    with pytest.raises(UnknownConceptError):
        generalize(semlex, hierarchies)


def _restart_generalize(semlex, hiers):
    """The reference generalize: after every merge the pairwise scan
    starts again from the first pair."""
    table = {}
    for word in semlex.words():
        items = list(semlex.lookup(word))
        merged_any = True
        while merged_any:
            merged_any = False
            for i in range(len(items)):
                for j in range(i + 1, len(items)):
                    merged = try_merge(items[i], items[j], hiers)
                    if merged is not None:
                        items[i] = merged
                        del items[j]
                        merged_any = True
                        break
                if merged_any:
                    break
        table[word] = tuple(items)
    return SemanticLexicon(table)


_SHAPES = ("((Ss) ( ))", "((Ss) (O))", "((A,Ds) (Ss))")


@st.composite
def _hierarchy(draw, kind, prefix):
    """A random tree of 2-10 concepts named prefix+a (the root), prefix+b...,
    up to three levels below the root; each concept's parent is one of the
    last three concepts above that level, so that many pairs of concepts
    meet below the root, some of them two levels below their meeting."""
    names = [prefix + letter
             for letter in "abcdefghij"[:draw(st.integers(2, 10))]]
    depth = {names[0]: 0}
    edges = []
    for name in names[1:]:
        parents = [p for p in depth if depth[p] < 3][-3:]
        parent = parents[draw(st.integers(0, len(parents) - 1))]
        depth[name] = depth[parent] + 1
        edges.append("%s > %s" % (parent, name))
    return ConceptHierarchy.parse("\n".join(edges), kind)


@st.composite
def _template(draw):
    """A shape and the kind (or None) of the tag at each of its slots."""
    shape = D(draw(st.sampled_from(_SHAPES)))
    return shape, {(side, i): draw(st.sampled_from((None, "noun", "verb")))
                   for side, conns in (("left", shape.left),
                                       ("right", shape.right))
                   for i in range(len(conns))}


@st.composite
def _semlex_and_hierarchies(draw):
    """Per-word observations, mostly of one or two templates per word so
    that many pairs can merge, that may be untagged, tagged at the root
    or at an interior concept, tagged with either kind at one slot,
    repeated, and of support 1-3."""
    hiers = ConceptHierarchies(draw(_hierarchy("noun", "n")),
                               draw(_hierarchy("verb", "v")))
    nodes = {h.kind: sorted(h.nodes()) for h in (hiers.nouns, hiers.verbs)}
    table = {}
    for word in ("wa", "wb", "wc")[:draw(st.integers(1, 3))]:
        templates = draw(st.lists(_template(), min_size=1, max_size=2))
        items = []
        for _ in range(draw(st.integers(0, 10))):
            pick = draw(st.integers(0, 4))
            if items and pick == 0:
                items.append(draw(st.sampled_from(items)))
                continue
            shape, kinds = (draw(_template()) if pick == 1
                            else draw(st.sampled_from(templates)))
            tags = tuple((slot, draw(st.sampled_from(nodes[k])))
                         for slot, k in kinds.items() if k is not None)
            items.append(TaggedDisjunct(shape, tags, draw(st.integers(1, 3))))
        table[word] = items
    return SemanticLexicon(table), hiers


def test_one_pass_generalize_equals_restarting_scan():
    """The fold equals both pairwise scans, on examples some of which fold
    three or more observations into one."""
    largest_classes = []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_semlex_and_hierarchies())
    def check(case):
        semlex, hiers = case
        out = generalize(semlex, hiers)
        assert out == reference_generalize(semlex, hiers)
        assert out == _restart_generalize(semlex, hiers)
        # with every support 1, a merged support counts its class
        ones = SemanticLexicon({
            word: [TaggedDisjunct(obs.shape, obs.tags)
                   for obs in semlex.lookup(word)]
            for word in semlex.words()})
        largest_classes.append(max(
            (obs.support for word in ones.words()
             for obs in generalize(ones, hiers).lookup(word)), default=0))

    check()
    assert sum(size >= 3 for size in largest_classes) >= 10


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_semlex_and_hierarchies())
def test_generalize_never_holds_two_equal_observations(case):
    # so its result needs no pooling
    semlex, hiers = case
    out = generalize(semlex, hiers)
    for word in out.words():
        keys = [(obs.shape, obs.tags) for obs in out.lookup(word)]
        assert len(set(keys)) == len(keys)


# sentences of the sample lexicon: every one of them parses
_NOUNS = ("car", "condor", "corn", "cow", "gasoline", "meat")
_ADJECTIVES = st.sampled_from(["", "big ", "yellow "])
_SUBJECTS = st.builds("the {}{}".format, _ADJECTIVES, st.sampled_from(_NOUNS))
_OBJECTS = st.builds("{}{}{}".format, st.sampled_from(["", "the "]),
                     _ADJECTIVES, st.sampled_from(_NOUNS))
_SENTENCES = st.builds("{} eats{}".format, _SUBJECTS,
                       st.just("") | _OBJECTS.map(" {}".format))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(_SENTENCES, max_size=6), st.lists(_SENTENCES, max_size=10))
def test_one_fold_over_a_corpus_equals_tagging_each_sentence(
        lexicon, hierarchies, trained, corpus):
    """train's fold: every (word, observation) pair of the corpus added to
    a parsed semantic lexicon at once, each word pooled once."""
    start = SemanticLexicon()
    for sentence in trained:
        linkage = parse(sentence.split(), lexicon)[0]
        start = tag_sentence(linkage, hierarchies, start, lexicon)
    text = serialize_semlex(generalize(start, hierarchies))
    linkages = [parse(sentence.split(), lexicon)[0] for sentence in corpus]
    folded = parse_semlex(text, hierarchies)._observed(
        pair for linkage in linkages
        for pair in _tagged_words(linkage, hierarchies))
    sequential = parse_semlex(text, hierarchies)
    for linkage in linkages:
        sequential = tag_sentence(linkage, hierarchies, sequential, lexicon)
    assert folded == sequential
    assert serialize_semlex(folded) == serialize_semlex(sequential)
    assert serialize_semlex(generalize(folded, hierarchies)) == (
        serialize_semlex(generalize(sequential, hierarchies)))


# --- classification ---------------------------------------------------------


def test_classify_unknown_subject(lexicon, hierarchies, trained_semlex):
    results = classify_unknown("the snipe eats meat".split(),
                               lexicon, trained_semlex, hierarchies)
    assert [concept for concept, _ in results] == ["animal"]
    evidence = results[0][1]
    assert evidence.word == "eats"
    assert str(evidence.usage) == "((Ss_animal) (O_food))"
    assert evidence.facts == (("meat", "food"),)


def test_classify_stops_past_the_search_budget(lexicon, hierarchies,
                                               trained_semlex, monkeypatch):
    monkeypatch.setattr("lexacq.linker.MAX_SEARCH_NODES", 94)
    with pytest.raises(SearchBudgetError):
        classify_unknown("the snipe eats meat".split(),
                         lexicon, trained_semlex, hierarchies)


def test_classify_follows_object_evidence(lexicon, hierarchies, trained_semlex):
    results = classify_unknown("the snipe eats gasoline".split(),
                               lexicon, trained_semlex, hierarchies)
    assert [concept for concept, _ in results] == ["car"]


def test_classify_object_position(lexicon, hierarchies, trained_semlex):
    results = classify_unknown("the condor eats wug".split(),
                               lexicon, trained_semlex, hierarchies)
    assert [concept for concept, _ in results] == ["food"]
    assert results[0][1].facts == (("condor", "animal"),)


def test_classify_without_usable_usage_raises(lexicon, hierarchies):
    with pytest.raises(NoSemanticEvidenceError):
        classify_unknown("the snipe eats meat".split(),
                         lexicon, SemanticLexicon(), hierarchies)


def test_classify_rejects_a_tag_naming_no_concept(lexicon, hierarchies):
    semlex = SemanticLexicon({"eats": (
        TD("((Ss) (O))", {("left", 0): "animal", ("right", 0): "unicorn"}),)})
    with pytest.raises(UnknownConceptError):
        classify_unknown("the wug eats corn".split(), lexicon, semlex,
                         hierarchies)


def test_classify_resolves_a_tag_only_when_the_earlier_tags_fit(
        lexicon, hierarchies):
    # cow's usage emits at its adjective slot, which links to the unknown
    # word; its determiner slot comes before its verb slot, and "the" fits
    # no concept
    def semlex(determiner_tag):
        tags = {("left", 0): "animal", ("right", 0): "unicorn"}
        if determiner_tag is not None:
            tags[("left", 1)] = determiner_tag
        return SemanticLexicon({"cow": (TD("((A,Ds) (Ss))", tags),)})

    words = "the wug cow eats".split()
    assert classify_unknown(words, lexicon, semlex("thing"), hierarchies) == []
    with pytest.raises(UnknownConceptError, match="'unicorn' is not a concept"):
        classify_unknown(words, lexicon, semlex(None), hierarchies)


@pytest.mark.parametrize("sentence", ["the condor eats meat",
                                      "the snipe eats the wug",
                                      "meat eats the cow"])
def test_classify_needs_exactly_one_unknown(lexicon, hierarchies,
                                            trained_semlex, sentence):
    # counted before any search, so an unlinkable sentence is refused too
    with pytest.raises(UnknownCountError, match="exactly one unknown word"):
        classify_unknown(sentence.split(), lexicon, trained_semlex,
                         hierarchies)


def _outcome(classify, *args, **kwargs):
    """What a classify call returned, or the type and message of the
    documented error it raised."""
    try:
        return classify(*args, **kwargs)
    except (LookupError, ValueError) as exc:
        return type(exc), str(exc)


# a name that is no concept, the roots, which subsume every filler of
# their kind, and the other concepts of the sample hierarchies
_TAGS = (st.just("unicorn") | st.sampled_from(("thing", "action"))
         | st.sampled_from(("animal", "bird", "condor", "cow", "food", "meat",
                            "corn", "machine", "car", "substance",
                            "gasoline", "consume", "eats")))


@st.composite
def _hand_built_semlex(draw, lexicon, words):
    """Up to six usages for each known word of a sentence, mostly of the
    word's own shapes, tagged at random slots with concepts of either kind
    or with a name that is no concept."""
    table = {}
    for word in sorted({w for w in words if w in lexicon}):
        shapes = lexicon.lookup(word)
        items = []
        for _ in range(draw(st.integers(0, 6))):
            shape = draw(st.sampled_from(shapes + (D("((Ss) (O))"),)))
            slots = [(side, i) for side, conns in (("left", shape.left),
                                                   ("right", shape.right))
                     for i in range(len(conns))]
            items.append(TaggedDisjunct(shape, tuple(
                (slot, draw(_TAGS)) for slot in slots
                if draw(st.integers(0, 3)))))
        table[word] = items
    return SemanticLexicon(table)


def test_classify_unknown_equals_the_reference(lexicon, hierarchies):
    """On sentences of the sample grammar with a word or two made unknown,
    against trained semantic lexicons and hand-built ones whose tags may
    name no concept, with and without the inventory filter."""
    outcomes = []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        words = data.draw(_SENTENCES).split()
        positions = st.integers(0, len(words) - 1)
        words[data.draw(positions)] = "wug"
        if data.draw(st.integers(0, 9)) == 0:  # a second unknown word
            words[data.draw(positions)] = "zorp"
        if data.draw(st.integers(0, 2)) == 0:
            semlex = SemanticLexicon()
            for sentence in data.draw(st.lists(_SENTENCES, min_size=1,
                                               max_size=4)):
                linkage = parse(sentence.split(), lexicon)[0]
                semlex = tag_sentence(linkage, hierarchies, semlex, lexicon)
            semlex = generalize(semlex, hierarchies)
        else:
            semlex = data.draw(_hand_built_semlex(lexicon, words))
        filter_on = data.draw(st.booleans())
        out = _outcome(classify_unknown, words, lexicon, semlex, hierarchies,
                       filter_on=filter_on)
        assert out == _outcome(reference_classify, words, lexicon, semlex,
                               hierarchies, filter_on=filter_on)
        outcomes.append((filter_on, out))

    check()
    assert len(outcomes) >= 300
    assert {filter_on for filter_on, _ in outcomes} == {False, True}
    raised = [out[0] for _, out in outcomes if type(out) is tuple]
    assert raised.count(UnknownConceptError) >= 5
    assert raised.count(NoSemanticEvidenceError) >= 10
    found = [out for _, out in outcomes if type(out) is list]
    assert sum(len(out) >= 2 for out in found) >= 10


# --- tagged-lexicon format ---------------------------------------------------


def test_semlex_round_trip(trained_semlex, hierarchies):
    text = serialize_semlex(trained_semlex)
    assert parse_semlex(text, hierarchies) == trained_semlex


def test_semlex_serialization_form(hierarchies):
    semlex = SemanticLexicon({
        "eats": (TD("((Ss) (O))",
                    {("left", 0): "animal",
                     ("right", 0): "food"}, 2),)})
    assert serialize_semlex(semlex) == (
        "eats: ((Ss_animal) (O_food)) ;support=2\n")


def test_hand_built_semantic_values_hold_only_writable_names():
    # each would serialize to text that parse_semlex rejects
    with pytest.raises(LexiconError, match="bad tag name 'Cow X'"):
        TD("((Ss) ( ))", {("left", 0): "Cow X"})
    obs = TD("((Ss) ( ))", {("left", 0): "cow"})
    with pytest.raises(LexiconError, match="bad word 'a b'"):
        SemanticLexicon({"a b": (obs,)})
    with pytest.raises(LexiconError, match="bad word 'a b'"):
        SemanticLexicon().observe("a b", obs)


def test_semlex_parse_untagged_connectors(hierarchies):
    semlex = parse_semlex("meat: ((Os) ( )) ;support=3\n", hierarchies)
    td = semlex.lookup("meat")[0]
    assert td.support == 3
    assert td.tags == ()


def test_semlex_parse_rejects_unknown_tag(hierarchies):
    with pytest.raises((LexiconError, HierarchyError)):
        parse_semlex("eats: ((Ss_unicorn) ( ))", hierarchies)


def test_semlex_parse_rejects_duplicate_word(hierarchies):
    with pytest.raises(LexiconError):
        parse_semlex("meat: ((Os) ( ))\nmeat: ((Os) ( ))", hierarchies)
