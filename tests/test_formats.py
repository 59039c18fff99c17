"""The lexicon, tagged-lexicon and concept-hierarchy readers: exact errors
and round trips.

Each reader matches well-formed text item by item and leaves anything else
to a token walker (a line loop for hierarchies), which reports the error
and its line.  The error tables pin the message and line of every kind of
malformed input; the properties check that serialized values read back
equal, however the text is spaced, commented or split across lines, and
that the two paths never disagree.
A parsed tagged lexicon builds a word's observations on its first lookup;
the eager reader it replaced is kept here as the reference.
"""

import pickle
import re
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexacq.lexicon import (
    Connector,
    Disjunct,
    Lexicon,
    LexiconError,
    _read_lexicon,
    _walk_lexicon,
    parse_lexicon,
    serialize_lexicon,
)
from lexacq import semantics
from lexacq.lexicon import _body_tokens, _uncomment
from lexacq.semantics import (
    _SEMLEX_ITEM_RE,
    ConceptHierarchies,
    ConceptHierarchy,
    HierarchyError,
    SemanticLexicon,
    TaggedDisjunct,
    _read_hierarchy,
    _read_semlex,
    _walk_hierarchy,
    _walk_semlex,
    _with_support,
    parse_semlex,
    serialize_semlex,
)

# "cow" is in both hierarchies, so a tag naming it is ambiguous
HIERS = ConceptHierarchies(
    ConceptHierarchy.parse(
        "thing > animal\nanimal > cow\nthing > food\nfood > meat\n", "noun"),
    ConceptHierarchy.parse("action > eats\naction > cow\n", "verb"),
)
TAG_NAMES = ["action", "animal", "eats", "food", "meat", "thing"]

LEXICON_ERRORS = [
    # bad character
    ('the: (( ) (D))\nbig: (( ) (A)) @',
     "line 2: unexpected character '@'", 2),
    ('the: (( ) (D))\nété: (( ) (D))',
     "line 2: unexpected character 'é'", 2),
    ('the: (( ) (D)) # x\u2028 @',
     "line 2: unexpected character '@'", 2),
    ('the: (( ) (D)) # x\x85meat: ((Os) (@))',
     "line 2: unexpected character '@'", 2),
    ('the: (( ) (D))\x0c\x0cmeat: (( ) (@))',
     "line 3: unexpected character '@'", 3),
    # bad word
    ('The: (( ) (D))',
     "line 1: expected word, got 'The'", 1),
    ('the: (( ) (D))\n3rd: ((D) (Ss))',
     "line 2: expected word, got '3rd'", 2),
    ("don': (( ) (D))",
     'line 1: expected word, got "don\'"', 1),
    ('the: (( ) (D)) ;support=2',
     "line 1: expected word, got ';'", 1),
    ('the: (( ) (D)) ((A) ( ))',
     "line 1: expected word, got '('", 1),
    # duplicate word or disjunct
    ('the: (( ) (D))\n\nthe: (( ) (A))',
     "line 3: duplicate definition of 'the'", 3),
    ('the: (( ) (D))\r\nmeat: ((Os) ( ))\r\n\r\nmeat: ((A) ( ))',
     "line 4: duplicate definition of 'meat'", 4),
    ('the: ((A\t,\x0cB) (D))\nthe: (( ) (A))',
     "line 3: duplicate definition of 'the'", 3),
    ('big, yellow,\n  big: (( ) (A))',
     "line 2: word 'big' repeated in head", 2),
    ('meat: ((Os) ( )) |\n  ((Os) ( ))',
     'line 2: duplicate disjunct ((Os) ( )) for meat', 2),
    ('a, b: ((A) ( )) | (( ) (B)) | ((A) ( ))',
     'line 1: duplicate disjunct ((A) ( )) for a, b', 1),
    # missing ':' or ')'
    ('the (( ) (D))',
     "line 1: expected ',' or ':', got '('", 1),
    ('the, big (( ) (D))',
     "line 1: expected ',' or ':', got '('", 1),
    ('the: (( ) (D) | (( ) (A))',
     "line 1: expected ')', got '|'", 1),
    # bad connector
    ('the: (( ) (d))',
     "line 1: bad connector 'd'", 1),
    ('the: (( ) (D9))',
     "line 1: bad connector 'D9'", 1),
    ('the: (( ) (S_x))',
     "line 1: bad connector 'S_x'", 1),
    ('x: ((A,) ( ))',
     "line 1: expected connector, got ')'", 1),
    ('x: ((A B) ( ))',
     "line 1: expected ',' or ')', got 'B'", 1),
    # input that ends early
    ('the: (( ) (D)',
     'line 1: unexpected end of input', 1),
    ('the:',
     'line 1: unexpected end of input', 1),
    ('the: (( ) (D)) |',
     'line 1: unexpected end of input', 1),
    ('the,',
     'line 1: unexpected end of input', 1),
    ('# only a comment\nthe: (( ) (D)) # trailing\nmeat:\n'
     '  ((Os) ( )) |  # more\n',
     'line 4: unexpected end of input', 4),
]

_GOOD_ENTRIES = "eats: ((Ss_animal) (O_food))\nmeat: ((Os_eats) ( ))\n"
SEMLEX_ERRORS = [
    # bad character
    ('eats: ((Ss_animal) (O)) @',
     "line 1: unexpected character '@'", 1),
    ('eats: ((Ss) (O)) ;support=-1',
     "line 1: unexpected character '-'", 1),
    # bad word
    ('Eats: ((Ss) (O))',
     "line 1: bad word 'Eats'", 1),
    ('eats_x: ((Ss) (O))',
     "line 1: bad word 'eats_x'", 1),
    ('eats: ((Ss) (O))\n| ((Ss) ( ))\nmeat: ((Os) ( )) ((Os) ( ))',
     "line 3: bad word '('", 3),
    ('| ((Ss) (O))',
     "line 1: bad word '|'", 1),
    # duplicate word
    ('meat: ((Os) ( ))\nmeat: ((Os) ( ))',
     "line 2: duplicate entry for 'meat'", 2),
    # missing ':' or ')'
    ('eats ((Ss) (O))',
     "line 1: expected ':', got '('", 1),
    ('eats, meat: ((Ss) (O))',
     "line 1: expected ':', got ','", 1),
    ('eats: ((Ss) (O) ;support=1',
     "line 1: expected ')', got ';'", 1),
    # bad connector or tag name
    ('eats: ((ss_animal) (O))',
     "line 1: bad connector 'ss'", 1),
    ('eats: ((Ss_animal) (O9))',
     "line 1: bad connector 'O9'", 1),
    ('eats: ((Ss_Animal) (O))',
     "line 1: bad tag name 'Animal'", 1),
    ('eats: ((Ss_) (O))',
     "line 1: bad tag name ''", 1),
    ('eats: ((Ss_a_b) (O))',
     "line 1: bad tag name 'a_b'", 1),
    # unknown tag
    ('eats: ((Ss_animal) (O_unicorn))',
     "line 1: tag 'unicorn' is in neither hierarchy", 1),
    ('eats: ((Ss_cow) (O))',
     "line 1: 'cow' appears in both hierarchies", 1),
    # bad support count
    ('eats: ((Ss) (O)) ;support=0',
     "line 1: bad support count '0'", 1),
    ('eats: ((Ss) (O)) ;support=x',
     "line 1: bad support count 'x'", 1),
    ('eats: ((Ss) (O)) ;support=2x',
     "line 1: bad support count '2x'", 1),
    ('eats: ((Ss) (O)) ;support=2x: ((Ss) (O))',
     "line 1: bad support count '2x'", 1),
    ('eats: ((Ss) (O)) ;\nsupport=\n\n0',
     "line 4: bad support count '0'", 4),
    ('eats: ((Ss) (O)) ;supports=2',
     "line 1: expected 'support', got 'supports'", 1),
    ('eats: ((Ss) (O)) ;support 2',
     "line 1: expected '=', got '2'", 1),
    # input that ends early
    ('eats: ((Ss) (O)',
     'line 1: unexpected end of input', 1),
    ('eats: ((Ss) (O)) ;support=',
     'line 1: unexpected end of input', 1),
    ('eats:',
     'line 1: unexpected end of input', 1),
    ('eats: ((Ss) (O)) |',
     'line 1: unexpected end of input', 1),
    # a bad entry after good ones, checked though no lookup ever reads it
    (_GOOD_ENTRIES + 'zebra: ((Ds) (Ss_unicorn))',
     "line 3: tag 'unicorn' is in neither hierarchy", 3),
    (_GOOD_ENTRIES + 'zebra: ((Ds) (Ss_cow))',
     "line 3: 'cow' appears in both hierarchies", 3),
    (_GOOD_ENTRIES + 'zebra: ((Ds) (Ss_animal)) ;support=0',
     "line 3: bad support count '0'", 3),
    (_GOOD_ENTRIES + 'meat: ((Os) ( ))',
     "line 3: duplicate entry for 'meat'", 3),
    # past the interpreter's default int digit limit of 4,300
    pytest.param(_GOOD_ENTRIES + 'zebra: ((Ds) (Ss)) ;support=' + '1' * 5000,
                 "line 3: support count of 5000 digits is too long", 3,
                 id="overlong support count"),
]


HIERARCHY_ERRORS = [
    # missing '>'
    ('thing animal',
     "line 1: expected 'parent > child'", 1),
    ('# a comment line\nthing > animal\n\nanimal bird',
     "line 4: expected 'parent > child'", 4),
    ('thing > animal # > x\nanimal > bird # ok\nbird # > cow',
     "line 3: expected 'parent > child'", 3),
    ('thing > animal\r\nanimal > bird\r\n\r\nbird\r\n',
     "line 4: expected 'parent > child'", 4),
    ('thing > animal\x0banimal bird',
     "line 2: expected 'parent > child'", 2),
    ('thing > animal # x\x85 bird',
     "line 2: expected 'parent > child'", 2),
    ('thing > animal\x1c\x1canimal',
     "line 3: expected 'parent > child'", 3),
    ('thing >\x1fanimal\x1f\nanimal bird',
     "line 2: expected 'parent > child'", 2),
    # bad name
    ('Thing > animal',
     "line 1: bad concept name 'Thing'", 1),
    ('thing > animal\nanimal > 3rd',
     "line 2: bad concept name '3rd'", 2),
    ('thing > ',
     "line 1: bad concept name ''", 1),
    ('> cow',
     "line 1: bad concept name ''", 1),
    ("thing > don'",
     'line 1: bad concept name "don\'"', 1),
    ('thing > cow > meat',
     "line 1: bad concept name 'cow > meat'", 1),
    ('thing\t>\tbig cow',
     "line 1: bad concept name 'big cow'", 1),
    ('thing > cow\xa0x',
     "line 1: bad concept name 'cow\\xa0x'", 1),
    ('thing > animal_x',
     "line 1: bad concept name 'animal_x'", 1),
    # parent not introduced yet
    ('thing > animal\nplant > tree',
     "line 2: parent 'plant' not introduced yet", 2),
    ('thing > animal\u2028 plant > tree',
     "line 2: parent 'plant' not introduced yet", 2),
    ('thing > animal\n# thing > plant\nplant > tree',
     "line 3: parent 'plant' not introduced yet", 3),
    # child already placed
    ('thing > animal\nthing > animal',
     "line 2: 'animal' already has a place in the tree", 2),
    ('thing > animal\r\nanimal > thing',
     "line 2: 'thing' already has a place in the tree", 2),
    ('thing > thing',
     "line 1: 'thing' already has a place in the tree", 1),
    # no edges
    ('',
     "empty hierarchy", None),
    ('# only a comment\n\n  \t\n # another\r\n',
     "empty hierarchy", None),
]


@pytest.mark.parametrize("text, message, line", HIERARCHY_ERRORS)
def test_hierarchy_error_message_and_line(text, message, line):
    with pytest.raises(HierarchyError) as info:
        ConceptHierarchy.parse(text, "noun")
    assert (str(info.value), info.value.line) == (message, line)


@pytest.mark.parametrize("text, message, line", LEXICON_ERRORS)
def test_lexicon_error_message_and_line(text, message, line):
    with pytest.raises(LexiconError) as info:
        parse_lexicon(text)
    assert (str(info.value), info.value.line) == (message, line)


@pytest.mark.parametrize("text, message, line", SEMLEX_ERRORS)
def test_semlex_error_message_and_line(text, message, line):
    with pytest.raises(LexiconError) as info:
        parse_semlex(text, HIERS)
    assert (str(info.value), info.value.line) == (message, line)


# --- generated values and re-spaced text ------------------------------------

names = st.builds(lambda stem, tail: stem + ("'" + tail if tail else ""),
                  st.text("abcdefz", min_size=1, max_size=5),
                  st.text("st", max_size=2))
connectors = st.builds(Connector, st.sampled_from(["A", "D", "O", "S", "XY"]),
                       st.sampled_from(["", "s", "p", "ab"]))
sides = st.lists(connectors, max_size=3).map(tuple)
disjuncts = st.builds(Disjunct, sides, sides)
lexicons = st.dictionaries(
    names, st.lists(disjuncts, min_size=1, max_size=4, unique=True),
    max_size=6).map(Lexicon)


@st.composite
def observations(draw):
    shape = draw(disjuncts)
    slots = [("left", i) for i in range(len(shape.left))] + [
        ("right", i) for i in range(len(shape.right))]
    tagged = draw(st.lists(st.sampled_from(slots), unique=True)) if slots else []
    tags = []
    for slot in tagged:
        tags.append((slot, draw(st.sampled_from(TAG_NAMES))))
    return TaggedDisjunct(shape, tuple(tags), draw(st.integers(1, 120)))


semlexes = st.dictionaries(
    names,
    st.lists(observations(), min_size=1, max_size=4,
             unique_by=lambda o: (o.shape, o.tags)),
    max_size=6).map(SemanticLexicon)

_TOKEN_RE = re.compile(r"[A-Za-z0-9'_]+|[():,|;=]")
# \x0c, \x1d, \x85 and \u2028 are whitespace that ends a line, and so a
# comment
GAPS = [" ", "\n", "\t", "   ", "\r\n", "\x0c", " # note\n", "# x\x0c",
        "#w\x1d", "#y\x85", " #z\u2028", "\n# a comment line\n\n"]


def respace(text, rng):
    """The same tokens, joined by random whitespace, comments and line
    breaks; tokens that would run together keep at least a space."""
    tokens = _TOKEN_RE.findall(text)
    out = [rng.choice(["", "\n", "# head\n"])] + tokens[:1]
    for prev, token in zip(tokens, tokens[1:]):
        glued = prev[-1] in "():,|;=" or token[0] in "():,|;="
        out.append(rng.choice(GAPS + [""] * glued))
        out.append(token)
    return "".join(out)


@settings(max_examples=60, deadline=None)
@given(lexicons, st.randoms(use_true_random=False))
def test_lexicon_round_trips_however_spaced(lex, rng):
    text = serialize_lexicon(lex)
    assert parse_lexicon(text) == lex
    spaced = respace(text, rng)
    assert parse_lexicon(spaced) == lex
    assert _read_lexicon(spaced) is not None  # the walker was not needed


@settings(max_examples=60, deadline=None)
@given(semlexes, st.randoms(use_true_random=False))
def test_semlex_round_trips_however_spaced(semlex, rng):
    text = serialize_semlex(semlex)
    assert parse_semlex(text, HIERS) == semlex
    spaced = respace(text, rng)
    assert parse_semlex(spaced, HIERS) == semlex
    assert _read_semlex(spaced, HIERS) is not None


def _outcome(read, *args):
    try:
        return read(*args)
    except LexiconError as exc:
        return "error", str(exc), exc.line


# edits that break well-formed text in many ways
mutants = st.tuples(st.integers(0, 400), st.integers(0, 3),
                    st.sampled_from(["", "(", ")", ",", "|", ":", ";", "=",
                                     "_", "'", "x", "X", "3", " ", "\n", "#",
                                     "@", "support", ";support=0"]))


def _mutate(text, edit):
    at, cut, insert = edit
    at %= len(text) + 1
    return text[:at] + insert + text[at + cut:]


# every str.splitlines boundary, alone or ending a comment or blank lines
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029", " # note\n", "#x\u2028",
               "\n# a comment line\r\n \t\n"]
# whitespace that ends no line
INLINE_SPACES = ["", " ", "  ", "\t", "\x1f", "\xa0", "\u3000"]
CONCEPTS = ["thing", "animal", "cow", "food", "meat", "don't", "a", "z"]


@st.composite
def hierarchy_texts(draw):
    """A random tree's edges, one per line, spaced, broken and commented
    in every way the format allows; now and then an edge is broken across
    lines or shares its line with the next."""
    names = draw(st.permutations(CONCEPTS))[:draw(st.integers(2, 7))]
    spaces = st.sampled_from(INLINE_SPACES * 8 + LINE_BREAKS)
    ends = st.sampled_from(LINE_BREAKS * 2 + [" "])
    text = draw(st.sampled_from(["", "\n", "# head\n"]))
    for i in range(1, len(names)):
        parent = names[draw(st.integers(0, i - 1))]
        text += "".join(draw(spaces) + part
                        for part in (parent, ">", names[i]))
        text += draw(spaces) + draw(ends)
    return text


hierarchy_mutants = st.tuples(
    st.integers(0, 200), st.integers(0, 3),
    st.sampled_from(["", ">", "#", "\n", "\r", "\x0b", "\u2028", " ", "\x1f",
                     "\xa0", "A", "3", "'", "x", "_", "thing", "cow > z",
                     "> "]))


def _hierarchy_outcome(read, text):
    try:
        return read(text)
    except HierarchyError as exc:
        return "error", str(exc), exc.line


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hierarchy_texts(), st.lists(hierarchy_mutants, max_size=3))
def test_hierarchy_reader_agrees_with_line_loop(text, edits):
    for edit in edits:
        text = _mutate(text, edit)
    expected = _hierarchy_outcome(_walk_hierarchy, text)
    # the regex path accepts exactly what the line loop accepts
    assert _read_hierarchy(text) == (
        None if expected[0] == "error" else expected)
    assert _hierarchy_outcome(
        lambda t: ConceptHierarchy.parse(t, "noun").edges, text) == expected


@settings(max_examples=100, deadline=None)
@given(lexicons, st.lists(mutants, min_size=1, max_size=3))
def test_lexicon_reader_agrees_with_walker(lex, edits):
    text = serialize_lexicon(lex)
    for edit in edits:
        text = _mutate(text, edit)
    expected = _outcome(lambda t: Lexicon(_walk_lexicon(t)), text)
    assert _outcome(parse_lexicon, text) == expected


@settings(max_examples=100, deadline=None)
@given(semlexes, st.lists(mutants, min_size=1, max_size=3))
def test_semlex_reader_agrees_with_walker(semlex, edits):
    text = serialize_semlex(semlex)
    for edit in edits:
        text = _mutate(text, edit)
    expected = _outcome(_walk_semlex, text, HIERS)
    assert _outcome(parse_semlex, text, HIERS) == expected


def test_semlex_pools_equal_observations_spaced_apart():
    semlex = parse_semlex(
        "eats: ((Ss_animal) (O)) ;support=2 | ((Ss_animal)  ( O )) |"
        " (( Ss ) (O))", HIERS)
    assert [(str(o), o.support) for o in semlex.lookup("eats")] == [
        ("((Ss_animal) (O))", 3), ("((Ss) (O))", 1)]


# --- observations built on first lookup ------------------------------------


def _eager_tagged_body(body, hiers) -> Optional[TaggedDisjunct]:
    """Reference: the observation of a matched body; None when a tag
    names no single concept."""
    sides, tags = [], []
    for side, tokens in zip(("left", "right"), _body_tokens(body)):
        conns = []
        for i, token in enumerate(tokens):
            name, _, tag_name = token.partition("_")
            conns.append(Connector.parse(name))
            if tag_name:
                try:
                    kind = hiers.kind_of(tag_name)
                except HierarchyError:
                    return None
                if kind is None:
                    return None
                tags.append(((side, i), tag_name))
        sides.append(tuple(conns))
    return TaggedDisjunct(Disjunct(*sides), tuple(tags))


def _eager_read_semlex(text, hiers) -> Optional[dict]:
    """Reference: the reader that builds every observation as it reads,
    identical ones pooled; None for anything but well-formed text."""
    text = _uncomment(text)
    table: dict[str, list[TaggedDisjunct]] = {}
    parsed: dict[str, TaggedDisjunct] = {}  # body text -> observation
    distinct: dict[TaggedDisjunct, TaggedDisjunct] = {}
    items = pooled = None
    pos = 0
    match = _SEMLEX_ITEM_RE.match
    while (m := match(text, pos)) is not None:
        word, body, count = m.groups()
        if word is not None:
            if word in table:
                return None
            items = table[word] = []
            pooled = {}  # id of an observation in distinct -> index in items
        elif items is None:
            return None
        obs = parsed.get(body)
        if obs is None:
            obs = _eager_tagged_body(body, hiers)
            if obs is None:
                return None
            obs = parsed[body] = distinct.setdefault(obs, obs)
        support = 1 if count is None else int(count)
        if support < 1:
            return None
        i = pooled.get(id(obs))
        if i is not None:
            support += items[i].support
            items[i] = _with_support(obs, support)
        else:
            pooled[id(obs)] = len(items)
            items.append(obs if support == 1 else _with_support(obs, support))
        pos = m.end()
    return None if text[pos:].strip() else table


@settings(max_examples=80, deadline=None)
@given(semlexes, st.randoms(use_true_random=False), st.data())
def test_semlex_built_on_lookup_equals_eager_reference(semlex, rng, data):
    spaced = respace(serialize_semlex(semlex), rng)
    table = _eager_read_semlex(spaced, HIERS)
    assert table is not None
    reference = SemanticLexicon(table)
    present = reference.words()
    words = st.one_of(names, st.sampled_from(present)) if present else names
    probes = data.draw(st.lists(words, max_size=8))

    def partly_built():
        """A fresh parse after the probe lookups, which also check that each
        word is built once and equals the reference."""
        value = parse_semlex(spaced, HIERS)
        for word in probes:
            obs = value.lookup(word)
            assert obs == reference.lookup(word)
            assert value.lookup(word) is obs
        return value

    value = partly_built()
    assert value.words() == present
    assert len(value) == len(reference)
    assert [w in value for w in probes] == [w in reference for w in probes]
    assert partly_built() == reference
    assert reference == partly_built()
    assert serialize_semlex(partly_built()) == serialize_semlex(reference)
    assert pickle.loads(pickle.dumps(partly_built())) == reference
    word, obs = data.draw(words), data.draw(observations())
    assert partly_built().observe(word, obs) == reference.observe(word, obs)


def test_semlex_builds_a_words_observations_on_its_first_lookup(monkeypatch):
    built = []
    tagged_body = semantics._tagged_body

    def counting(body):
        built.append(body)
        return tagged_body(body)

    monkeypatch.setattr(semantics, "_tagged_body", counting)
    semlex = parse_semlex(
        "eats: ((Ss_animal) (O)) ;support=2 | ((Ss_animal)  ( O )) |"
        " ((Ss_animal) (O))\n"
        "meat: ((Os) ( )) | ((Os_eats) ( ))\n"
        "cow: ((Ss_animal) (O))\n", HIERS)
    assert (semlex.words(), len(semlex), "meat" in semlex) == (
        ["cow", "eats", "meat"], 3, True)
    assert built == []
    assert [(str(o), o.support) for o in semlex.lookup("eats")] == [
        ("((Ss_animal) (O))", 4)]
    assert built == ["((Ss_animal) (O))", "((Ss_animal)  ( O ))"]
    # built once; cow's one body was built for eats
    semlex.lookup("eats"), semlex.lookup("cow"), semlex.lookup("zebra")
    assert len(built) == 2
    semlex.lookup("meat")
    assert built[2:] == ["((Os) ( ))", "((Os_eats) ( ))"]
