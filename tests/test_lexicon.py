"""Lexicon format: connectors, disjuncts, parsing, serialization."""

import pytest

from lexacq.lexicon import (
    Connector,
    Disjunct,
    Lexicon,
    LexiconError,
    parse_lexicon,
    serialize_lexicon,
)


def test_connector_parse_base_and_subscript():
    assert Connector.parse("Ss") == Connector("S", "s")
    assert Connector.parse("O") == Connector("O", "")
    assert Connector.parse("ABmx") == Connector("AB", "mx")


@pytest.mark.parametrize("bad", ["", "s", "S9", "sS", "S_x", "S s"])
def test_connector_parse_rejects_malformed(bad):
    with pytest.raises(LexiconError):
        Connector.parse(bad)


@pytest.mark.parametrize("base, subscript", [
    ("É", ""), ("A", "é"), ("A", "ª")])
def test_connector_accepts_only_ascii_letters(base, subscript):
    # the lexicon text format has ASCII connectors only, so a connector
    # of other letters could be written out but not read back
    with pytest.raises(LexiconError):
        Connector(base, subscript)


def test_connector_str_round_trip():
    for text in ["S", "Ss", "ABC", "Xyz"]:
        assert str(Connector.parse(text)) == text


def test_disjunct_str_empty_sides():
    assert str(Disjunct((), ())) == "(( ) ( ))"
    d = Disjunct((Connector("A"), Connector("D", "s")), (Connector("S", "s"),))
    assert str(d) == "((A,Ds) (Ss))"
    assert Disjunct(list(d.left), list(d.right)) == d


def test_parse_single_entry():
    lex = parse_lexicon("the: (( ) (D))")
    assert "the" in lex
    assert lex.lookup("the") == (Disjunct((), (Connector("D"),)),)


def test_parse_shared_head_and_alternatives():
    lex = parse_lexicon("big, yellow: (( ) (A)) | ((A) ( ))")
    assert lex.lookup("big") == lex.lookup("yellow")
    assert len(lex.lookup("big")) == 2


def test_parse_multiline_and_comments():
    text = """
# determiners
the: (( ) (D))
meat:
    ((Ds,Os) ( )) |
    ((Os) ( ))
"""
    lex = parse_lexicon(text)
    assert len(lex) == 2
    assert len(lex.lookup("meat")) == 2


def test_parse_error_carries_line_number():
    with pytest.raises(LexiconError) as info:
        parse_lexicon("the: (( ) (D))\nbad entry here")
    assert info.value.line == 2


def test_parse_rejects_duplicate_word():
    with pytest.raises(LexiconError):
        parse_lexicon("the: (( ) (D))\nthe: (( ) (A))")


def test_parse_rejects_duplicate_disjunct():
    with pytest.raises(LexiconError):
        parse_lexicon("the: (( ) (D)) | (( ) (D))")


def test_lexicon_rejects_an_empty_entry_and_a_duplicate_disjunct():
    d = Disjunct((), (Connector("D"),))
    with pytest.raises(LexiconError, match="word 'the' has no disjuncts"):
        Lexicon({"the": ()})
    with pytest.raises(LexiconError, match="duplicate disjunct for 'the'"):
        Lexicon({"the": (d, d)})
    with pytest.raises(LexiconError, match="word 'the' has no disjuncts"):
        Lexicon({}).add("the", ())


def test_inventory_is_distinct_and_sorted(lexicon):
    inv = lexicon.inventory()
    assert len(inv) == len(set(inv))
    assert list(inv) == sorted(inv, key=str)
    # sample lexicon: 1 determiner + 1 adjective + 6 noun + 2 verb disjuncts
    assert len(inv) == 10


def test_add_appends_new_word(lexicon):
    d = parse_lexicon("snipe: ((D) (Ss))").lookup("snipe")[0]
    grown = lexicon.add("snipe", (d,))
    assert "snipe" not in lexicon
    assert grown.lookup("snipe") == (d,)
    assert len(grown) == len(lexicon) + 1


def test_add_unions_existing_entry_first(lexicon):
    old = lexicon.lookup("eats")
    extra = parse_lexicon("x: ((O) ( ))").lookup("x")[0]
    grown = lexicon.add("eats", (extra, old[0]))
    assert grown.lookup("eats") == old + (extra,)


def test_add_rejects_bad_word(lexicon):
    with pytest.raises(LexiconError, match="bad word '3rd'"):
        lexicon.add("3rd", lexicon.lookup("condor"))


def test_round_trip_value_equality(lexicon):
    assert parse_lexicon(serialize_lexicon(lexicon)) == lexicon
    built = Lexicon({"ab": (Disjunct((Connector("AB", "xy"),),
                                     (Connector("Z"),)),)})
    assert parse_lexicon(serialize_lexicon(built)) == built


def test_serialize_one_sorted_line_per_word():
    lex = parse_lexicon("b: (( ) (A))\na: ((A) ( ))")
    assert serialize_lexicon(lex) == "a: ((A) ( ))\nb: (( ) (A))\n"


def test_empty_lexicon():
    lex = parse_lexicon("# nothing\n")
    assert len(lex) == 0
    assert serialize_lexicon(lex) == ""
    assert parse_lexicon(serialize_lexicon(lex)) == lex
    assert lex == Lexicon({})
