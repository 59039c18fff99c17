"""`lexacq train` on a corpus of every sample sentence writes a known file.

The corpus holds the 666 sentences of the sample grammar that
`tests/test_semantics.py` draws from (`_SENTENCES`), in loop order:
subject adjective, subject noun, then no object or, in turn, object
determiner, object adjective and object noun.  A fresh `init` workspace
is trained on it through `cli.main`, and the semantic lexicon it writes
must equal `tests/data/trained_semlex.lg` byte for byte.
"""

from pathlib import Path

from lexacq.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "trained_semlex.lg"

_NOUNS = ("car", "condor", "corn", "cow", "gasoline", "meat")
_ADJECTIVES = ("", "big ", "yellow ")


def _sentences() -> list:
    objects = [""] + [" %s%s%s" % (determiner, adjective, noun)
                      for determiner in ("", "the ")
                      for adjective in _ADJECTIVES for noun in _NOUNS]
    return ["the %s%s eats%s" % (adjective, noun, obj)
            for adjective in _ADJECTIVES for noun in _NOUNS
            for obj in objects]


def test_training_on_every_sample_sentence_writes_the_golden_file(tmp_path,
                                                                  capsys):
    sentences = _sentences()
    assert len(sentences) == len(set(sentences)) == 666
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(sentences) + "\n", encoding="utf-8")
    ws = tmp_path / "ws"
    assert main(["init", str(ws)]) == 0
    assert main(["-w", str(ws), "train", str(corpus)]) == 0
    assert "trained on 666 sentence(s)" in capsys.readouterr().out
    assert (ws / "semantic_lexicon.lg").read_bytes() == GOLDEN.read_bytes()
