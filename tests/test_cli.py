"""Command-line behavior: tokenization, workspace handling, exit codes."""

import contextlib
import errno
import io
import os
import re
import stat
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexacq.cli import (
    WorkspaceError,
    atomic_write,
    load_workspace,
    main,
    tokenize,
)
from lexacq.lexicon import parse_lexicon
from lexacq.linker import MAX_SEARCH_NODES, MAX_SENTENCE_WORDS
from lexacq.semantics import TaggedDisjunct


@pytest.fixture
def ws(tmp_path):
    assert main(["init", str(tmp_path)]) == 0
    return tmp_path


def run(ws_dir, *argv):
    return main(["-w", str(ws_dir), *argv])


def test_tokenize_lowercases_and_strips_terminal_punctuation():
    assert tokenize("The condor eats the meat.") == [
        "the", "condor", "eats", "the", "meat"]
    assert tokenize("The big cow eats yellow corn.") == [
        "the", "big", "cow", "eats", "yellow", "corn"]
    assert tokenize("") == []
    assert tokenize("  What?!  ") == ["what"]
    assert tokenize(". , !") == []
    assert tokenize("don't STOP") == ["don't", "stop"]


def test_init_scaffolds_workspace(ws):
    for name in ("workspace.cfg", "lexicon.lg", "noun_hierarchy.txt",
                 "verb_hierarchy.txt", "sample_corpus.txt"):
        assert (ws / name).is_file()
    loaded = load_workspace(ws)
    assert loaded.max_unknowns == 2
    assert loaded.filter_on is True


def test_init_refuses_existing_workspace(ws, capsys):
    assert main(["init", str(ws)]) == 2
    assert "already exists" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["lexicon.lg", "noun_hierarchy.txt",
                                  "verb_hierarchy.txt", "sample_corpus.txt"])
def test_init_refuses_to_overwrite_a_data_file(tmp_path, capsys, name):
    mine = tmp_path / name
    mine.write_bytes(b"mine: (( ) (D))\n")
    assert main(["init", str(tmp_path)]) == 2
    assert capsys.readouterr() == (
        "", "error: cannot initialize %s: already exists: %s\n"
        % (tmp_path, name))
    assert list(tmp_path.iterdir()) == [mine]
    assert mine.read_bytes() == b"mine: (( ) (D))\n"


def test_load_workspace_accepts_config_path(ws):
    direct = load_workspace(ws / "workspace.cfg")
    assert direct == load_workspace(ws)


def test_load_workspace_missing_config(tmp_path):
    with pytest.raises(WorkspaceError):
        load_workspace(tmp_path)


@pytest.mark.parametrize("broken", [
    "lexicon = lexicon.lg",  # missing other required keys
    "nonsense line",
    "lexicon = lexicon.lg\nlexicon = again.lg",
    "unknown_key = 1",
    # keys naming one file, which exists
    "lexicon = workspace.cfg\nnoun_hierarchy = ./workspace.cfg\n"
    "verb_hierarchy = workspace.cfg\nsemlex = s.lg",
])
def test_load_workspace_rejects_bad_config(tmp_path, broken):
    (tmp_path / "workspace.cfg").write_text(broken, encoding="utf-8")
    with pytest.raises(WorkspaceError):
        load_workspace(tmp_path)


def test_load_workspace_validates_option_ranges(ws):
    config = ws / "workspace.cfg"
    text = config.read_text(encoding="utf-8")
    config.write_text(text.replace("max_unknowns = 2", "max_unknowns = -1"),
                      encoding="utf-8")
    with pytest.raises(WorkspaceError):
        load_workspace(ws)
    config.write_text(text.replace("filter_on = true", "filter_on = maybe"),
                      encoding="utf-8")
    with pytest.raises(WorkspaceError):
        load_workspace(ws)
    config.write_text(text.replace("max_unknowns = 2", "max_unknowns = two"),
                      encoding="utf-8")
    with pytest.raises(WorkspaceError,
                       match="^option max_unknowns must be an integer$"):
        load_workspace(ws)


def test_load_workspace_ignores_oracle_cap(ws):
    # workspaces made by earlier versions still carry this option
    config = ws / "workspace.cfg"
    expected = load_workspace(ws)
    config.write_text(config.read_text(encoding="utf-8") + "oracle_cap = 7\n",
                      encoding="utf-8")
    assert load_workspace(ws) == expected
    assert run(ws, "parse", "the condor eats meat") == 0


def test_load_workspace_requires_lexicon_file(ws):
    (ws / "lexicon.lg").unlink()
    with pytest.raises(WorkspaceError):
        load_workspace(ws)


def test_init_on_regular_file_is_usage_error(tmp_path, capsys):
    target = tmp_path / "file"
    target.write_bytes(b"keep\n")
    assert main(["init", str(target)]) == 2
    assert capsys.readouterr().err == "error: cannot create %s: %s\n" % (
        target, os.strerror(errno.EEXIST))
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_bytes() == b"keep\n"


def test_missing_workspace_is_usage_error(tmp_path, capsys):
    assert run(tmp_path / "nowhere", "parse", "the condor eats") == 2
    assert "no workspace configuration" in capsys.readouterr().err


def test_atomic_write_replaces_content(tmp_path):
    target = tmp_path / "file.txt"
    atomic_write(target, "one\n")
    atomic_write(target, "two\n")
    assert target.read_text(encoding="utf-8") == "two\n"
    assert list(tmp_path.iterdir()) == [target]


def test_atomic_write_failing_rename_keeps_the_file_and_no_temp(
        tmp_path, monkeypatch):
    target = tmp_path / "file.txt"
    target.write_bytes(b"one\n")

    def refuse(src, dst):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), dst)

    monkeypatch.setattr(os, "replace", refuse)
    message = "cannot write %s: %s" % (target, os.strerror(errno.EACCES))
    with pytest.raises(WorkspaceError, match="^%s$" % re.escape(message)):
        atomic_write(target, "two\n")
    assert target.read_bytes() == b"one\n"
    assert list(tmp_path.iterdir()) == [target]


@pytest.fixture
def umask_027():
    old = os.umask(0o027)
    yield
    os.umask(old)


def _mode(path):
    return stat.S_IMODE(path.stat().st_mode)


def test_atomic_write_gives_new_files_the_mode_open_would(tmp_path,
                                                          umask_027):
    assert main(["init", str(tmp_path)]) == 0
    for path in tmp_path.iterdir():
        assert _mode(path) == 0o640, path


def test_atomic_write_keeps_the_mode_of_a_replaced_file(tmp_path, umask_027):
    target = tmp_path / "file.txt"
    target.write_text("one\n", encoding="utf-8")
    target.chmod(0o604)
    atomic_write(target, "two\n")
    assert target.read_text(encoding="utf-8") == "two\n"
    assert _mode(target) == 0o604


def test_parse_prints_diagram(ws, capsys):
    assert run(ws, "parse", "The condor eats the meat.") == 0
    out = capsys.readouterr().out
    assert out == (
        "           +---Os---+\n"
        "+Ds-+--Ss--+    +Ds-+\n"
        "|   |      |    |   |\n"
        "the condor eats the meat\n"
    )


def test_parse_prints_records(ws, capsys):
    assert run(ws, "parse", "--records", "the condor eats meat") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "0:the:(( ) (D))"
    assert "link:2:3:Os" in out.splitlines()


def test_parse_all_linkages(ws, capsys):
    (ws / "lexicon.lg").write_text(
        "aa: (( ) (X)) | (( ) (Xs))\nbb: ((X) ( ))\n", encoding="utf-8")
    assert run(ws, "parse", "aa bb") == 0
    first = capsys.readouterr().out
    assert first.startswith("linkage 1 of 2:\n")
    assert run(ws, "parse", "--all-linkages", "aa bb") == 0
    out = capsys.readouterr().out
    assert "linkage 1 of 2:" in out and "linkage 2 of 2:" in out
    assert "+X-+" in out and "+Xs+" in out


def test_flags_do_not_carry_over_to_the_next_call(ws, capsys):
    (ws / "lexicon.lg").write_text(
        (ws / "lexicon.lg").read_text(encoding="utf-8")
        + "aa: (( ) (X)) | (( ) (Xs))\nbb: ((X) ( ))\n", encoding="utf-8")

    def out(*argv):
        assert run(ws, *argv) == 0
        return capsys.readouterr().out

    plain = [("parse", "aa bb"), ("acquire", "the snipe eats meat")]
    before = [out(*argv) for argv in plain]
    flagged = [out("parse", "--all-linkages", "--records", "aa bb"),
               out("acquire", "--no-filter", "the snipe eats meat")]
    after = [out(*argv) for argv in plain]
    assert after == before
    assert all(f != b for f, b in zip(flagged, before))


def test_parse_error_exits(ws, capsys):
    assert run(ws, "parse", "the wug eats") == 1
    assert "wug" in capsys.readouterr().err
    assert run(ws, "parse", "meat eats") == 1
    assert "no valid linkage" in capsys.readouterr().err
    assert run(ws, "parse", "...") == 1
    assert "empty sentence" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["acquire", "classify"])
def test_empty_sentence_exits_1(ws, capsys, command):
    assert run(ws, command, ". , !") == 1
    assert capsys.readouterr() == ("", "error: empty sentence\n")


@pytest.mark.parametrize("command", ["parse", "acquire", "train", "classify"])
def test_undecodable_lexicon_is_usage_error(ws, capsys, command):
    lexicon = ws / "lexicon.lg"
    lexicon.write_bytes(lexicon.read_bytes() + b"\xff\n")
    arg = (str(ws / "sample_corpus.txt") if command == "train"
           else "the snipe eats meat")
    assert run(ws, command, arg) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot read %s: 'utf-8' codec" % lexicon)


def test_acquire_prints_entry(ws, capsys):
    assert run(ws, "acquire", "the snipe eats meat") == 0
    assert capsys.readouterr().out == "snipe: ((D) (Ss))\n"


def _set_option(ws, old, new):
    config = ws / "workspace.cfg"
    text = config.read_text(encoding="utf-8")
    assert old in text
    config.write_text(text.replace(old, new), encoding="utf-8")


def test_acquire_no_filter_keeps_alternatives(ws, capsys):
    assert run(ws, "acquire", "--no-filter", "the snipe eats meat") == 0
    assert capsys.readouterr().out == "snipe: ((D) (Ss)) | ((D) (Os,Ss))\n"
    # the workspace option does what the flag does
    _set_option(ws, "filter_on = true", "filter_on = false")
    assert run(ws, "acquire", "the snipe eats meat") == 0
    assert capsys.readouterr().out == "snipe: ((D) (Ss)) | ((D) (Os,Ss))\n"


def test_acquire_trace_output(ws, capsys):
    assert run(ws, "acquire", "--trace", "the snipe eats meat") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "snipe: ((D) (Ss))"
    assert out[1].startswith("eliminate:3:meat:")
    assert "eliminate:1:snipe:((D) (Os,Ss)):not in lexicon inventory" in out


def test_acquire_trace_of_unlinkable_sentence(ws, capsys):
    error = "error: no valid linkage for 'meat eats the snipe'\n"
    assert run(ws, "acquire", "--trace", "meat eats the snipe") == 1
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert len(out) == 9
    assert out[0] == ("eliminate:0:meat:((A,Ds,Os) ( )):left connector"
                      " unsatisfiable: no words to the left")
    assert out[-1] == "eliminate:2:the:(( ) (D)):word 0 has no disjunct left"
    assert captured.err == error
    assert run(ws, "acquire", "meat eats the snipe") == 1
    assert capsys.readouterr() == ("", error)


def test_acquire_trace_names_disjuncts_never_tried(ws, capsys):
    # both eats disjuncts fail at word 1, so no branch reaches word 2
    assert run(ws, "acquire", "--trace", "the eats cow") == 1
    out = capsys.readouterr().out.splitlines()
    assert out[3:] == [
        "eliminate:0:the:(( ) (D)):ordering conflict",
        "eliminate:1:eats:((Ss) (O)):ordering conflict",
        "eliminate:1:eats:((Ss) ( )):ordering conflict",
        "eliminate:2:cow:((Ds,Os) ( )):not reached",
        "eliminate:2:cow:((Os) ( )):not reached",
        "eliminate:2:cow:((A,Os) ( )):not reached"]


def test_acquire_trace_names_the_word_count_pruning_emptied(ws, capsys):
    assert run(ws, "acquire", "--trace", "the wug eats the meat the") == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("eliminate:5:the:(( ) (D)):right connector"
                      " unsatisfiable: no words to the right")
    assert len(out) == 11
    assert all(line.endswith(":word 5 has no disjunct left")
               for line in out[1:])


def test_acquire_write_is_idempotent(ws, capsys):
    assert run(ws, "acquire", "--write", "the snipe eats meat") == 0
    written = (ws / "lexicon.lg").read_bytes()
    assert b"snipe: ((D) (Ss))" in written
    assert run(ws, "acquire", "--write", "the snipe eats meat") == 0
    assert "no unknown words" in capsys.readouterr().out
    assert (ws / "lexicon.lg").read_bytes() == written
    assert run(ws, "parse", "the snipe eats meat") == 0


def test_acquire_write_rejects_bad_word(ws, capsys):
    before = (ws / "lexicon.lg").read_bytes()
    assert run(ws, "acquire", "--write", "the 3rd eats meat") == 2
    assert "bad word '3rd'" in capsys.readouterr().err
    assert (ws / "lexicon.lg").read_bytes() == before
    assert run(ws, "parse", "the condor eats meat") == 0


@pytest.mark.parametrize("command", ["acquire", "classify"])
def test_bad_unknown_word_is_usage_error(ws, capsys, command):
    assert run(ws, command, "the 3rd eats meat") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: bad word '3rd'\n"


def test_parse_keeps_unknown_word_error_for_bad_word(ws, capsys):
    assert run(ws, "parse", "the 3rd eats meat") == 1
    assert "unknown word '3rd'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["parse", "acquire"])
def test_too_long_sentence_exits_1(ws, capsys, command):
    assert run(ws, command, " ".join(["the"] * 1200)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: sentence of 1200 words exceeds the limit of %d\n"
                   % MAX_SENTENCE_WORDS)


def test_train_reports_line_of_too_long_sentence(ws, capsys):
    corpus = ws / "corpus.txt"
    corpus.write_text("the condor eats meat\n" + "the " * 1200 + "\n",
                      encoding="utf-8")
    assert run(ws, "train", str(corpus)) == 1
    assert capsys.readouterr().err == (
        "error: line 2: sentence of 1200 words exceeds the limit of %d\n"
        % MAX_SENTENCE_WORDS)
    assert not (ws / "semantic_lexicon.lg").exists()


@pytest.mark.parametrize("command", ["parse", "acquire"])
def test_search_past_its_budget_exits_1(ws, capsys, command):
    # 20 words of an ambiguous grammar: the full search is far past the
    # budget, which stops it within seconds
    (ws / "lexicon.lg").write_text(
        "a: (( ) (X)) | (( ) (X,X)) | (( ) ( ))\n"
        "b: ((X) (X)) | ((X) ( )) | ((X,X) ( ))\n"
        "c: ((X) ( )) | (( ) (X)) | ((X) (X))\n", encoding="utf-8")
    start = time.perf_counter()
    assert run(ws, command, " ".join((["a", "b", "c"] * 7)[:20])) == 1
    assert time.perf_counter() - start < 10
    assert capsys.readouterr() == (
        "", "error: linkage search exceeds the limit of %d nodes\n"
        % MAX_SEARCH_NODES)


def test_train_reports_line_past_the_search_budget(ws, capsys, monkeypatch):
    # the first sentence takes 21 search nodes, the second 24
    monkeypatch.setattr("lexacq.linker.MAX_SEARCH_NODES", 21)
    corpus = ws / "corpus.txt"
    corpus.write_text("the condor eats meat\nthe big cow eats yellow corn\n",
                      encoding="utf-8")
    assert run(ws, "train", str(corpus)) == 1
    assert capsys.readouterr().err == (
        "error: line 2: linkage search exceeds the limit of 21 nodes\n")
    assert not (ws / "semantic_lexicon.lg").exists()


def test_train_rejects_overlapping_hierarchies(ws, capsys):
    # classify's case is a row of
    # test_classify_rejects_a_bad_entry_it_does_not_read
    with open(ws / "verb_hierarchy.txt", "a", encoding="utf-8") as fh:
        fh.write("action > meat\naction > cow\n")
    capsys.readouterr()
    assert run(ws, "train", str(ws / "sample_corpus.txt")) == 2
    # the first shared name in sorted order
    assert capsys.readouterr() == ("", "error: %s, %s: 'cow' appears in both"
                                   " hierarchies\n" % (
                                       ws / "noun_hierarchy.txt",
                                       ws / "verb_hierarchy.txt"))
    assert not (ws / "semantic_lexicon.lg").exists()


@pytest.mark.parametrize("command", ["acquire", "classify"])
def test_negative_max_unknowns_is_usage_error(ws, capsys, command):
    with pytest.raises(SystemExit) as info:
        run(ws, command, "--max-unknowns", "-1", "the snipe eats meat")
    assert info.value.code == 2
    assert "--max-unknowns: must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["acquire", "classify"])
def test_max_unknowns_flag_overrides_the_workspace_option(ws, capsys,
                                                          command):
    assert run(ws, "train", str(ws / "sample_corpus.txt")) == 0
    _set_option(ws, "max_unknowns = 2", "max_unknowns = 0")
    capsys.readouterr()
    assert run(ws, command, "the snipe eats meat") == 1
    assert capsys.readouterr() == (
        "", "error: 1 unknown words exceed the cap of 0 (snipe)\n")
    assert run(ws, command, "--max-unknowns", "1", "the snipe eats meat") == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "snipe: ((D) (Ss))" if command == "acquire" else "snipe -> animal")


@pytest.mark.parametrize("command", ["acquire", "classify"])
def test_non_integer_max_unknowns_is_usage_error(ws, capsys, command):
    with pytest.raises(SystemExit) as info:
        run(ws, command, "--max-unknowns", "x", "the snipe eats meat")
    assert info.value.code == 2
    assert "--max-unknowns: invalid int value: 'x'" in capsys.readouterr().err


def test_acquire_error_exits(ws, capsys):
    assert run(ws, "acquire", "wug wug") == 1
    assert "no valid linkage" in capsys.readouterr().err
    assert run(ws, "acquire", "wug zorp blick") == 1
    assert "exceed the cap" in capsys.readouterr().err


def test_train_writes_semantic_lexicon(ws, capsys):
    assert run(ws, "train", str(ws / "sample_corpus.txt")) == 0
    assert "trained on 3 sentence(s)" in capsys.readouterr().out
    text = (ws / "semantic_lexicon.lg").read_text(encoding="utf-8")
    assert ("eats: ((Ss_animal) (O_food)) ;support=2 |"
            " ((Ss_car) (O_gasoline)) ;support=1") in text


def test_train_skips_a_line_of_punctuation_only(ws, capsys):
    corpus = ws / "corpus.txt"
    corpus.write_text("the condor eats meat\n. , !\n", encoding="utf-8")
    assert run(ws, "train", str(corpus)) == 0
    assert "trained on 1 sentence(s)" in capsys.readouterr().out


def test_train_aborts_on_unknown_word(ws, capsys):
    corpus = ws / "corpus.txt"
    corpus.write_text("# comment\nthe condor eats meat\nthe snipe eats meat\n",
                      encoding="utf-8")
    assert run(ws, "train", str(corpus)) == 1
    assert capsys.readouterr().err == (
        "error: line 3: unknown word 'snipe' (train requires fully known"
        " sentences)\n")
    assert not (ws / "semantic_lexicon.lg").exists()


def test_train_aborts_on_unparseable_line(ws, capsys):
    corpus = ws / "corpus.txt"
    corpus.write_text("meat eats\n", encoding="utf-8")
    assert run(ws, "train", str(corpus)) == 1
    assert "line 1" in capsys.readouterr().err
    assert not (ws / "semantic_lexicon.lg").exists()


def test_train_missing_corpus(ws, capsys):
    assert run(ws, "train", str(ws / "absent.txt")) == 2
    assert capsys.readouterr().err == "error: cannot read %s: %s\n" % (
        ws / "absent.txt", os.strerror(errno.ENOENT))


def test_train_undecodable_corpus_is_usage_error(ws, capsys):
    corpus = ws / "corpus.txt"
    corpus.write_bytes(b"the condor eats meat\n\xff\n")
    assert run(ws, "train", str(corpus)) == 2
    assert capsys.readouterr().err.startswith(
        "error: cannot read %s: 'utf-8' codec" % corpus)
    assert not (ws / "semantic_lexicon.lg").exists()


def test_train_unwritable_semlex_is_usage_error(ws, capsys):
    config = ws / "workspace.cfg"
    config.write_text(
        config.read_text(encoding="utf-8").replace(
            "semlex = semantic_lexicon.lg", "semlex = nodir/s.lg"),
        encoding="utf-8")
    before = {p: p.read_bytes() for p in ws.iterdir()}
    assert run(ws, "train", str(ws / "sample_corpus.txt")) == 2
    assert capsys.readouterr().err == "error: cannot write %s: %s\n" % (
        ws / "nodir" / "s.lg", os.strerror(errno.ENOENT))
    assert {p: p.read_bytes() for p in ws.iterdir()} == before


def test_train_refuses_a_semlex_that_is_the_lexicon(ws, capsys):
    # a lexicon written one word per line also reads as a tagged lexicon
    assert run(ws, "acquire", "--write", "the snipe eats meat") == 0
    config = ws / "workspace.cfg"
    config.write_text(
        config.read_text(encoding="utf-8").replace(
            "semlex = semantic_lexicon.lg", "semlex = lexicon.lg"),
        encoding="utf-8")
    lexicon = (ws / "lexicon.lg").read_bytes()
    capsys.readouterr()
    assert run(ws, "train", str(ws / "sample_corpus.txt")) == 2
    assert capsys.readouterr() == (
        "", "error: %s: options 'lexicon' and 'semlex' name the same file"
        " %s\n" % (config, ws / "lexicon.lg"))
    assert (ws / "lexicon.lg").read_bytes() == lexicon


def _link_to_shared(ws, name):
    """Move the workspace file name to a sibling directory and leave a
    relative symlink to it; returns the moved file."""
    shared = ws.parent / "shared"
    shared.mkdir()
    target = shared / name
    (ws / name).rename(target)
    (ws / name).symlink_to(Path("..", "shared", name))
    return target


def test_acquire_write_updates_a_symlinked_lexicon(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert main(["init", str(ws)]) == 0
    target = _link_to_shared(ws, "lexicon.lg")
    assert run(ws, "acquire", "--write", "the snipe eats meat") == 0
    assert (ws / "lexicon.lg").is_symlink()
    assert b"snipe: ((D) (Ss))" in target.read_bytes()
    assert sorted(p.name for p in target.parent.iterdir()) == ["lexicon.lg"]


def test_train_updates_a_symlinked_semlex(tmp_path, capsys):
    ws = tmp_path / "ws"
    assert main(["init", str(ws)]) == 0
    (ws / "semantic_lexicon.lg").write_text("", encoding="utf-8")
    target = _link_to_shared(ws, "semantic_lexicon.lg")
    assert run(ws, "train", str(ws / "sample_corpus.txt")) == 0
    assert (ws / "semantic_lexicon.lg").is_symlink()
    assert b"eats: ((Ss_animal) (O_food))" in target.read_bytes()


def test_train_refuses_a_semlex_that_links_to_the_lexicon(ws, capsys):
    (ws / "semlink.lg").symlink_to("lexicon.lg")
    _set_option(ws, "semlex = semantic_lexicon.lg", "semlex = semlink.lg")
    before = {p: p.read_bytes() for p in ws.iterdir()}
    assert run(ws, "train", str(ws / "sample_corpus.txt")) == 2
    assert capsys.readouterr() == (
        "", "error: %s: options 'lexicon' and 'semlex' name the same file"
        " %s\n" % (ws / "workspace.cfg", ws / "semlink.lg"))
    assert {p: p.read_bytes() for p in ws.iterdir()} == before


def test_classify_after_training(ws, capsys):
    assert run(ws, "train", str(ws / "sample_corpus.txt")) == 0
    capsys.readouterr()
    assert run(ws, "classify", "The snipe eats meat.") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "snipe -> animal"
    assert out[1] == "  evidence: eats ((Ss_animal) (O_food)) where meat is food"
    assert run(ws, "classify", "the snipe eats gasoline") == 0
    assert capsys.readouterr().out.splitlines()[0] == "snipe -> car"


def test_commands_do_not_recheck_the_observations_they_build(
        ws, capsys, monkeypatch):
    """Observations tagged, read, pooled or merged by the program are
    built without the public constructor's checks."""
    checked = []
    monkeypatch.setattr(TaggedDisjunct, "__post_init__",
                        lambda self: checked.append(self))
    corpus = str(ws / "sample_corpus.txt")
    counts = []
    for argv in (["train", corpus], ["train", corpus],
                 ["classify", "the wug eats corn"],
                 ["classify", "the car eats wug"]):
        assert run(ws, *argv) == 0
        counts.append(len(checked))
        checked.clear()
    capsys.readouterr()
    assert counts == [0, 0, 0, 0]


def test_classify_requires_one_unknown(ws, capsys):
    assert run(ws, "classify", "the condor eats meat") == 1
    assert "exactly one unknown" in capsys.readouterr().err
    assert run(ws, "classify", "the wug eats the zorp") == 1


def test_classify_without_training_data(ws, capsys):
    assert run(ws, "classify", "the snipe eats meat") == 1
    assert "tagged usages" in capsys.readouterr().err


@pytest.mark.parametrize("verbs, entry, message", [
    ("", "zebra: ((Ds) (Ss_unicorn))", "tag 'unicorn' is in neither hierarchy"),
    ("action > cow\n", "zebra: ((Ds) (Ss_cow))",
     "'cow' appears in both hierarchies"),
    ("", "zebra: ((Ds) (Ss_animal)) ;support=0", "bad support count '0'"),
    ("", "meat: ((Os) ( ))", "duplicate entry for 'meat'"),
    # past the interpreter's default int digit limit of 4,300
    pytest.param("", "zebra: ((Ds) (Ss_animal)) ;support=" + "9" * 5000,
                 "support count of 5000 digits is too long",
                 id="overlong support count"),
])
def test_classify_rejects_a_bad_entry_it_does_not_read(ws, capsys, verbs,
                                                       entry, message):
    # "the wug eats corn" reads only the entry of eats
    assert run(ws, "train", str(ws / "sample_corpus.txt")) == 0
    with open(ws / "verb_hierarchy.txt", "a", encoding="utf-8") as fh:
        fh.write(verbs)
    semlex = ws / "semantic_lexicon.lg"
    lines = semlex.read_text(encoding="utf-8").count("\n")
    with open(semlex, "a", encoding="utf-8") as fh:
        fh.write(entry + "\n")
    capsys.readouterr()
    assert run(ws, "classify", "the wug eats corn") == 2
    # a name in both hierarchies is caught as they load, before the
    # semantic lexicon is read, and the error names both files
    where = ("%s, %s" % (ws / "noun_hierarchy.txt", ws / "verb_hierarchy.txt")
             if verbs else "%s: line %d" % (semlex, lines + 1))
    assert capsys.readouterr() == ("", "error: %s: %s\n" % (where, message))


@pytest.mark.parametrize("name, text, message", [
    ("lexicon.lg", "the: (( ) (D)\n", "line 1: unexpected end of input"),
    ("noun_hierarchy.txt", "thing > animal\r\nanimal bird\n",
     "line 2: expected 'parent > child'"),
    ("verb_hierarchy.txt", "# no edges\n", "empty hierarchy"),
    ("semantic_lexicon.lg", "eats: ((Ss) (O))\nmeat: ((Os_unicorn) ( ))\n",
     "line 2: tag 'unicorn' is in neither hierarchy"),
])
@pytest.mark.parametrize("command", ["train", "classify"])
def test_a_malformed_workspace_file_is_named(ws, capsys, name, text,
                                             message, command):
    (ws / name).write_text(text, encoding="utf-8")
    arg = (str(ws / "sample_corpus.txt") if command == "train"
           else "the wug eats corn")
    capsys.readouterr()
    assert run(ws, command, arg) == 2
    assert capsys.readouterr() == (
        "", "error: %s: %s\n" % (ws / name, message))


def test_usage_error_exit_code(ws):
    with pytest.raises(SystemExit) as info:
        main(["bogus-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["-w", str(ws), "parse", "--records", "--diagram", "x"])
    assert info.value.code == 2


# --- fuzzing through main ------------------------------------------------------

_FUZZ_WORDS = ("aa", "bb", "cc", "dd")
_FUZZ_CONNECTORS = st.builds(lambda base, sub: base + sub,
                             st.sampled_from("AB"), st.sampled_from(["", "s"]))
_FUZZ_SIDES = st.lists(_FUZZ_CONNECTORS, max_size=2).map(
    lambda cs: "(%s)" % ",".join(cs) if cs else "( )")
_FUZZ_ENTRIES = st.lists(st.builds("({} {})".format, _FUZZ_SIDES, _FUZZ_SIDES),
                         min_size=1, max_size=3).map(" | ".join)
# mostly well-formed entries, now and then a line of anything the reader
# may meet
_FUZZ_LEXICONS = st.builds(
    lambda entries, junk: "\n".join(
        ["%s: %s" % item for item in entries.items()] + junk),
    st.dictionaries(st.sampled_from(_FUZZ_WORDS), _FUZZ_ENTRIES, max_size=4),
    st.sampled_from([0, 0, 0, 1]).flatmap(lambda junk: st.lists(
        st.text(alphabet="aA:,|() #\n_;=1\xe9", max_size=12),
        min_size=junk, max_size=junk)))
_FUZZ_SENTENCES = st.lists(
    st.sampled_from(_FUZZ_WORDS * 3 + ("wug", "zorp", "3rd", ".")),
    max_size=6).map(" ".join)


@settings(max_examples=80, deadline=None)
@given(lexicon=_FUZZ_LEXICONS, sentence=_FUZZ_SENTENCES)
def test_fuzzed_commands_exit_with_a_documented_code(lexicon, sentence):
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["init", tmp]) == 0
            lexicon_path = ws / "lexicon.lg"
            lexicon_path.write_text(lexicon, encoding="utf-8")
            corpus = ws / "corpus.txt"
            corpus.write_text(sentence + "\n", encoding="utf-8")
            for argv in (["parse", sentence], ["acquire", "--trace", sentence],
                         ["train", str(corpus)], ["classify", sentence]):
                assert run(ws, *argv) in (0, 1, 2)
            if run(ws, "acquire", "--write", sentence) != 0:
                return
            written = lexicon_path.read_bytes()
            parse_lexicon(written.decode("utf-8"))
            assert run(ws, "acquire", "--write", sentence) == 0
            assert lexicon_path.read_bytes() == written


# the sample data's names, lexicon words among them, for each hierarchy
_NOUN_NAMES = ("thing", "animal", "food", "cow", "meat", "corn", "condor",
               "car", "gasoline", "the", "big")
_VERB_NAMES = ("action", "consume", "eats", "wug")
_MALFORMED_LINES = ("thing", "thing > ", "> cow", "Thing > cow",
                    "thing > 3rd", "thing > cow > meat", "thing > thing",
                    "# a comment", "")


@st.composite
def _hierarchy_texts(draw, own, other):
    """A random tree over own names, now and then with one of the other
    hierarchy's names or a malformed line put in."""
    names = draw(st.lists(st.sampled_from(own), min_size=1, max_size=8,
                          unique=True))
    shared = draw(st.sampled_from(other))
    if draw(st.integers(0, 3)) == 0:
        names.insert(draw(st.integers(0, len(names))), shared)
    lines = ["%s > %s" % (draw(st.sampled_from(names[:i])), child)
             for i, child in enumerate(names[1:], start=1)]
    if not lines:
        lines.append("%s > %s" % (names[0], names[0] + "s"))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(_MALFORMED_LINES)))
    return "\n".join(lines) + "\n"


_HIERARCHY_PAIRS = st.none() | st.tuples(
    _hierarchy_texts(_NOUN_NAMES, _VERB_NAMES),
    _hierarchy_texts(_VERB_NAMES, _NOUN_NAMES))


@settings(max_examples=80, deadline=None)
@given(trained=_HIERARCHY_PAIRS, edited=_HIERARCHY_PAIRS)
def test_fuzzed_hierarchies_exit_with_a_documented_code(trained, edited):
    """train, then classify, on random hierarchies; `edited` replaces them
    between the two, so that trained tags may no longer resolve.  None
    leaves the hierarchies as they are, the sample ones at first."""
    with tempfile.TemporaryDirectory() as tmp:
        ws = Path(tmp)

        def write(hierarchies):
            for name, text in zip(("noun_hierarchy.txt", "verb_hierarchy.txt"),
                                  hierarchies or ()):
                (ws / name).write_text(text, encoding="utf-8")

        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["init", tmp]) == 0
            write(trained)
            assert run(ws, "train", str(ws / "sample_corpus.txt")) in (0, 1, 2)
            write(edited)
            assert run(ws, "classify", "the wug eats corn") in (0, 1, 2)
