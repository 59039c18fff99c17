"""Command-line front-end: tokenization, workspace files, command dispatch.

A workspace is a directory with a flat key=value configuration file
(``workspace.cfg``) naming the lexicon, the two concept-hierarchy files,
and the semantic lexicon, plus option defaults.  Paths are resolved
relative to the configuration file; environment variables are never
consulted.  All file writes are atomic (write to a temp file beside the
file a path names, through any symlinks, then rename it over that file).

Exit codes: 0 success, 1 invalid sentence or corpus line, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import importlib.resources
import os
import stat
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .lexicon import Lexicon, LexiconError, parse_lexicon, serialize_lexicon
from .linker import (
    SearchBudgetError,
    SentenceTooLongError,
    UnknownWordError,
    linkage_records,
    parse,
    render_diagram,
)
from .semantics import (
    ConceptHierarchies,
    ConceptHierarchy,
    HierarchyError,
    NoSemanticEvidenceError,
    SemanticLexicon,
    UnknownCountError,
    _tagged_words,
    classify_unknown,
    generalize,
    parse_semlex,
    serialize_semlex,
)
from .syntax import NoSolutionError, TooManyUnknownsError, acquire_syntax, render_trace

CONFIG_NAME = "workspace.cfg"

_PATH_KEYS = ("lexicon", "noun_hierarchy", "verb_hierarchy", "semlex")
_DATA_FILES = {
    "lexicon.lg": "sample_lexicon.lg",
    "noun_hierarchy.txt": "noun_hierarchy.txt",
    "verb_hierarchy.txt": "verb_hierarchy.txt",
    "sample_corpus.txt": "sample_corpus.txt",
}


class WorkspaceError(ValueError):
    """Raised when the workspace configuration or its files are unusable."""


class EmptySentenceError(ValueError):
    """The sentence argument has no words once tokenized."""


@dataclass
class Workspace:
    """Resolved workspace file locations and option defaults."""

    lexicon_path: Path
    noun_hierarchy_path: Path
    verb_hierarchy_path: Path
    semlex_path: Path
    max_unknowns: int = 2
    filter_on: bool = True

    def load_lexicon(self) -> Lexicon:
        return _load(self.lexicon_path, parse_lexicon)

    def load_hierarchies(self) -> ConceptHierarchies:
        """The two hierarchies; a name in both is an error naming both
        files."""
        nouns = _load(self.noun_hierarchy_path, ConceptHierarchy.parse, "noun")
        verbs = _load(self.verb_hierarchy_path, ConceptHierarchy.parse, "verb")
        shared = nouns.nodes() & verbs.nodes()
        if shared:
            raise WorkspaceError("%s, %s: %r appears in both hierarchies" % (
                self.noun_hierarchy_path, self.verb_hierarchy_path,
                min(shared)))
        return ConceptHierarchies(nouns, verbs)

    def load_semlex(self, hiers: ConceptHierarchies) -> SemanticLexicon:
        # The semantic lexicon starts empty; train creates the file.
        if not self.semlex_path.exists():
            return SemanticLexicon()
        return _load(self.semlex_path, parse_semlex, hiers)


def _file_error(action: str, path: Path, exc: Exception) -> WorkspaceError:
    """`cannot ACTION PATH: reason`.  An OSError's own text names a file
    again, a temp file's for atomic_write, so only its strerror is kept."""
    reason = getattr(exc, "strerror", None) or exc
    return WorkspaceError("cannot %s %s: %s" % (action, path, reason))


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _file_error("read", path, exc) from exc


def _load(path: Path, reader, *args):
    """reader(text of path, *args); a malformed file's error names it."""
    text = _read(path)
    try:
        return reader(text, *args)
    except (LexiconError, HierarchyError) as exc:
        raise WorkspaceError("%s: %s" % (path, exc)) from exc


def _file_mode(path: Path) -> int:
    """The mode of path if it exists, else the one open() would give it."""
    try:
        return stat.S_IMODE(path.stat().st_mode)
    except FileNotFoundError:
        umask = os.umask(0)  # the only way to read it is to set it
        os.umask(umask)
        return 0o666 & ~umask


def atomic_write(path: Path, text: str) -> None:
    """Write text to the file path names, through any symlinks, via a temp
    file beside that file and a rename, so a symlink stays a symlink; the
    file keeps its mode, or gets the one open() would give a new file.
    Raises WorkspaceError, leaving the file as it was, when it cannot be
    written."""
    try:
        target = Path(os.path.realpath(path))
        mode = _file_mode(target)
        fd, tmp = tempfile.mkstemp(dir=str(target.parent),
                                   prefix=target.name + ".")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.chmod(tmp, mode)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise _file_error("write", path, exc) from exc


def _parse_bool(value: str, key: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise WorkspaceError("option %s must be true or false, got %r" % (key, value))


def load_workspace(location: str | os.PathLike) -> Workspace:
    """Read a workspace configuration file (or directory containing one)."""
    path = Path(location)
    if path.is_dir():
        path = path / CONFIG_NAME
    if not path.is_file():
        raise WorkspaceError(
            "no workspace configuration at %s (run 'lexacq init' first)" % path
        )
    base = path.parent
    values: dict[str, str] = {}
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise WorkspaceError("%s line %d: expected key=value" % (path, lineno))
        key, value = key.strip(), value.strip()
        if key in values:
            raise WorkspaceError("%s line %d: duplicate key %r" % (path, lineno, key))
        values[key] = value

    # oracle_cap is in workspaces made by earlier versions; it is ignored
    known = set(_PATH_KEYS) | {"max_unknowns", "filter_on", "oracle_cap"}
    for key in values:
        if key not in known:
            raise WorkspaceError("%s: unknown option %r" % (path, key))
    for key in _PATH_KEYS:
        if key not in values:
            raise WorkspaceError("%s: missing required option %r" % (path, key))
    # train writes semlex: a file named twice, also through a symlink,
    # could be overwritten as the wrong kind, and later commands could no
    # longer read it
    named: dict[str, str] = {}
    for key in _PATH_KEYS:
        real = os.path.realpath(base / values[key])
        if real in named:
            raise WorkspaceError("%s: options %r and %r name the same file %s"
                                 % (path, named[real], key,
                                    os.path.normpath(base / values[key])))
        named[real] = key

    max_unknowns = 2
    if "max_unknowns" in values:
        try:
            max_unknowns = int(values["max_unknowns"])
        except ValueError:
            raise WorkspaceError(
                "option max_unknowns must be an integer") from None
        if max_unknowns < 0:
            raise WorkspaceError("option max_unknowns must be >= 0")

    ws = Workspace(
        lexicon_path=base / values["lexicon"],
        noun_hierarchy_path=base / values["noun_hierarchy"],
        verb_hierarchy_path=base / values["verb_hierarchy"],
        semlex_path=base / values["semlex"],
        max_unknowns=max_unknowns,
        filter_on=_parse_bool(values["filter_on"], "filter_on")
        if "filter_on" in values
        else True,
    )
    for attr in ("lexicon_path", "noun_hierarchy_path", "verb_hierarchy_path"):
        target = getattr(ws, attr)
        if not target.is_file():
            raise WorkspaceError("workspace file missing: %s" % target)
    return ws


def _cap(value: str) -> int:
    """argparse type for --max-unknowns: a non-negative integer."""
    try:
        cap = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % value) from None
    if cap < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % cap)
    return cap


def tokenize(line: str) -> list[str]:
    """Lowercase, split on whitespace, strip terminal .,!? and drop empties."""
    tokens = []
    for raw in line.lower().split():
        token = raw.rstrip(".,!?")
        if token:
            tokens.append(token)
    return tokens


# --- commands ----------------------------------------------------------------


def cmd_init(args: argparse.Namespace) -> int:
    """Scaffold a workspace directory with the sample data files."""
    target = Path(args.directory)
    try:
        target.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _file_error("create", target, exc) from exc
    existing = [name for name in (CONFIG_NAME, *_DATA_FILES)
                if (target / name).exists()]
    if existing:
        raise WorkspaceError("cannot initialize %s: already exists: %s"
                             % (target, ", ".join(existing)))
    config = target / CONFIG_NAME
    data = importlib.resources.files("lexacq") / "data"
    for name, source in _DATA_FILES.items():
        atomic_write(target / name, (data / source).read_text(encoding="utf-8"))
    atomic_write(
        config,
        "# Workspace configuration: key=value, paths relative to this file.\n"
        "lexicon = lexicon.lg\n"
        "noun_hierarchy = noun_hierarchy.txt\n"
        "verb_hierarchy = verb_hierarchy.txt\n"
        "semlex = semantic_lexicon.lg\n"
        "max_unknowns = 2\n"
        "filter_on = true\n",
    )
    print("initialized workspace in %s" % target)
    return 0


def _render(linkage, records: bool) -> str:
    return linkage_records(linkage) if records else render_diagram(linkage)


def _load_sentence(args: argparse.Namespace):
    """The workspace, its lexicon and the sentence argument's words.
    Raises EmptySentenceError when there are no words."""
    ws = load_workspace(args.workspace)
    lexicon = ws.load_lexicon()
    words = tokenize(args.sentence)
    if not words:
        raise EmptySentenceError("empty sentence")
    return ws, lexicon, words


def _search_options(args: argparse.Namespace, ws: Workspace) -> dict:
    """acquire_syntax's keywords: the command's flags over the workspace
    defaults."""
    return {
        "max_unknowns": ws.max_unknowns if args.max_unknowns is None
        else args.max_unknowns,
        "filter_on": ws.filter_on and not args.no_filter,
    }


def cmd_parse(args: argparse.Namespace) -> int:
    _, lexicon, words = _load_sentence(args)
    linkages = parse(words, lexicon)
    if not linkages:
        print("error: no valid linkage", file=sys.stderr)
        return 1
    shown = linkages if args.all_linkages else linkages[:1]
    for i, linkage in enumerate(shown, start=1):
        if len(linkages) > 1:
            print("linkage %d of %d:" % (i, len(linkages)))
        print(_render(linkage, args.records))
        if i < len(shown):
            print()
    return 0


def cmd_acquire(args: argparse.Namespace) -> int:
    ws, lexicon, words = _load_sentence(args)
    try:
        result = acquire_syntax(words, lexicon, **_search_options(args, ws))
    except NoSolutionError as exc:
        if args.trace and exc.trace:
            print(render_trace(exc.trace))
        raise
    entries = result.acquired_entries()
    if not entries:
        print("no unknown words; sentence parses")
    for word, disjuncts in entries.items():
        print("%s: %s" % (word, " | ".join(str(d) for d in disjuncts)))
    if result.novel and entries:
        print("note: hypotheses are novel (no inventory disjunct matches)")
    if args.trace:
        rendered = render_trace(result.trace)
        if rendered:
            print(rendered)
    if args.write and entries:
        updated = lexicon
        for word, disjuncts in entries.items():
            updated = updated.add(word, disjuncts)
        atomic_write(ws.lexicon_path, serialize_lexicon(updated))
        print("lexicon updated: %s" % ws.lexicon_path)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    ws = load_workspace(args.workspace)
    lexicon = ws.load_lexicon()
    hiers = ws.load_hierarchies()
    semlex = ws.load_semlex(hiers)
    corpus = _read(Path(args.corpus))
    observed = []  # (word, observation) pairs of the whole corpus
    trained = 0
    for lineno, raw in enumerate(corpus.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        words = tokenize(line)
        if not words:
            continue
        try:
            linkages = parse(words, lexicon)
        except UnknownWordError as exc:
            print(
                "error: line %d: unknown word %r (train requires fully known"
                " sentences)" % (lineno, exc.word),
                file=sys.stderr,
            )
            return 1
        except (SentenceTooLongError, SearchBudgetError) as exc:
            print("error: line %d: %s" % (lineno, exc), file=sys.stderr)
            return 1
        if not linkages:
            print("error: line %d: no valid linkage" % lineno, file=sys.stderr)
            return 1
        observed.extend(_tagged_words(linkages[0], hiers))
        trained += 1
    semlex = generalize(semlex._observed(observed), hiers)
    atomic_write(ws.semlex_path, serialize_semlex(semlex))
    print(
        "trained on %d sentence(s); semantic lexicon has %d word(s): %s"
        % (trained, len(semlex), ws.semlex_path)
    )
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    ws, lexicon, words = _load_sentence(args)
    hiers = ws.load_hierarchies()
    semlex = ws.load_semlex(hiers)
    results = classify_unknown(words, lexicon, semlex, hiers,
                               **_search_options(args, ws))
    target = next(w for w in words if w not in lexicon)
    for concept, evidence in results:
        print("%s -> %s" % (target, concept))
        line = "  evidence: %s %s" % (evidence.word, evidence.usage)
        if evidence.facts:
            line += " where " + ", ".join(
                "%s is %s" % (filler, tag) for filler, tag in evidence.facts
            )
        print(line)
    return 0


# --- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexacq",
        description="Linkage parser with unknown-word lexical acquisition.",
    )
    parser.add_argument(
        "-w",
        "--workspace",
        default=CONFIG_NAME,
        help="workspace config file or directory (default: ./%s)" % CONFIG_NAME,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="scaffold a workspace with sample data")
    p_init.add_argument("directory")
    p_init.set_defaults(func=cmd_init)

    p_parse = sub.add_parser("parse", help="parse a fully known sentence")
    p_parse.add_argument("sentence")
    p_parse.add_argument("--all-linkages", action="store_true")
    fmt = p_parse.add_mutually_exclusive_group()
    fmt.add_argument("--diagram", dest="records", action="store_false")
    fmt.add_argument("--records", dest="records", action="store_true")
    p_parse.set_defaults(func=cmd_parse, records=False)

    p_acq = sub.add_parser("acquire", help="infer disjuncts for unknown words")
    p_acq.add_argument("sentence")
    p_acq.add_argument("--no-filter", action="store_true")
    p_acq.add_argument("--max-unknowns", type=_cap, default=None)
    p_acq.add_argument("--trace", action="store_true")
    p_acq.add_argument("--write", action="store_true")
    p_acq.set_defaults(func=cmd_acquire)

    p_train = sub.add_parser("train", help="tag a corpus of known sentences")
    p_train.add_argument("corpus")
    p_train.set_defaults(func=cmd_train)

    p_cls = sub.add_parser("classify", help="classify one unknown word")
    p_cls.add_argument("sentence")
    p_cls.add_argument("--no-filter", action="store_true")
    p_cls.add_argument("--max-unknowns", type=_cap, default=None)
    p_cls.set_defaults(func=cmd_classify)
    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (EmptySentenceError, UnknownWordError, SentenceTooLongError,
            SearchBudgetError, NoSolutionError, TooManyUnknownsError,
            NoSemanticEvidenceError, UnknownCountError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (WorkspaceError, LexiconError, HierarchyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
