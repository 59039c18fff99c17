"""The three benchmark workloads, one per hot layer.

A workload generates its inputs from a seed (`__init__`, which may write
files under `workdir`), loads what the program needs before the first
timed op (`load`), restores its starting state before each pass over its
fixed op set (`reset`), runs one op (`run`, the only timed call), and
afterwards renders an op's output in canonical form (`canonical`) and
checks it (`check`).  Ops call the program through module attributes, so
the traced run's wrappers see every call.

Expected verdicts are returned, not raised: `NoSolutionError` from an
acquisition, and exit 1 from `classify` when no linked word has tagged
usages.  Anything else raised counts as a failed op.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
from pathlib import Path

import generators as gen
from lexacq import cli, lexicon, linker, semantics, syntax

NO_SOLUTION = "no-solution"
NO_EVIDENCE = "no linked word has tagged usages"

SIZES = {
    "ambiguous": {
        "full": {"count": 400, "parse_len": 9, "acquire_len": 7},
        "tiny": {"count": 8, "parse_len": 6, "acquire_len": 5},
    },
    "acquire-grow": {
        "full": {"nouns": 500, "adjs": 60, "verbs": 60, "rounds": 1},
        "tiny": {"nouns": 40, "adjs": 4, "verbs": 4, "rounds": 1},
    },
    "train-classify": {
        "full": {"categories": 5, "subcats": 4, "leaves": 10, "verb_cats": 2,
                 "verbs_per_cat": 3, "adjs": 20, "rounds": 20, "chunk": 30,
                 "classify": 4},
        "tiny": {"categories": 3, "subcats": 2, "leaves": 3, "verb_cats": 2,
                 "verbs_per_cat": 2, "adjs": 3, "rounds": 2, "chunk": 6,
                 "classify": 3},
    },
}


def _links(linkage) -> str:
    return " ".join("%d-%d:%s" % (l.left, l.right, l.label)
                    for l in linkage.links)


def _acquisition_text(result) -> str:
    entries = result.acquired_entries()
    lines = ["%s: %s" % (w, " | ".join(str(d) for d in ds))
             for w, ds in entries.items()]
    lines.append("novel=%s joints=%d" % (result.novel, len(result.joints)))
    lines.extend("witness %s" % _links(l) for l in result.linkages)
    lines.append(syntax.render_trace(result.trace))
    return "\n".join(lines)


def _acquisition_problems(words, result, lex) -> list[str]:
    """Witnesses must validate, and every surviving joint of hypotheses
    must re-parse once its words are added to the lexicon."""
    problems = []
    for linkage in result.linkages:
        if linker.validate(linkage):
            problems.append("witness fails validate")
    for joint in result.joints:
        extended = lex
        for p, h in joint.items():
            extended = extended.add(words[p], (h,))
        if not linker.parse(words, extended):
            problems.append("joint %s does not re-parse"
                            % {words[p]: str(h) for p, h in joint.items()})
    for p in result.unknown_positions:
        if not result.hypotheses[p]:
            problems.append("no hypothesis for %s" % words[p])
    return problems


class Ambiguous:
    """Sentences of the 3-word a/b/c grammar: nearly all the time is the
    linkage search.  Half are parsed; half carry one unknown word and go
    through acquisition, where many have no solution."""

    name = "ambiguous"

    def __init__(self, seed: int, size: str, workdir: str):
        cfg = SIZES[self.name][size]
        self.ops = gen.abc_sentences(seed, cfg["count"], cfg["parse_len"],
                                     cfg["acquire_len"])
        self.mix = {"parsed": 0, "known": 0, "acquired": 0, "unknown": 0,
                    "joints": 0}

    def load(self) -> None:
        self.lex = lexicon.parse_lexicon(gen.ABC_LEXICON)

    def reset(self) -> None:
        pass

    def run(self, op):
        words, pos = op
        if pos is None:
            return linker.parse(words, self.lex)
        try:
            return syntax.acquire_syntax(words, self.lex)
        except syntax.NoSolutionError:
            return NO_SOLUTION

    def canonical(self, op, out) -> str:
        words, pos = op
        head = " ".join(words) + "\n"
        if pos is None:
            return head + "linkages=%d\n" % len(out) + "\n".join(
                _links(l) for l in out)
        if out is NO_SOLUTION:
            return head + NO_SOLUTION
        return head + _acquisition_text(out)

    def check(self, op, out) -> list[str]:
        words, pos = op
        if pos is None:
            self.mix["known"] += 1
            self.mix["parsed"] += bool(out)
            return ["linkage fails validate" for l in out
                    if linker.validate(l)]
        self.mix["unknown"] += 1
        if out is NO_SOLUTION:
            return []
        self.mix["acquired"] += 1
        self.mix["joints"] += len(out.joints)
        return _acquisition_problems(words, out, self.lex)

    def shares(self) -> dict:
        m = self.mix
        return {
            "known_that_parse": m["parsed"] / max(m["known"], 1),
            "unknown_that_acquire": m["acquired"] / max(m["unknown"], 1),
            "joints_per_acquisition": m["joints"] / max(m["acquired"], 1),
        }

    def lexicon_words(self) -> int:
        return len(self.lex)

    def close(self) -> None:
        pass


class AcquireGrow:
    """Short sentences with one or two unknowns over a large lexicon with
    few distinct disjuncts; each result is merged back, so the lexicon
    grows while it is read."""

    name = "acquire-grow"

    def __init__(self, seed: int, size: str, workdir: str):
        cfg = SIZES[self.name][size]
        self.text, classes, names = gen.scaled_lexicon(
            seed, cfg["nouns"], cfg["adjs"], cfg["verbs"])
        self.ops = gen.grow_sentences(names, classes, cfg["rounds"])
        self.mix = {"acquisitions": 0, "two_unknowns": 0, "solved": 0,
                    "joints": 0}

    def load(self) -> None:
        self.initial = lexicon.parse_lexicon(self.text)

    def reset(self) -> None:
        self.lex = self.initial

    def run(self, op):
        before = self.lex
        try:
            result = syntax.acquire_syntax(op, before)
        except syntax.NoSolutionError:
            return before, NO_SOLUTION
        lex = before
        for word, disjuncts in result.acquired_entries().items():
            lex = lex.add(word, disjuncts)
        self.lex = lex
        return before, result

    def canonical(self, op, out) -> str:
        _, result = out
        head = " ".join(op) + "\n"
        if result is NO_SOLUTION:
            return head + NO_SOLUTION
        return head + _acquisition_text(result)

    def check(self, op, out) -> list[str]:
        before, result = out
        self.mix["acquisitions"] += 1
        self.mix["two_unknowns"] += sum(w not in before for w in op) == 2
        if result is NO_SOLUTION:
            return []
        self.mix["solved"] += 1
        self.mix["joints"] += len(result.joints)
        return _acquisition_problems(op, result, before)

    def shares(self) -> dict:
        m = self.mix
        return {
            "two_unknowns": m["two_unknowns"] / max(m["acquisitions"], 1),
            "solved": m["solved"] / max(m["acquisitions"], 1),
            "joints_per_acquisition": m["joints"] / max(m["solved"], 1),
        }

    def lexicon_words(self) -> int:
        return len(self.lex)

    def close(self) -> None:
        pass


class TrainClassify:
    """The CLI in process on a generated workspace: each round trains on
    the next corpus chunk (a read-modify-write of the semantic lexicon),
    then classifies a batch of sentences with one unknown noun, each of
    which re-reads the lexicon, the hierarchies and the semantic lexicon."""

    name = "train-classify"

    def __init__(self, seed: int, size: str, workdir: str):
        cfg = SIZES[self.name][size]
        world = gen.semantic_world(
            seed, cfg["categories"], cfg["subcats"], cfg["leaves"],
            cfg["verb_cats"], cfg["verbs_per_cat"], cfg["adjs"])
        self.world = world
        self.chunks = gen.corpus_chunks(world, cfg["rounds"], cfg["chunk"])
        self.dir = Path(tempfile.mkdtemp(prefix="train-classify.",
                                         dir=workdir))
        self.ops = []
        for r, chunk in enumerate(self.chunks):
            self.ops.append(("train", str(self.dir / ("chunk%d.txt" % r)),
                             chunk.count("\n")))
            self.ops.extend(("classify", sentence, unknown)
                            for sentence, unknown in gen.classify_sentences(
                                world, cfg["classify"]))
        self.mix = {"classify": 0, "no_concept": 0, "no_evidence": 0}

    def load(self) -> None:
        d = self.dir
        (d / "lexicon.lg").write_text(self.world["lexicon"], encoding="utf-8")
        (d / "nouns.txt").write_text(self.world["noun_hierarchy"],
                                     encoding="utf-8")
        (d / "verbs.txt").write_text(self.world["verb_hierarchy"],
                                     encoding="utf-8")
        (d / cli.CONFIG_NAME).write_text(
            "lexicon = lexicon.lg\nnoun_hierarchy = nouns.txt\n"
            "verb_hierarchy = verbs.txt\nsemlex = semlex.lg\n",
            encoding="utf-8")
        for r, chunk in enumerate(self.chunks):
            (d / ("chunk%d.txt" % r)).write_text(chunk, encoding="utf-8")
        self.ws = cli.load_workspace(d)
        self.hiers = self.ws.load_hierarchies()

    def reset(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.ws.semlex_path)

    def run(self, op):
        kind, arg, _ = op
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["-w", str(self.dir), kind, arg])
        return code, out.getvalue(), err.getvalue()

    def canonical(self, op, out) -> str:
        kind, arg, _ = op
        code, stdout, _ = out
        if kind == "train":
            # the path names a temporary directory; keep the count only
            stdout = stdout.split(":")[0]
            arg = os.path.basename(arg)
        return "%s %s\nexit=%d\n%s" % (kind, arg, code, stdout)

    def check(self, op, out) -> list[str]:
        kind, arg, extra = op
        code, stdout, stderr = out
        if kind == "train":
            if code != 0 or not stdout.startswith(
                    "trained on %d sentence(s)" % extra):
                return ["train exit %d: %s%s" % (code, stdout, stderr)]
            text = self.ws.semlex_path.read_text(encoding="utf-8")
            parsed = semantics.parse_semlex(text, self.hiers)
            if semantics.serialize_semlex(parsed) != text:
                return ["semantic lexicon does not round-trip"]
            return []
        self.mix["classify"] += 1
        if code == 1 and NO_EVIDENCE in stderr and not stdout:
            self.mix["no_evidence"] += 1
            return []
        if code != 0:
            return ["classify exit %d: %s" % (code, stderr.strip())]
        if not stdout:
            self.mix["no_concept"] += 1
            return []
        problems = []
        for line in stdout.splitlines():
            if line.startswith("  evidence: "):
                continue
            word, _, concept = line.partition(" -> ")
            if word != extra or concept not in self.hiers.nouns:
                problems.append("bad classify line %r" % line)
        return problems

    def shares(self) -> dict:
        m = self.mix
        n = max(m["classify"], 1)
        return {"classify_no_concept": m["no_concept"] / n,
                "classify_no_evidence": m["no_evidence"] / n}

    def lexicon_words(self) -> int:
        return len(self.ws.load_lexicon())

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Ambiguous, AcquireGrow, TrainClassify)}
