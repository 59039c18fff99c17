"""Spans around the program's public functions, recorded from outside it.

`Tracer.install` replaces each wrapped function at every `lexacq` module
that binds it by name (``from .linker import solve`` makes a second
binding), and methods on their class; `uninstall` puts the originals back.
Spans carry a name, start, end, parent span and op id, stay in memory, and
are reduced to per-layer metrics at the end.  A span's self time is its
duration minus its children's: calls are single-threaded, so children never
overlap.  Counters (nodes, joints, bytes, ...) are taken by hooks that run
in `trace.hook` spans of their own, so their cost is not charged to the
layer that encloses them.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

# Per-layer metrics: name -> (unit, better).  BENCHMARK.json lists the same.
LAYER_METRICS = {
    "linker.solve.calls": ("count", "lower"),
    "linker.solve.self_s": ("s", "lower"),
    "linker.solve.nodes": ("count", "lower"),
    "linker.solve.solutions": ("count", "higher"),
    "linker.solve.yield": ("sol/knode", "higher"),
    "linker.solve_causes.calls": ("count", "lower"),
    "linker.solve_causes.self_s": ("s", "lower"),
    "linker.solve_causes.nodes": ("count", "lower"),
    "linker.parse.self_s": ("s", "lower"),
    "linker.parse.linkages": ("count", "higher"),
    "syntax.acquire_syntax.calls": ("count", "lower"),
    "syntax.acquire_syntax.self_s": ("s", "lower"),
    "syntax.filter_by_inventory.calls": ("count", "lower"),
    "syntax.filter_by_inventory.self_s": ("s", "lower"),
    "syntax.joints": ("count", "higher"),
    "syntax.hypotheses_prefilter": ("count", "higher"),
    "syntax.hypotheses_kept": ("count", "higher"),
    "syntax.filter_keep_ratio": ("ratio", "higher"),
    "syntax.eliminations": ("count", "higher"),
    "syntax.no_solution": ("count", "lower"),
    "lexicon.inventory.calls": ("count", "lower"),
    "lexicon.inventory.self_s": ("s", "lower"),
    "lexicon.add.calls": ("count", "lower"),
    "lexicon.add.self_s": ("s", "lower"),
    "lexicon.parse_lexicon.calls": ("count", "lower"),
    "lexicon.parse_lexicon.self_s": ("s", "lower"),
    "lexicon.parse_lexicon.bytes": ("bytes", "lower"),
    "lexicon.words": ("count", "higher"),
    "semantics.tag_sentence.calls": ("count", "lower"),
    "semantics.tag_sentence.self_s": ("s", "lower"),
    "semantics.generalize.calls": ("count", "lower"),
    "semantics.generalize.self_s": ("s", "lower"),
    "semantics.generalize.obs_in": ("count", "lower"),
    "semantics.generalize.obs_out": ("count", "lower"),
    "semantics.parse_semlex.calls": ("count", "lower"),
    "semantics.parse_semlex.self_s": ("s", "lower"),
    "semantics.parse_semlex.bytes": ("bytes", "lower"),
    "semantics.serialize_semlex.self_s": ("s", "lower"),
    "semantics.hierarchy_parse.self_s": ("s", "lower"),
    "semantics.classify_unknown.calls": ("count", "lower"),
    "semantics.classify_unknown.self_s": ("s", "lower"),
    "semantics.concepts_found_ratio": ("ratio", "higher"),
    "cli.main.train.calls": ("count", "lower"),
    "cli.main.train.self_s": ("s", "lower"),
    "cli.main.classify.calls": ("count", "lower"),
    "cli.main.classify.self_s": ("s", "lower"),
    "cli.load_workspace.self_s": ("s", "lower"),
    "cli.atomic_write.self_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

_CLI_COMMANDS = ("init", "parse", "acquire", "train", "classify")
HOOK_SPAN = "trace.hook"  # the tracer's own counting, inside an op


def _observations(semlex) -> int:
    return sum(len(semlex.lookup(w)) for w in semlex.words())


def _cli_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv") or []
    kind = next((a for a in argv if a in _CLI_COMMANDS), "none")
    return "cli.main." + kind


def _solve_name(args, kwargs) -> str:
    causes = kwargs.get("collect_causes", args[3] if len(args) > 3 else False)
    return "linker.solve_causes" if causes else "linker.solve"


class Tracer:
    """Records spans and counters; one instance per traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.op = None
        self._open = []
        self._restore = []

    # --- recording -----------------------------------------------------

    def _hook(self, hook, *args):
        """Run a counter hook in a span of its own, HOOK_SPAN, so that the
        tracer's work is not charged to the enclosing span's self time."""
        open_ = self._open
        span = [HOOK_SPAN, 0.0, 0.0, open_[-1] if open_ else None, self.op]
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return hook(*args)
        finally:
            span[2] = time.perf_counter()

    def _wrap(self, fn, name, before=None, after=None, on_error=None):
        """`name` is a span name or a function of the call's arguments.
        `before(args, kwargs)` runs outside the span and its value is
        passed to `after(result, args, kwargs, value)`."""
        spans, open_, hook = self.spans, self._open, self._hook

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:  # output checks between ops are not traced
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            value = hook(before, args, kwargs) if before else None
            span = [label, 0.0, 0.0, open_[-1] if open_ else None, self.op]
            open_.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter()
                open_.pop()
                if on_error:
                    hook(on_error, exc)
                raise
            span[2] = time.perf_counter()
            open_.pop()
            if after:
                hook(after, result, args, kwargs, value)
            return result

        return wrapper

    # --- counters at the layer boundaries --------------------------------

    def _after_solve(self, outcome, args, kwargs, _):
        prefix = _solve_name(args, kwargs)
        self.counts[prefix + ".nodes"] += outcome.nodes
        self.counts[prefix + ".solutions"] += len(outcome.solutions)

    def _after_parse(self, linkages, *_):
        self.counts["linker.parse.linkages"] += len(linkages)

    def _after_acquire(self, result, *_):
        c = self.counts
        c["syntax.joints"] += len(result.joints)
        c["syntax.hypotheses_prefilter"] += sum(
            len(v) for v in result.prefilter.values())
        c["syntax.hypotheses_kept"] += sum(
            len(result.hypotheses[p]) for p in result.unknown_positions)
        c["syntax.eliminations"] += sum(
            e.action == "eliminate" for e in result.trace)

    def _text_bytes(self, key):
        def after(result, args, kwargs, _):
            text = args[0] if args else kwargs["text"]
            self.counts[key] += len(text.encode("utf-8"))
        return after

    def _after_generalize(self, result, args, kwargs, obs_in):
        self.counts["semantics.generalize.obs_in"] += obs_in
        self.counts["semantics.generalize.obs_out"] += _observations(result)

    def _after_classify(self, found, *_):
        self.counts["semantics.classify_found"] += bool(found)

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of the package's five modules."""
        import lexacq
        from lexacq import cli, lexicon, linker, semantics, syntax

        modules = [lexacq, lexicon, linker, syntax, semantics, cli]

        def acquire_error(exc):
            if isinstance(exc, syntax.NoSolutionError):
                self.counts["syntax.no_solution"] += 1

        functions = [
            (linker, "solve", _solve_name, None, self._after_solve, None),
            (linker, "parse", "linker.parse", None, self._after_parse, None),
            (syntax, "acquire_syntax", "syntax.acquire_syntax", None,
             self._after_acquire, acquire_error),
            (syntax, "filter_by_inventory", "syntax.filter_by_inventory",
             None, None, None),
            (lexicon, "parse_lexicon", "lexicon.parse_lexicon", None,
             self._text_bytes("lexicon.parse_lexicon.bytes"), None),
            (semantics, "tag_sentence", "semantics.tag_sentence", None, None,
             None),
            (semantics, "generalize", "semantics.generalize",
             lambda a, k: _observations(a[0]), self._after_generalize, None),
            (semantics, "parse_semlex", "semantics.parse_semlex", None,
             self._text_bytes("semantics.parse_semlex.bytes"), None),
            (semantics, "serialize_semlex", "semantics.serialize_semlex",
             None, None, None),
            (semantics, "classify_unknown", "semantics.classify_unknown",
             None, self._after_classify, None),
            (cli, "main", _cli_name, None, None, None),
            (cli, "load_workspace", "cli.load_workspace", None, None, None),
            (cli, "atomic_write", "cli.atomic_write", None, None, None),
        ]
        for home, attr, name, before, after, on_error in functions:
            original = getattr(home, attr)
            wrapper = self._wrap(original, name, before, after, on_error)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, bound, original))
                        setattr(module, bound, wrapper)
        methods = [
            (lexicon.Lexicon, "inventory", "lexicon.inventory"),
            (lexicon.Lexicon, "add", "lexicon.add"),
        ]
        for cls, attr, name in methods:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))
        hierarchy = semantics.ConceptHierarchy
        original = hierarchy.__dict__["parse"]
        self._restore.append((hierarchy, "parse", original))
        hierarchy.parse = classmethod(
            self._wrap(original.__func__, "semantics.hierarchy_parse"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- reduction -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, by span index."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def metrics(self, passes: int, lexicon_words: int) -> dict:
        """Per-layer metrics per pass over the op set (totals over all
        passes divided by their number).  `trace.overhead` needs an
        untraced run as well and is filled in by the caller."""
        calls, self_s = Counter(), Counter()
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            self_s[span[0]] += own
        c = self.counts
        derived = {
            "linker.solve.yield": 1000.0 * c["linker.solve.solutions"]
            / max(c["linker.solve.nodes"], 1),
            "syntax.filter_keep_ratio": c["syntax.hypotheses_kept"]
            / max(c["syntax.hypotheses_prefilter"], 1),
            "semantics.concepts_found_ratio": c["semantics.classify_found"]
            / max(calls["semantics.classify_unknown"], 1),
            "lexicon.words": lexicon_words,
        }
        out = {}
        for name in LAYER_METRICS:
            layer, _, field = name.rpartition(".")
            if name in derived:
                out[name] = derived[name]
            elif field == "calls":
                out[name] = calls[layer] / passes
            elif field == "self_s":
                out[name] = self_s[layer] / passes
            else:
                out[name] = c[name] / passes
        return out
