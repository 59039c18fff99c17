"""Seeded input generators for the benchmark workloads.

Every generator draws from a `random.Random` made from the seed argument
and returns plain words and text, so the program under test sees only
generated inputs.  Word names are letters only: the lexicon format rejects
digits.
"""

from __future__ import annotations

import random

ABC_LEXICON = """\
a: (( ) (X)) | (( ) (X,X)) | (( ) ( ))
b: ((X) (X)) | ((X) ( )) | ((X,X) ( ))
c: ((X) ( )) | (( ) (X)) | ((X) (X))
"""

# Entries copied from the sample lexicon's word classes.
DETERMINER = "the"
ADJ_ENTRY = "(( ) (A))"
NOUN_ENTRY = ("((A,Ds,Os) ( )) | ((A,Ds) (Ss)) | ((Ds) (Ss)) | ((Ds,Os) ( )) |"
              " ((Os) ( )) | ((A,Os) ( ))")
VERB_ENTRY = "((Ss) (O)) | ((Ss) ( ))"

# Sentence shapes the sample grammar links: at most one adjective per noun
# phrase, a subject needs its determiner, an object may go without.
TEMPLATES = (
    ("the", "A", "N", "V"),
    ("the", "N", "V", "N"),
    ("the", "N", "V", "the", "N"),
    ("the", "A", "N", "V", "N"),
    ("the", "N", "V", "A", "N"),
    ("the", "A", "N", "V", "A", "N"),
    ("the", "N", "V", "the", "A", "N"),
    ("the", "A", "N", "V", "the", "N"),
    ("the", "A", "N", "V", "the", "A", "N"),
)

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"


class Names:
    """Distinct pronounceable letters-only names drawn from one rng."""

    def __init__(self, rng: random.Random, reserved=()):
        self.rng = rng
        self._used = set(reserved)

    def fresh(self) -> str:
        rng = self.rng
        while True:
            name = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                           for _ in range(rng.randint(2, 4)))
            if name not in self._used:
                self._used.add(name)
                return name

    def many(self, count: int) -> list[str]:
        return [self.fresh() for _ in range(count)]


def lexicon_text(adjs, nouns, verbs) -> str:
    """A lexicon in the sample lexicon's word classes."""
    return "%s: (( ) (D))\n%s: %s\n%s:\n    %s\n%s: %s\n" % (
        DETERMINER, ", ".join(adjs), ADJ_ENTRY, ", ".join(nouns), NOUN_ENTRY,
        ", ".join(verbs), VERB_ENTRY)


# --- ambiguous: the a/b/c grammar -------------------------------------------


def abc_sentences(seed: int, count: int, parse_len: int, acquire_len: int
                  ) -> list[tuple]:
    """`count` sentences of the a/b/c grammar, as (words, unknown position).

    Even-numbered sentences are fully known (position None) and
    `parse_len` words long; the others are `acquire_len` words long with
    one word replaced by a fresh unknown name.  With one wildcard an
    acquisition searches about as much as a parse two words longer, so the
    two halves overlap in cost.  No sentence starts with `b`: every `b`
    disjunct needs a word to its left, so such a sentence is rejected
    before any search.
    """
    rng = random.Random(seed)
    names = Names(rng, reserved="abc")
    out = []
    for i in range(count):
        n = acquire_len if i % 2 else parse_len
        words = [rng.choice("ac")] + [rng.choice("abc") for _ in range(n - 1)]
        pos = None
        if i % 2:
            pos = rng.randrange(n)
            words[pos] = names.fresh()
        out.append((tuple(words), pos))
    return out


# --- acquire-grow: a scaled sample lexicon ---------------------------------


def scaled_lexicon(seed: int, nouns: int, adjs: int, verbs: int):
    """Lexicon text with many words sharing few distinct entries, its word
    classes, and the name source that made them (for fresh unknowns)."""
    rng = random.Random(seed)
    names = Names(rng, reserved=(DETERMINER,))
    classes = {"A": names.many(adjs), "N": names.many(nouns),
               "V": names.many(verbs)}
    text = lexicon_text(classes["A"], classes["N"], classes["V"])
    return text, classes, names


def unknown_patterns() -> list[tuple]:
    """Every (template, unknown positions) pair: each content word alone,
    and each pair of content words that are not adjacent.  A wildcard
    cannot link to another wildcard, so adjacent unknowns could not link."""
    patterns = []
    for shape in TEMPLATES:
        slots = [p for p, w in enumerate(shape) if w != DETERMINER]
        patterns.extend((shape, (p,)) for p in slots)
        patterns.extend((shape, (p, q)) for p in slots for q in slots
                        if q > p + 1)
    return patterns


def grow_sentences(names: Names, classes, rounds: int) -> list[tuple]:
    """Each unknown pattern `rounds` times, in seeded order, with seeded
    known words and fresh unknown names.  The cost of an acquisition
    follows from its pattern, so every seed gets the same cost mix."""
    rng = names.rng
    order = unknown_patterns() * rounds
    rng.shuffle(order)
    out = []
    for shape, positions in order:
        words = [w if w == DETERMINER else rng.choice(classes[w])
                 for w in shape]
        for p in positions:
            words[p] = names.fresh()
        out.append(tuple(words))
    return out


# --- train-classify: hierarchies, lexicon and corpus -----------------------


def hierarchy_text(root: str, tree: dict) -> str:
    """`parent > child` lines for a two-level {category: {sub: leaves}}
    tree, or a one-level {category: leaves} tree."""
    lines = ["%s > %s" % (root, cat) for cat in tree]
    for cat, below in tree.items():
        if isinstance(below, dict):
            for sub in below:
                lines.append("%s > %s" % (cat, sub))
    for cat, below in tree.items():
        groups = below.items() if isinstance(below, dict) else [(cat, below)]
        for parent, leaves in groups:
            lines.extend("%s > %s" % (parent, leaf) for leaf in leaves)
    return "\n".join(lines) + "\n"


def semantic_world(seed: int, categories: int, subcats: int, leaves: int,
                   verb_cats: int, verbs_per_cat: int, adjs: int):
    """A noun hierarchy (categories > subcategories > noun leaves), a verb
    hierarchy (categories > verbs), a matching lexicon, and selectional
    preferences: verb category k takes subjects from noun category k and
    objects from noun category k + 1."""
    rng = random.Random(seed)
    names = Names(rng, reserved=(DETERMINER,))
    nouns = {cat: {sub: names.many(leaves) for sub in names.many(subcats)}
             for cat in names.many(categories)}
    verbs = {cat: names.many(verbs_per_cat) for cat in names.many(verb_cats)}
    adj_words = names.many(adjs)
    noun_root, verb_root = names.fresh(), names.fresh()
    noun_cats = list(nouns)
    leaves_of = {cat: [w for sub in subs.values() for w in sub]
                 for cat, subs in nouns.items()}
    return {
        "noun_hierarchy": hierarchy_text(noun_root, nouns),
        "verb_hierarchy": hierarchy_text(verb_root, verbs),
        "lexicon": lexicon_text(
            adj_words, [w for ws in leaves_of.values() for w in ws],
            [v for vs in verbs.values() for v in vs]),
        "adjs": adj_words,
        "verbs": [(v, k) for k, vcat in enumerate(verbs)
                  for v in verbs[vcat]],
        "prefs": [(noun_cats[k % categories], noun_cats[(k + 1) % categories])
                  for k in range(verb_cats)],
        "leaves_of": leaves_of,
        "names": names,
        "rng": rng,
    }


# Corpus sentence forms, used in equal shares: whether the subject takes an
# adjective, and the object phrase (None for an intransitive sentence).
CORPUS_FORMS = tuple((adj, obj) for adj in (False, True)
                     for obj in (None, ("N",), ("the", "N"), ("A", "N"),
                                 ("the", "A", "N")))


def corpus_chunks(world, rounds: int, chunk: int, noise: float = 0.2):
    """`rounds` chunks of `chunk` known sentences, each form of
    CORPUS_FORMS and each verb in equal shares.  A `noise` share of each
    chunk draws its nouns from any category instead of the verb's
    preferred ones, which leaves observations generalization cannot
    merge."""
    rng = world["rng"]
    cats = list(world["leaves_of"])
    adjs = world["adjs"]

    def noun(cat):
        return rng.choice(world["leaves_of"][cat])

    chunks = []
    for _ in range(rounds):
        forms = [CORPUS_FORMS[i % len(CORPUS_FORMS)] for i in range(chunk)]
        verbs = [world["verbs"][i % len(world["verbs"])] for i in range(chunk)]
        noisy = [i < round(noise * chunk) for i in range(chunk)]
        for column in (forms, verbs, noisy):
            rng.shuffle(column)
        lines = []
        for (subj_adj, obj), (verb, k), off in zip(forms, verbs, noisy):
            subj_cat, obj_cat = world["prefs"][k]
            if off:
                subj_cat, obj_cat = rng.choice(cats), rng.choice(cats)
            words = [DETERMINER] + ([rng.choice(adjs)] if subj_adj else [])
            words += [noun(subj_cat), verb]
            for slot in obj or ():
                if slot == "N":
                    words.append(noun(obj_cat))
                else:
                    words.append(rng.choice(adjs) if slot == "A" else slot)
            lines.append(" ".join(words) + ".")
        chunks.append("\n".join(lines) + "\n")
    return chunks


def classify_sentences(world, count: int) -> list[tuple]:
    """(sentence, unknown) pairs with one fresh unknown noun.  The unknown
    is the subject or the object, and the verb's other argument comes from
    its preferred category or from any category, in equal shares."""
    rng = world["rng"]
    cats = list(world["leaves_of"])
    kinds = [(i % 2, (i // 2) % 2) for i in range(count)]
    rng.shuffle(kinds)
    out = []
    for unknown_is_object, preferred in kinds:
        verb, k = rng.choice(world["verbs"])
        subj_cat, obj_cat = world["prefs"][k]
        cat = subj_cat if unknown_is_object else obj_cat
        if not preferred:
            cat = rng.choice(cats)
        known = rng.choice(world["leaves_of"][cat])
        unknown = world["names"].fresh()
        pair = (known, unknown) if unknown_is_object else (unknown, known)
        out.append(("%s %s %s %s %s" % (DETERMINER, pair[0], verb, DETERMINER,
                                        pair[1]), unknown))
    return out
