"""The brute-force oracle the solver is checked against.

`enumerate_bruteforce` tries every disjunct combination and every pairing
of matching connector occurrences, keeping the candidates that pass
`validate`.  It is independent of the solver's search, and capped for
tractability.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from lexacq.lexicon import Lexicon
from lexacq.linker import (Link, Linkage, UnknownWordError, link_label, match,
                           validate)

ORACLE_CAP_DEFAULT = 7


class OracleCapError(ValueError):
    """Sentence is longer than the brute-force enumerator allows."""


def enumerate_bruteforce(
    words: Sequence[str], lexicon: Lexicon, cap: int = ORACLE_CAP_DEFAULT
) -> list[Linkage]:
    """Exhaustive reference enumeration: every disjunct combination, every
    pairing of rightward with matching leftward connector occurrences,
    filtered by `validate`.  Independent of the solver's search; capped for
    tractability.
    """
    words = tuple(words)
    if len(words) > cap:
        raise OracleCapError(
            "%d words exceeds oracle cap %d" % (len(words), cap))
    entry_lists = []
    for i, w in enumerate(words):
        ds = lexicon.lookup(w)
        if ds is None:
            raise UnknownWordError(w, i)
        entry_lists.append(ds)

    found: dict[tuple, Linkage] = {}
    for indices in itertools.product(*(range(len(ds)) for ds in entry_lists)):
        combo = tuple(entry_lists[p][i] for p, i in enumerate(indices))
        right_occ = [(p, c) for p, d in enumerate(combo) for c in d.right]
        left_occ = [(p, c) for p, d in enumerate(combo) for c in d.left]
        if len(right_occ) != len(left_occ):
            continue  # each link consumes one rightward and one leftward

        def pairings(next_left: int, used: int, acc: list):
            if next_left == len(left_occ):
                yield list(acc)
                return
            lp, lc = left_occ[next_left]
            for r, (rp, rc) in enumerate(right_occ):
                # rightward connectors link strictly rightward, and only
                # matching connectors can serve one link
                if used & (1 << r) or rp >= lp or not match(rc, lc):
                    continue
                acc.append((rp, rc, lp, lc))
                yield from pairings(next_left + 1, used | (1 << r), acc)
                acc.pop()

        for pairing in pairings(0, 0, []):
            link_objs = tuple(
                Link(rp, lp, link_label(rc, lc)) for rp, rc, lp, lc in pairing
            )
            candidate = Linkage(words, combo, link_objs)
            if validate(candidate):
                continue
            key = (indices, candidate.links)
            if key not in found:
                found[key] = candidate
    return [found[k] for k in sorted(found)]
