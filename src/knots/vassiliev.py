"""Singular knots, chord diagrams, and finite-order invariant checks.

A singular diagram is a knot diagram with a subset of its crossings
marked as rigid double points.  Resolving every double point positively
or negatively and summing with alternating signs extends any knot
invariant to singular knots; the chord diagram sigma(s) records only
the interleaving pattern of the double points along the curve.  An
invariant of order <= n induces a well-defined function on n-chord
diagrams (its symbol), which must vanish on diagrams with an isolated
chord (1T) and satisfy the four-term relation (4T).

Chord diagrams are cyclic words: 2n letters, each of n letters twice.
The canonical form renames letters by first occurrence and takes the
lexicographically least rotation; the circle is oriented, so no
reflection is taken.

``realize`` builds an actual singular knot for a chord word: put the
double points on a jittered circle, run a short straight *through
segment* across each visit, and join consecutive visits by straight
connectors.  The resulting closed polygon is an honest plane curve, so
reading its self-intersections off as crossings (double points keep
sign +1; incidental crossings are over on first visit) yields a valid
genus-zero diagram whose marked subword is the requested cyclic word.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Callable, Mapping, Union

from .codes import Diagram, crossing_change, diagram_arg, is_realizable
from .errors import DegeneracyError, DomainError, NotAKnotError
from .spatial import crossings, gauss_code, retry


@dataclass(frozen=True)
class ChordDiagram:
    """A cyclic pairing word in canonical form."""

    word: str

    def __init__(self, word):
        object.__setattr__(self, "word", canonical_word(word))

    def __len__(self):
        return len(self.word) // 2

    def __str__(self):
        return self.word


def _validate_word(word: str):
    counts = {}
    for ch in word:
        counts[ch] = counts.get(ch, 0) + 1
    if any(v != 2 for v in counts.values()):
        raise DomainError(f"every chord letter must appear exactly twice: {word!r}")
    return word


# Chord names, one character each in increasing ASCII order, so that
# comparing words compares the chord sequences.
_CHORD_NAMES = "123456789abcdefghijklmnopqrstuvwxyz"


def canonical_word(word) -> str:
    """Least rotation after renaming letters by first occurrence, as
    ``1``-``9`` and then ``a``-``z``; more chords, or a ``word`` that is
    not an iterable of letters, raise DomainError."""
    if not isinstance(word, Iterable):
        raise DomainError(f"word must be an iterable of letters, got {word!r}")
    seq = [str(ch) for ch in word]
    _validate_word(seq)
    if len(seq) > 2 * len(_CHORD_NAMES):
        raise DomainError(f"{len(seq) // 2} chords; chord words name at most {len(_CHORD_NAMES)}")
    if not seq:
        return ""
    best = None
    for r in range(len(seq)):
        rot = seq[r:] + seq[:r]
        names = {}
        out = []
        for ch in rot:
            if ch not in names:
                names[ch] = _CHORD_NAMES[len(names)]
            out.append(names[ch])
        cand = "".join(out)
        if best is None or cand < best:
            best = cand
    return best


def _matchings(points):
    """Every perfect matching of ``points``, as lists of pairs."""
    if not points:
        yield []
        return
    a = points[0]
    for k in range(1, len(points)):
        for m in _matchings(points[1:k] + points[k + 1 :]):
            yield [(a, points[k])] + m


def _chord_letters(size: int):
    """Every matching of ``size`` points as a word, chords named 1, 2, ..."""
    for m in _matchings(list(range(size))):
        letters = [""] * size
        for idx, (a, b) in enumerate(m):
            letters[a] = letters[b] = str(idx + 1)
        yield letters


# The number of n-chord diagrams up to rotation, n = 0..6: the range
# that ``enumerate_chord_diagrams`` supports and ``symbol`` plans by.
CHORD_COUNTS = (1, 1, 2, 5, 18, 105, 902)


def _chord_count(n: int) -> int:
    if isinstance(n, bool) or not isinstance(n, int) or not 0 <= n < len(CHORD_COUNTS):
        raise DomainError(
            f"chord enumeration supported for an int 0 <= n <= {len(CHORD_COUNTS) - 1}, got {n!r}"
        )
    return CHORD_COUNTS[n]


def enumerate_chord_diagrams(n: int):
    """All distinct n-chord diagrams, canonical and sorted."""
    _chord_count(n)
    found = {ChordDiagram("".join(w)) for w in _chord_letters(2 * n)}
    return tuple(sorted(found, key=lambda cd: cd.word))


@dataclass(frozen=True)
class SingularDiagram:
    """A knot diagram with some crossings marked as double points; a
    ``base`` that is not a ``Diagram`` raises DomainError, a link
    NotAKnotError, and ``doubles`` that are not an iterable of its
    crossing labels (ints, not bools) DomainError."""

    base: Diagram
    doubles: frozenset

    def __init__(self, base: Diagram, doubles):
        if diagram_arg(base).n_components != 1:
            raise NotAKnotError("singular diagrams are built on knot diagrams")
        try:
            doubles = frozenset(doubles)
        except TypeError:  # not iterable, or an unhashable label
            raise DomainError(f"doubles must be crossing labels, got {doubles!r}") from None
        for c in doubles:  # True or 1.0 would equal crossing 1
            if isinstance(c, bool) or not isinstance(c, int) or c not in base.signs:
                raise DomainError(f"marked double point {c!r} is not a crossing of the base")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "doubles", doubles)


def _singular_arg(s) -> SingularDiagram:
    """``s``, once checked: DomainError naming it unless it is a
    ``SingularDiagram``."""
    if not isinstance(s, SingularDiagram):
        raise DomainError(f"s must be a SingularDiagram, got {s!r}")
    return s


def sigma(s: SingularDiagram) -> ChordDiagram:
    """Chord diagram of the double points along the traversal."""
    word = [
        str(p.crossing)
        for p in _singular_arg(s).base.components[0]
        if p.crossing in s.doubles
    ]
    return ChordDiagram(word)


def resolutions(s: SingularDiagram):
    """The 2^m resolved diagrams with parity = number of minus choices.

    Raises DomainError past m = 12 double points (4,096 resolutions).
    """
    doubles = sorted(_singular_arg(s).doubles)
    if len(doubles) > 12:
        raise DomainError(f"{len(doubles)} double points; resolutions supported for m <= 12")
    out = []
    for choice in itertools.product((1, -1), repeat=len(doubles)):
        changed = (c for c, t in zip(doubles, choice) if s.base.signs[c] != t)
        out.append((crossing_change(s.base, *changed), sum(1 for t in choice if t < 0)))
    return tuple(out)


def _invariant_arg(inv):
    """DomainError naming ``inv`` unless it is callable."""
    if not callable(inv):
        raise DomainError(f"inv must be callable, got {inv!r}")


def extend(inv: Callable[[Diagram], int], s: SingularDiagram):
    """Alternating-sum extension of a knot invariant to singular knots;
    ``resolutions`` caps it at 12 double points."""
    _invariant_arg(inv)
    return sum((-1) ** parity * inv(d) for d, parity in resolutions(s))


# ----------------------------------------------------------------------
# Realizing a chord word as a singular knot


def realize(word, seed: int = 0) -> SingularDiagram:
    """A singular knot diagram whose chord diagram is ``word``.

    Args:
        word: chord word (string or ChordDiagram); letters may be any
            hashable symbols, each appearing twice.
        seed: jitter seed, an int; different seeds give different
            incidental crossings around the same marked pattern.

    Returns:
        SingularDiagram with doubles labelled 1..n in first-occurrence
        order of the word and all double-point signs +1.

    Raises:
        DomainError: if seed is not an int.
        GenericityFailure: if jittering cannot reach a generic polygon
            (does not happen for words of supported size in practice).
    """
    word = word.word if isinstance(word, ChordDiagram) else canonical_word(word)
    letters = sorted(set(word), key=word.index)
    letter_id = {ch: i + 1 for i, ch in enumerate(letters)}
    return retry(lambda rng: _realize_once(word, letter_id, rng), seed)


def _realize_once(word, letter_id, rng):
    n = len(letter_id)
    # Double points on a jittered circle.
    spot = {}
    for i, ch in enumerate(sorted(letter_id, key=letter_id.get)):
        ang = 2 * math.pi * i / n + rng.uniform(-0.2, 0.2)
        rad = 1.0 + rng.uniform(-0.1, 0.1)
        spot[ch] = (rad * math.cos(ang), rad * math.sin(ang))
    # A short through segment across the double point for each visit.
    half = 0.3 / max(1, n - 1) + 0.08
    verts = []
    for t, ch in enumerate(word):
        q = spot[ch]
        ang = rng.uniform(0, 2 * math.pi)
        d = (math.cos(ang), math.sin(ang))
        verts.append((q[0] - half * d[0], q[1] - half * d[1]))
        verts.append((q[0] + half * d[0], q[1] + half * d[1]))
    # Polygon segments, as index pairs into verts: even index = through
    # segment of visit k, odd index = connector from visit k to visit k+1.
    segs = [(k, (k + 1) % len(verts)) for k in range(len(verts))]
    found = crossings(verts, segs)
    # Marked double points: the two through segments of a letter must
    # cross (at the marked point, necessarily).
    visits = {}
    for t, ch in enumerate(word):
        visits.setdefault(ch, []).append(2 * t)  # through-segment index
    marked = {tuple(v): letter_id[ch] for ch, v in visits.items()}
    if not marked.keys() <= {(i, j) for i, j, *_ in found}:
        raise DegeneracyError("through segments of a double point missed")
    # Double points take whichever strand makes the sign +1; incidental
    # crossings are over on first visit, which is on segment i < j, and
    # are numbered n+1, n+2, ... in the order of first visits.
    over = [j if (i, j) in marked and turn < 0 else i for i, j, _t, _u, turn in found]
    extra = itertools.count(n + 1)
    labels = {
        x: marked.get(found[x][:2]) or next(extra)
        for x in sorted(range(len(found)), key=lambda x: (found[x][0], found[x][2]))
    }
    base = gauss_code(found, over, [[(si, False) for si in range(len(segs))]], labels)
    if not is_realizable(base):
        raise AssertionError("polygon trace produced a non-planar code")
    s = SingularDiagram(base, range(1, n + 1))
    if sigma(s).word != word:
        raise AssertionError("realized chord word drifted")
    return s


# ----------------------------------------------------------------------
# 1T / 4T and symbols

Lambda = Union[Mapping, Callable[[ChordDiagram], int]]


def _as_function(lam: Lambda):
    """``lam`` as a function of chord diagrams; DomainError naming it
    unless it is a callable or a mapping."""
    if callable(lam):
        return lam
    if not isinstance(lam, Mapping):
        raise DomainError(f"lam must be a callable or a mapping, got {lam!r}")
    return lambda cd: lam[cd]


def has_isolated_chord(cd: ChordDiagram) -> bool:
    w = cd.word
    return any(w[k] == w[(k + 1) % len(w)] for k in range(len(w)))


def check_1t(lam: Lambda, n: int) -> bool:
    """Whether ``lam`` vanishes on all n-chord diagrams with an
    isolated chord (two cyclically adjacent endpoints)."""
    f = _as_function(lam)
    return all(
        f(cd) == 0 for cd in enumerate_chord_diagrams(n) if has_isolated_chord(cd)
    )


def check_4t(lam: Lambda, n: int) -> bool:
    """The four-term relation over all skeletons of n-chord diagrams.

    A skeleton is a cyclic word with chord A present once; for each
    other chord B at positions q1, q2 insert A's second endpoint just
    before/after each and require

        lam(before q1) - lam(after q1) + lam(before q2) - lam(after q2) = 0.

    The word is cyclic, so every skeleton is a rotation of one that
    starts with A: A followed by an (n-1)-chord matching on 2n-2 points.

    Raises:
        DomainError: if ``lam`` is not a callable or a mapping, or if n
            is outside 0..6, the range of ``enumerate_chord_diagrams``.
    """
    f = _as_function(lam)
    _chord_count(n)
    if n < 2:
        return True
    mobile = "A"
    for letters in _chord_letters(2 * n - 2):
        w = [mobile] + letters
        for b in map(str, range(1, n)):
            q1 = w.index(b)
            q2 = w.index(b, q1 + 1)
            total = 0
            for slot, sg in ((q1, 1), (q1 + 1, -1), (q2, 1), (q2 + 1, -1)):
                full = list(w)
                full.insert(slot, mobile)
                total += sg * f(ChordDiagram(full))
            if total != 0:
                return False
    return True


def symbol(inv: Callable[[Diagram], int], n: int, samples: int = 20, seed: int = 0):
    """Evaluate ``extend(inv)`` per n-chord diagram over realizations.

    Args:
        inv: knot-diagram invariant.
        n: number of double points.
        samples: independent realizations per chord diagram.
        seed: base seed; realization k of diagram i uses a derived seed.

    Returns:
        (values, consistent): mapping ChordDiagram -> value from the
        first realization, and True iff every class was single-valued
        across its samples.

    Raises:
        DomainError: before any enumerating, if inv is not callable, if
            samples is not an int of at least 1, if seed is not an int,
            if n is outside 0..6 (the range of ``CHORD_COUNTS``) or if
            the call would resolve more than 100,000 diagrams (chord
            diagrams * samples * 2^n; at 20 samples n = 5 makes 67,200,
            about 2 s for ``casson`` on a 2-vCPU x86-64 VM, and n = 6 is
            refused).
    """
    _invariant_arg(inv)
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
        raise DomainError(f"samples must be an int of at least 1, got {samples!r}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise DomainError(f"seed must be an int, got {seed!r}")
    work = _chord_count(n) * samples * 2**n
    if work > 100_000:
        raise DomainError(f"symbol would resolve {work:,} diagrams, past the limit of 100,000")
    chords = enumerate_chord_diagrams(n)
    values = {}
    consistent = True
    for i, cd in enumerate(chords):
        seen = []
        for k in range(samples):
            s = realize(cd, seed=seed + 1009 * i + k)
            seen.append(extend(inv, s))
        values[cd] = seen[0]
        if any(v != seen[0] for v in seen):
            consistent = False
    return values, consistent
