"""Chord diagrams, singular knots, and order-two invariant structure."""

import itertools
import random

import pytest

import knots.vassiliev as vassiliev
from knots import (
    ChordDiagram,
    DomainError,
    NotAKnotError,
    SingularDiagram,
    casson,
    check_1t,
    check_4t,
    coefficient,
    enumerate_chord_diagrams,
    extend,
    from_text,
    genus,
    realize,
    resolutions,
    sigma,
    symbol,
)
from knots.colorings import pivot_steps
from knots.vassiliev import CHORD_COUNTS, canonical_word, has_isolated_chord

TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"


def test_canonical_word_rotation_and_renaming():
    assert canonical_word("2112") == "1122"
    assert canonical_word("2121") == "1212"
    assert canonical_word("baab") == "1122"
    assert canonical_word("xyzxyz") == "123123"
    assert canonical_word("") == ""


def test_canonical_word_rejects_odd_multiplicity():
    with pytest.raises(DomainError):
        canonical_word("112")


def _least_numbered_rotation(word):
    """The least rotation as a list of chord numbers 0, 1, ... by first
    occurrence, compared as numbers rather than as text."""
    best = None
    for r in range(len(word)):
        names = {}
        seq = [names.setdefault(ch, len(names)) for ch in word[r:] + word[:r]]
        best = seq if best is None else min(best, seq)
    return best or []


def test_chord_words_past_nine_chords_name_each_chord_by_one_character():
    cd = ChordDiagram("abcdefghij" * 2)
    assert cd.word == "123456789a" * 2
    assert len(cd) == 10 and ChordDiagram(cd.word) == cd
    assert canonical_word("abcdefghi" * 2) == "123456789" * 2
    names = "123456789abcdefghijklmnopqrstuvwxyz"
    rng = random.Random(16)
    for n in (1, 2, 9, 10, 11, 12, 20, 35):
        word = [k for k in range(n) for _ in "ab"]
        rng.shuffle(word)
        got = canonical_word(word)
        assert len(got) == 2 * n and ChordDiagram(got).word == got
        assert [names.index(ch) for ch in got] == _least_numbered_rotation(word)


@pytest.mark.parametrize("n", [10, 11, 12])
def test_sigma_reads_ten_to_twelve_double_points(n):
    word = [k for k in range(n, 0, -1) for _ in "ab"]
    random.Random(n).shuffle(word)
    cd = ChordDiagram(word)
    assert len(cd) == n
    assert sigma(realize(cd, seed=n)) == cd


def test_canonical_word_refuses_more_chords_than_names():
    with pytest.raises(DomainError, match="36 chords"):
        canonical_word(list(range(36)) * 2)


def test_chord_diagram_equality_is_cyclic():
    assert ChordDiagram("2112") == ChordDiagram("1221")
    assert ChordDiagram("1212") != ChordDiagram("1122")
    assert len(ChordDiagram("123123")) == 3


def test_enumeration_counts():
    assert len(enumerate_chord_diagrams(0)) == 1
    assert len(enumerate_chord_diagrams(1)) == 1
    assert len(enumerate_chord_diagrams(2)) == 2
    assert len(enumerate_chord_diagrams(3)) == 5
    assert len(enumerate_chord_diagrams(4)) == 18
    with pytest.raises(DomainError):
        enumerate_chord_diagrams(7)


def test_isolated_chord_detection():
    assert has_isolated_chord(ChordDiagram("1122"))
    assert not has_isolated_chord(ChordDiagram("1212"))
    assert has_isolated_chord(ChordDiagram("121233"))


def test_singular_diagram_validation():
    base = from_text(TREFOIL)
    s = SingularDiagram(base, {1, 3})
    assert s.doubles == frozenset({1, 3})
    with pytest.raises(DomainError):
        SingularDiagram(base, {9})
    with pytest.raises(DomainError):
        SingularDiagram(from_text("O1+ U2+ ; O2+ U1+"), {1})
    with pytest.raises(NotAKnotError, match="singular diagrams are built on knot diagrams"):
        SingularDiagram(from_text("O1+ U2+ ; O2+ U1+"), set())


def test_sigma_reads_double_points_in_traversal_order():
    base = from_text(TREFOIL)
    assert sigma(SingularDiagram(base, {1, 2})).word == "1212"
    assert sigma(SingularDiagram(base, set())).word == ""


def test_resolutions_flip_marked_crossings():
    base = from_text(TREFOIL)
    s = SingularDiagram(base, {1})
    res = resolutions(s)
    assert len(res) == 2
    signs = sorted((d.signs[1], parity) for d, parity in res)
    assert signs == [(-1, 1), (1, 0)]


def test_extend_on_one_double_point_is_a_skein_difference():
    base = from_text(TREFOIL)
    s = SingularDiagram(base, {2})
    by_parity = {parity: d for d, parity in resolutions(s)}
    assert extend(casson, s) == casson(by_parity[0]) - casson(by_parity[1])


def test_resolutions_are_capped_at_twelve_double_points():
    t2_13 = from_text(" ".join(f"{'OU'[i % 2]}{i % 13 + 1}+" for i in range(26)))
    assert len(resolutions(SingularDiagram(t2_13, range(1, 3)))) == 4
    with pytest.raises(DomainError):
        resolutions(SingularDiagram(t2_13, range(1, 14)))
    with pytest.raises(DomainError):
        extend(casson, SingularDiagram(t2_13, range(1, 14)))


def test_realize_round_trips_the_chord_word():
    # Every chord diagram of one to four chords, and plain words.
    words = [cd for n in range(1, 5) for cd in enumerate_chord_diagrams(n)]
    for word in words + ["11", "1122", "1212", "112233", "123123", "12132434"]:
        for seed in range(20):
            s = realize(word, seed=seed)
            assert sigma(s) == ChordDiagram(str(word))
            assert genus(s.base) == (0,)
            assert all(s.base.signs[c] == 1 for c in s.doubles)


def test_realize_takes_a_chord_diagram_or_any_spelling_of_its_word():
    # A ChordDiagram's word is canonical already; any other spelling of
    # it (rotated, letters renamed) is canonicalized to the same word.
    for n in range(1, 5):
        for cd in enumerate_chord_diagrams(n):
            w = cd.word[1:] + cd.word[:1]
            names = {ch: "ZYXW"[i] for i, ch in enumerate(sorted(set(w), reverse=True))}
            spelled = "".join(map(names.get, w))
            assert spelled != cd.word
            for seed in range(3):
                s = realize(cd, seed=seed)
                assert s == realize(spelled, seed=seed)
                assert sigma(s) == cd


def test_realize_empty_word_is_the_unknot():
    s = realize("", seed=0)
    assert s.base.n_crossings == 0
    assert sigma(s).word == ""


def test_symbol_of_casson_is_the_order_two_weight_system():
    values, consistent = symbol(casson, 2, samples=20)
    assert consistent
    assert values[ChordDiagram("1212")] == 1
    assert values[ChordDiagram("1122")] == 0


def test_symbol_of_a_non_invariant_is_inconsistent():
    # The crossing count differs between realizations of one chord
    # diagram, so this function of diagrams takes several values on 1212.
    values, consistent = symbol(lambda d: casson(d) * d.n_crossings, 2, samples=5)
    assert not consistent
    assert values[ChordDiagram("1122")] == 0


def test_symbol_refuses_work_past_its_limit():
    # 902 six-chord diagrams * 20 samples * 2^6 resolutions each.
    with pytest.raises(DomainError, match="1,154,560 diagrams, past the limit of 100,000"):
        symbol(casson, 6)
    # 105 * 20 * 2^5 = 67,200 would pass; 105 * 30 * 2^5 = 100,800 does not.
    with pytest.raises(DomainError, match="100,800"):
        symbol(casson, 5, samples=30)


def test_chord_count_table_matches_the_enumeration():
    assert CHORD_COUNTS == tuple(len(enumerate_chord_diagrams(n)) for n in range(7))


def test_symbol_refuses_before_enumerating(monkeypatch):
    def enumerate_(n):
        raise AssertionError(f"enumerated {n}-chord diagrams")

    monkeypatch.setattr(vassiliev, "enumerate_chord_diagrams", enumerate_)
    with pytest.raises(DomainError, match="1,154,560"):
        symbol(casson, 6)
    for n in (-1, 7):
        with pytest.raises(DomainError, match="0 <= n <= 6"):
            symbol(casson, n)
    for samples in (0, -3, True, 2.0, "5", None):
        with pytest.raises(DomainError, match="samples must be an int of at least 1"):
            symbol(casson, 2, samples=samples)
    for seed in (None, 1.5, "x", False):  # None once raised TypeError
        with pytest.raises(DomainError, match="seed must be an int"):
            symbol(casson, 1, samples=1, seed=seed)


@pytest.mark.parametrize(
    "call",
    [
        lambda: symbol(casson, 2.0),
        lambda: check_4t(lambda cd: 0, 2.5),
        lambda: enumerate_chord_diagrams(True),
    ],
    ids=["symbol-float", "check_4t-float", "enumerate-bool"],
)
def test_chord_count_must_be_an_int(call):
    with pytest.raises(DomainError, match="an int 0 <= n <= 6, got"):
        call()


def test_casson_extension_vanishes_on_three_double_points():
    for i, cd in enumerate(enumerate_chord_diagrams(3)):
        for seed in range(4):
            s = realize(cd, seed=97 * i + seed)
            assert extend(casson, s) == 0


def test_casson_symbol_passes_1t_and_4t():
    values, _ = symbol(casson, 2, samples=5)
    assert check_1t(values, 2)
    assert check_4t(values, 2)


def test_4t_rejects_generic_tables_at_order_three():
    table = {cd: i % 3 for i, cd in enumerate(enumerate_chord_diagrams(3))}
    assert not check_4t(table, 3)


def test_4t_accepts_zero_at_order_three():
    assert check_4t(lambda cd: 0, 3)
    assert check_1t(lambda cd: 0, 3)


def test_4t_holds_for_any_table_below_two_chords():
    # With fewer than two chords there is no chord B for A to slide
    # over, so no relation reads the table.
    def table(cd):
        raise AssertionError(f"4T read {cd}")

    for n in (0, 1):
        assert check_4t(table, n)


def check_4t_by_permutations(f, n):
    """The four-term relation over every labelled skeleton word (oracle)."""
    others = [str(i + 1) for i in range(n - 1)]
    for w in set(itertools.permutations(others * 2 + ["A"])):
        for b in others:
            q1 = w.index(b)
            q2 = w.index(b, q1 + 1)
            total = 0
            for slot, sg in ((q1, 1), (q1 + 1, -1), (q2, 1), (q2 + 1, -1)):
                full = list(w)
                full.insert(slot, "A")
                total += sg * f(ChordDiagram(full))
            if total != 0:
                return False
    return True


@pytest.mark.parametrize("n", [2, 3, 4])
def test_4t_matches_the_permutation_oracle(n):
    cds = enumerate_chord_diagrams(n)
    rng = random.Random(n)
    tables = [{cd: 0 for cd in cds}, {cd: 7 for cd in cds}]
    tables += [{cd: int(cd == one) for cd in cds} for one in cds]
    tables += [{cd: rng.randrange(3) for cd in cds} for _ in range(4)]
    for table in tables:
        assert check_4t(table, n) == check_4t_by_permutations(table.__getitem__, n)


def test_4t_size_limit():
    assert check_4t(lambda cd: 0, 5)
    # The range that enumerate_chord_diagrams refuses, both ends.
    for n in (-3, -1, 7):
        with pytest.raises(DomainError, match="0 <= n <= 6"):
            check_4t(lambda cd: 0, n)


@pytest.mark.parametrize("seed", [0, 1, 7, 123, 9001])
def test_casson_symbols_do_not_depend_on_the_seed(seed):
    # Casson has order two: its order-two symbol is 1 on the crossed
    # chord pair and its order-three symbol vanishes, in every sample.
    three = ("112233", "112323", "112332", "121323", "123123")
    for order, want in ((2, {"1122": 0, "1212": 1}), (3, dict.fromkeys(three, 0))):
        values, consistent = symbol(casson, order, samples=20, seed=seed)
        assert consistent and {cd.word: v for cd, v in values.items()} == want


def _linear_words(m):
    """Every matching of 2m points in a row, chords named by first end."""
    if not m:
        return [()]
    # The first point pairs with the point after k others.
    return [
        ("1",) + rest[:k] + ("1",) + rest[k:]
        for rest in (tuple(str(int(c) + 1) for c in w) for w in _linear_words(m - 1))
        for k in range(2 * m - 1)
    ]


def _weight_relations(n):
    """The 1T rows (one per diagram with an isolated chord) and the 4T
    rows (one per skeleton and other chord) over the n-chord diagrams,
    as sparse rows {diagram index: coefficient}."""
    index = {cd: i for i, cd in enumerate(enumerate_chord_diagrams(n))}
    rows = [{i: 1} for cd, i in index.items() if has_isolated_chord(cd)]
    if n < 2:
        return index, rows
    for letters in _linear_words(n - 1):
        w = ("A",) + letters
        for b in map(str, range(1, n)):
            q1 = w.index(b)
            q2 = w.index(b, q1 + 1)
            row = {}
            for slot, sg in ((q1, 1), (q1 + 1, -1), (q2, 1), (q2 + 1, -1)):
                col = index[ChordDiagram(w[:slot] + ("A",) + w[slot:])]
                row[col] = row.get(col, 0) + sg
            if row := {col: v for col, v in row.items() if v}:  # a skeleton may cancel out
                rows.append(row)
    return index, rows


# Dimensions of the weight systems of order n = 0..6: Bar-Natan, "On the
# Vassiliev knot invariants", Topology 34 (1995), table 1.
WEIGHT_SYSTEM_DIMENSIONS = (1, 0, 1, 1, 3, 4, 9)


@pytest.mark.parametrize("n", range(7))
def test_weight_system_dimensions_match_the_published_table(n):
    # A rank mod p can fall short of the rank over Q (p may divide every
    # minor of full size), so the rank is taken at two primes.
    index, rows = _weight_relations(n)
    for p in (2**31 - 1, 1_000_003):
        modular = [{col: v % p for col, v in row.items()} for row in rows]
        div = lambda a, b: a * pow(b, -1, p) % p
        rank = len(pivot_steps(modular, div, 1))
        assert len(index) - rank == WEIGHT_SYSTEM_DIMENSIONS[n], (n, p)


def test_order_four_conway_symbol_satisfies_every_relation():
    values, consistent = symbol(lambda d: coefficient(d, 4), 4, samples=2)
    assert consistent
    assert check_1t(values, 4) and check_4t(values, 4)
    index, rows = _weight_relations(4)
    assert sorted(values, key=index.get) == list(index)
    table = [values[cd] for cd in index]
    assert all(sum(v * table[i] for i, v in row.items()) == 0 for row in rows)
    # A symbol changed on any one diagram breaks a relation.
    for cd in values:
        assert not check_4t({**values, cd: values[cd] + 1}, 4), cd
