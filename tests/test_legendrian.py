import itertools
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlink import legendrian
from singlink._record import Record
from singlink.families import (
    Cusp,
    Elliptic,
    InvalidParameter,
    SizeLimitExceeded,
    UnsupportedPresentation,
)
from singlink.invariants import d3_invariant
from singlink.legendrian import (
    FramingTooLarge,
    canonical_filling,
    check_rot_vector,
    enumerate_stein_fillings,
    filling_rot_vectors,
    handle_json,
    handle_text,
    rotation_range,
    tb_max,
)
from singlink.sl2z import CycleWord

from helpers import cusp_words, presentation_oracle, stein_fillings_oracle, suite_families

# one ordering of each multiset of the benchmark's enumerate workload
LARGE_WORDS = [(3,) * 11 + (4,), (4,) * 7 + (3, 2), (6,) * 5 + (3,)]


def test_tb_max_constants():
    assert tb_max(0) == -1  # a chain unknot
    assert tb_max(1) == 1  # the elliptic 2-handle and the k = 1 double pass
    assert tb_max(3) == 5


def test_rotation_range_fixed():
    assert rotation_range(0, -2) == (0,)
    assert rotation_range(0, -5) == (-3, -1, 1, 3)
    assert rotation_range(1, -3) == (-3, -1, 1, 3)
    assert rotation_range(1, -1) == (-1, 1)
    assert rotation_range(1, -2) == (-2, 0, 2)  # the k = 1 framing -n + 2 with n = 4
    with pytest.raises(FramingTooLarge):
        rotation_range(0, 0)
    with pytest.raises(FramingTooLarge):
        rotation_range(1, 1)


def test_rotation_range_symmetric_constant_parity():
    for genus in (0, 1, 2):
        for framing in range(-8, tb_max(genus)):
            rng = rotation_range(genus, framing)
            assert tuple(-r for r in reversed(rng)) == rng
            assert len({r % 2 for r in rng}) == 1
            assert len(rng) == tb_max(genus) - 1 - framing + 1


def test_two_handle_validation():
    # a 2-handle is its slot and its rot: check_rot_vector checks each rot
    # against its slot, here (0, -3) twice, and handle_json writes tb
    family = Cusp(CycleWord((3, 3)))
    assert family.handle_slots() == ((0, -3), (0, -3))
    with pytest.raises(ValueError, match="not realizable"):
        check_rot_vector(family, (-1, 0))  # parity breaks
    with pytest.raises(ValueError, match="not realizable"):
        check_rot_vector(family, (3, -1))  # out of range
    with pytest.raises(FramingTooLarge):
        rotation_range(0, -1)  # tb 0 exceeds tb_max = -1
    rots = check_rot_vector(family, (-1, 1))
    handles = tuple((*slot, r) for slot, r in zip(family.handle_slots(), rots))
    assert handles == ((0, -3, -1), (0, -3, 1))
    assert handle_json(*handles[0]) == {"framing": -3, "tb": -2, "rot": -1, "genus": 0}
    assert handle_json(1, -3, -3) == {"framing": -3, "tb": -2, "rot": -3, "genus": 1}
    with pytest.raises(TypeError):  # tb is not a parameter
        handle_json(0, -3, 0, -2)
    rot = check_rot_vector(family, (True, -1))[0]  # stored as the int it stands for
    assert rot == 1 and type(rot) is int
    # a float framing would give a float tb
    for framing in (-3.0, Fraction(-3)):
        with pytest.raises(TypeError):
            rotation_range(1, framing)
    with pytest.raises(TypeError):
        check_rot_vector(Elliptic(3), (-3.0,))


# each rule that reads a genus, called at a slot it accepts when the genus is 1
GENUS_RULES = {
    "tb_max": tb_max,
    "rotation_range": lambda genus: rotation_range(genus, -3),
}


@pytest.mark.parametrize("rule", GENUS_RULES.values(), ids=GENUS_RULES.keys())
def test_genus_is_a_nonnegative_int(rule):
    # a plain int genus can be wrong where a handle type could not: every
    # rule refuses a negative genus and anything but an int
    rule(1)
    rule(True)  # a bool is an int
    for genus in (-1, -2, -10**30):
        with pytest.raises(InvalidParameter, match="genus must be nonnegative"):
            rule(genus)
    for genus in (1.0, Fraction(1), "1"):
        with pytest.raises(TypeError):
            rule(genus)


def handles_of(family, rots):
    """The (genus, smooth framing, rot) triple of each 2-handle."""
    return tuple((*slot, r) for slot, r in zip(family.handle_slots(), rots))


def test_enumerate_elliptic_counts_and_sets():
    for n in range(1, 11):
        family = Elliptic(n)
        fillings = enumerate_stein_fillings(family)
        assert len(fillings) == n + 1
        assert [rots[0] for rots in fillings] == list(range(-n, n + 1, 2))
        assert family.one_handle_count == 2
        for rots in fillings:
            assert handles_of(family, rots) == ((1, -n, rots[0]),)
            handle = handle_json(*handles_of(family, rots)[0])
            assert handle["genus"] == 1
            assert handle["framing"] == -n == handle["tb"] - 1


def test_enumerate_cusp_counts():
    for word in cusp_words(4, 5):
        family = Cusp(word)
        fillings = enumerate_stein_fillings(family)
        expected = 1
        for n in word:
            expected *= n - 1
        assert len(fillings) == expected
        assert family.one_handle_count == 1
        for rots in fillings:
            for h in [handle_json(*handle) for handle in handles_of(family, rots)]:
                assert h["framing"] == h["tb"] - 1


def test_enumerate_cusp_structure():
    family = Cusp(CycleWord((2, 2, 3)))
    fillings = enumerate_stein_fillings(family)
    assert fillings == ((0, 0, -1), (0, 0, 1))
    for rots in fillings:
        assert [genus for genus, _, _ in handles_of(family, rots)] == [0] * 3
        assert [framing for _, framing, _ in handles_of(family, rots)] == [-2, -2, -3]

    nodal = Cusp(CycleWord((4,)))
    assert enumerate_stein_fillings(nodal) == ((-2,), (0,), (2,))
    assert handles_of(nodal, (-2,)) == ((1, -2, -2),)


def test_enumeration_is_lexicographic():
    for family in [Elliptic(4), Cusp(CycleWord((3, 4))), Cusp(CycleWord((5,)))]:
        vectors = list(enumerate_stein_fillings(family))
        assert vectors == sorted(vectors)


def assert_matches_fillings_oracle(family, fillings):
    """The rot vectors are the oracle's, and the handle JSON written at
    each is the oracle's dicts."""
    oracle = stein_fillings_oracle(family)
    assert fillings == tuple(rots for rots, _ in oracle), family
    for rots, handles in oracle:
        assert [handle_json(*h) for h in handles_of(family, rots)] == handles, family


def test_enumeration_matches_per_diagram_oracle_over_suite():
    for family in suite_families():
        assert_matches_fillings_oracle(family, enumerate_stein_fillings(family))
        assert_matches_fillings_oracle(family, tuple(filling_rot_vectors(family)))


@pytest.mark.parametrize("word", LARGE_WORDS)
def test_enumeration_matches_per_diagram_oracle_on_large_words(word):
    family = Cusp(CycleWord(word))
    fillings = enumerate_stein_fillings(family)
    assert len(fillings) >= 4000
    assert_matches_fillings_oracle(family, fillings)


def test_enumeration_builds_no_handle_and_reads_the_pattern_once(monkeypatch):
    for family in [Elliptic(6), Cusp(CycleWord((3, 4, 5))), Cusp(CycleWord(LARGE_WORDS[0]))]:
        expected = tuple(rots for rots, _ in stein_fillings_oracle(family))
        patterns = []
        handle_slots = type(family).handle_slots

        def counting_slots(f):
            patterns.append(f)
            return handle_slots(f)

        with monkeypatch.context() as m:
            m.setattr(type(family), "handle_slots", counting_slots)
            fillings = enumerate_stein_fillings(family)
        assert patterns == [family]
        assert fillings == expected
        assert all(type(rots) is tuple for rots in fillings)


# a family of each surgery picture, a realizable rot
# vector, and vectors check_rot_vector refuses: a last rot out of range and
# one of the wrong parity
PATTERNS = [
    (Cusp(CycleWord((2, 3, 4))), (0, -1, 2), [(0, -1, 4), (0, 1, 1)]),
    (Elliptic(3), (-3,), [(5,), (-2,)]),
    (Cusp(CycleWord((5,))), (1,), [(-5,), (0,)]),
]


def test_diagram_rejects_wrong_cusp_pattern():
    assert [family.handle_slots()[-1] for family, _, _ in PATTERNS] == [(0, -4), (1, -3), (1, -3)]
    for family, rots, refused in PATTERNS:
        assert check_rot_vector(family, rots) in enumerate_stein_fillings(family)
        for bad in (rots[:-1], rots + (rots[-1],), ()):  # a rot vector of the wrong length
            with pytest.raises(ValueError, match="rotation numbers for the"):
                check_rot_vector(family, bad)
        for bad in refused:
            with pytest.raises(ValueError, match="not realizable"):
                check_rot_vector(family, bad)
        for entry in (float(rots[-1]), Fraction(rots[-1]), str(rots[-1])):
            with pytest.raises(TypeError):
                check_rot_vector(family, rots[:-1] + (entry,))


def test_diagram_validation():
    for family, rots, _ in PATTERNS:
        checked = check_rot_vector(family, list(rots))
        assert checked == rots and type(checked) is tuple
        with pytest.raises(TypeError):  # the 1-handle count is the family's
            check_rot_vector(family, 2, rots)
        with pytest.raises(TypeError):  # a diagram is its rot vector, not its handles
            check_rot_vector(family, handles_of(family, rots))


families_for_rot_vectors = st.one_of(
    st.lists(st.integers(2, 7), min_size=1, max_size=5)
    .filter(lambda w: max(w) >= 3)
    .map(lambda w: Cusp(CycleWord(w))),
    st.integers(1, 20).map(Elliptic),
)


@settings(max_examples=60, deadline=None)
@given(families_for_rot_vectors, st.data())
def test_check_rot_vector_accepts_exactly_the_enumeration(family, data):
    # every listed vector comes back unchanged; in up to 30 of them, one
    # entry moved by 1 or 2 is refused unless the moved vector is in the
    # product of the ranges, and a vector one entry short or long is refused
    ranges = [rotation_range(*slot) for slot in family.handle_slots()]
    listed = list(filling_rot_vectors(family))
    realizable = set(itertools.product(*ranges))
    assert set(listed) == realizable
    assert all(check_rot_vector(family, rots) == rots for rots in listed)
    for _ in range(min(30, len(listed))):
        rots = data.draw(st.sampled_from(listed))
        for bad in (rots[:-1], rots + (rots[-1],)):
            with pytest.raises(ValueError, match="rotation numbers for the"):
                check_rot_vector(family, bad)
        for i, step in itertools.product(range(len(rots)), (-2, -1, 1, 2)):
            moved = rots[:i] + (rots[i] + step,) + rots[i + 1 :]
            if moved in realizable:
                assert check_rot_vector(family, moved) == moved
            else:
                with pytest.raises(ValueError, match="not realizable"):
                    check_rot_vector(family, moved)


ZIGZAGS = re.compile(
    r"framing (-?\d+), tb (-?\d+), rot (-?\d+) \((\d+) left / (\d+) right zigzags\)"
)


def zigzags(genus, framing, rot):
    """The left and right zigzag counts that handle_text reports, after
    checking the framing, tb and rot it reports."""
    match = ZIGZAGS.fullmatch(handle_text(genus, framing, rot))
    assert match, handle_text(genus, framing, rot)
    f, tb, r, left, right = map(int, match.groups())
    assert (f, tb, r) == (framing, framing + 1, rot)
    return left, right


def test_handle_text_splits_the_zigzags():
    # the s stabilizations of a slot are L left and R right zigzags with
    # L + R = s and R - L = rot, and the min canonical filling takes every
    # zigzag on the left
    families = suite_families()  # Elliptic(1..10) and the suite's cusp words
    slots = {slot for family in families for slot in family.handle_slots()}
    assert len(slots) == 14
    for genus, framing in slots:
        s = tb_max(genus) - 1 - framing
        for rot in rotation_range(genus, framing):
            left, right = zigzags(genus, framing, rot)
            assert (left + right, right - left) == (s, rot), (genus, framing, rot)
    for family in families:
        for sign in ("min", "max"):
            rots = canonical_filling(family.handle_slots(), sign)
            for genus, framing, rot in handles_of(family, rots):
                s = tb_max(genus) - 1 - framing
                expected = (s, 0) if sign == "min" else (0, s)
                assert zigzags(genus, framing, rot) == expected, (family, sign)
    assert handle_text(1, -3, 1) == "framing -3, tb -2, rot 1 (1 left / 2 right zigzags)"


def test_handle_slots_build_no_record(monkeypatch):
    families = (Elliptic(3), Elliptic(7), Cusp((4,)), Cusp((5,)), Cusp((2, 3, 4)), Cusp((3, 5)))

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"handle_slots built a {type(self).__name__}")

    # building a pattern constructs no record: every record constructor refuses
    for cls in (Record, *Record.__subclasses__()):
        monkeypatch.setattr(cls, "__init__", refuse)
    slots = [family.handle_slots() for family in families]
    monkeypatch.undo()
    assert slots == [
        ((1, -3),),
        ((1, -7),),
        ((1, -2),),
        ((1, -3),),
        ((0, -2), (0, -3), (0, -4)),
        ((0, -3), (0, -5)),
    ]
    assert all(type(x) is int for pattern in slots for slot in pattern for x in slot)


def test_canonical_filling():
    assert canonical_filling(Cusp(CycleWord((2, 2, 3))).handle_slots(), "min") == (0, 0, -1)
    assert canonical_filling(Elliptic(5).handle_slots(), "min") == (-5,)
    assert canonical_filling(Elliptic(5).handle_slots(), "max") == (5,)
    assert canonical_filling(Cusp(CycleWord((4,))).handle_slots(), "max") == (2,)
    with pytest.raises(ValueError):
        canonical_filling(Elliptic(5).handle_slots(), "middle")


def test_canonical_rot_equals_framing_rule():
    # min rot = framing + 2 - 2 * genus at every handle
    for family in suite_families():
        minimal = canonical_filling(family.handle_slots(), "min")
        maximal = canonical_filling(family.handle_slots(), "max")
        for (genus, framing), r_min, r_max in zip(family.handle_slots(), minimal, maximal):
            target = framing - 2 * genus + 2
            assert r_min == target
            assert r_max == -target
        assert maximal == tuple(-r for r in minimal)


def test_canonical_extremes_match_rotation_range_over_suite():
    for family in suite_families():
        ranges = [rotation_range(*slot) for slot in family.handle_slots()]
        assert canonical_filling(family.handle_slots(), "min") == tuple(map(min, ranges))
        assert canonical_filling(family.handle_slots(), "max") == tuple(map(max, ranges))


def test_canonical_filling_builds_the_handle_pattern_once(monkeypatch):
    # canonical_filling reads the slots it is given and builds no pattern of
    # its own, so both signs share the one pattern the caller built
    for family in (Elliptic(3), Cusp(CycleWord((2, 3, 4)))):
        patterns = []
        handle_slots = type(family).handle_slots

        def counting_slots(f, _handle_slots=handle_slots):
            patterns.append(f)
            return _handle_slots(f)

        with monkeypatch.context() as m:
            m.setattr(type(family), "handle_slots", counting_slots)
            slots = family.handle_slots()
            pair = [canonical_filling(slots, sign) for sign in ("min", "max")]
        assert patterns == [family], family
        assert pair[1] == tuple(-r for r in pair[0]) != (), family


def test_canonical_filling_does_not_list_the_range(monkeypatch):
    def refuse(genus, framing):
        raise AssertionError("canonical_filling listed a rotation range")

    monkeypatch.setattr(legendrian, "rotation_range", refuse)
    start = time.perf_counter()
    assert canonical_filling(Elliptic(10**30).handle_slots(), "max") == (10**30,)
    huge = 10**25
    assert canonical_filling(Cusp(CycleWord((3, huge))).handle_slots(), "min") == (-1, 2 - huge)
    assert time.perf_counter() - start < 1.0


def test_contact_surgery_elliptic_frozen():
    # Elliptic(1) read as a contact surgery: a (+1)-surgery on a standard
    # unknot (tb -1, so framing 0) per 1-handle and a (-1)-surgery on the
    # 2-handle (tb 0, so framing -1), with the padded Q as their linking
    # matrix, gives the d3 that Gompf's formula gives on the 2-handle alone
    family = Elliptic(1)
    rots = canonical_filling(family.handle_slots(), "min")
    (handle,) = [handle_json(*h) for h in handles_of(family, rots)]
    assert family.one_handle_count == 2
    assert (handle["tb"], handle["rot"], handle["framing"]) == (0, -1, -1)
    assert presentation_oracle(family) == ((0, 0, 0), (0, 0, 0), (0, 0, -1))
    # c^2 = -1, sigma = -1, chi = 4 and q = 2
    assert d3_invariant(family, rots) == Fraction(-1 + 3 - 8, 4) + 2


def test_contact_surgery_cusp():
    # Gompf's formula applies to a cusp's Q, but its d3 is held back until
    # the value is cross-checked against the resolution graph
    for word in ((2, 2, 3), (5,), (3, 3)):
        family = Cusp(CycleWord(word))
        with pytest.raises(UnsupportedPresentation, match="resolution-graph cross-check"):
            d3_invariant(family, canonical_filling(family.handle_slots(), "min"))


def test_plus_components_match_one_handles():
    # the elliptic presentation has a zero-framed row per 1-handle, taken
    # as a (+1)-surgery on a standard unknot, ahead of a row per 2-handle
    for family in [Elliptic(n) for n in range(1, 11)]:
        rots = canonical_filling(family.handle_slots(), "min")
        q = presentation_oracle(family)
        assert len(q) == family.one_handle_count + len(rots)
        assert all(q[i][i] == 0 for i in range(family.one_handle_count))


def test_json_shapes():
    family = Cusp(CycleWord((2, 2, 3)))
    handles = handles_of(family, canonical_filling(family.handle_slots(), "min"))
    assert family.to_json_dict() == {"kind": "cusp", "word": [2, 2, 3]}
    assert family.one_handle_count == 1
    assert handle_json(*handles[2]) == {"framing": -3, "tb": -2, "rot": -1, "genus": 0}


def test_diagram_limit_is_checked_before_any_handle(monkeypatch):
    built = []
    monkeypatch.setattr(
        legendrian, "rotation_range", lambda *a: built.append(a) or rotation_range(*a)
    )
    monkeypatch.setattr(legendrian, "DIAGRAM_LIMIT", 6)
    assert len(enumerate_stein_fillings(Cusp(CycleWord((2, 3, 4))))) == 6
    assert len(enumerate_stein_fillings(Elliptic(5))) == 6
    built.clear()
    for family in (Cusp(CycleWord((3, 3, 4))), Elliptic(6), Cusp(CycleWord((3, 10**25)))):
        with pytest.raises(SizeLimitExceeded, match="than the limit of 6"):
            enumerate_stein_fillings(family)
        # the rot vectors are refused at the call, not at the first vector
        with pytest.raises(SizeLimitExceeded, match="than the limit of 6"):
            filling_rot_vectors(family)
    assert built == []
    assert issubclass(SizeLimitExceeded, ValueError)
