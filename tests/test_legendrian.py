import itertools
import time
from fractions import Fraction

import pytest

from singlink import legendrian
from singlink._record import Record
from singlink.families import (
    CHAIN_UNKNOT,
    ELLIPTIC_CORE,
    NODAL_DOUBLE_PASS,
    ChainUnknot,
    Cusp,
    Elliptic,
    EllipticCore,
    NodalDoublePass,
    SizeLimitExceeded,
    UnsupportedPresentation,
)
from singlink.invariants import d3_invariant
from singlink.legendrian import (
    FramingTooLarge,
    SteinHandleDiagram,
    TwoHandleSpec,
    canonical_filling,
    enumerate_stein_fillings,
    filling_rot_vectors,
    rotation_range,
    tb_max,
)
from singlink.sl2z import CycleWord

from helpers import cusp_words, presentation_oracle, stein_fillings_oracle, suite_families

# one ordering of each multiset of the benchmark's enumerate workload
LARGE_WORDS = [(3,) * 11 + (4,), (4,) * 7 + (3, 2), (6,) * 5 + (3,)]


def test_tb_max_constants():
    assert tb_max(ChainUnknot()) == -1
    assert tb_max(EllipticCore()) == 1
    assert tb_max(NodalDoublePass()) == 1


def test_rotation_range_fixed():
    assert rotation_range(ChainUnknot(), -2) == (0,)
    assert rotation_range(ChainUnknot(), -5) == (-3, -1, 1, 3)
    assert rotation_range(EllipticCore(), -3) == (-3, -1, 1, 3)
    assert rotation_range(EllipticCore(), -1) == (-1, 1)
    assert rotation_range(NodalDoublePass(), -2) == (-2, 0, 2)  # framing -n+2 with n = 4
    with pytest.raises(FramingTooLarge):
        rotation_range(ChainUnknot(), 0)
    with pytest.raises(FramingTooLarge):
        rotation_range(EllipticCore(), 1)


def test_rotation_range_symmetric_constant_parity():
    tags = [ChainUnknot(), EllipticCore(), NodalDoublePass()]
    for tag in tags:
        for framing in range(-8, tb_max(tag)):
            rng = rotation_range(tag, framing)
            assert tuple(-r for r in reversed(rng)) == rng
            assert len({r % 2 for r in rng}) == 1
            assert len(rng) == tb_max(tag) - 1 - framing + 1


def test_two_handle_validation():
    with pytest.raises(ValueError, match="not realizable"):
        TwoHandleSpec(ChainUnknot(), -3, 0)  # parity breaks
    with pytest.raises(ValueError, match="not realizable"):
        TwoHandleSpec(ChainUnknot(), -3, 3)  # out of range
    with pytest.raises(FramingTooLarge):
        TwoHandleSpec(ChainUnknot(), -1, 0)  # tb 0 exceeds tb_max = -1
    handle = TwoHandleSpec(ChainUnknot(), -3, -1)
    assert handle.to_json_dict() == {"framing": -3, "tb": -2, "rot": -1, "genus": 0}
    assert TwoHandleSpec(EllipticCore(), -3, -3).to_json_dict() == {
        "framing": -3, "tb": -2, "rot": -3, "genus": 1
    }
    with pytest.raises(TypeError):  # tb and genus are not parameters
        TwoHandleSpec(ChainUnknot(), -3, 0, -2, -1)
    # a float framing would give a float tb
    with pytest.raises(TypeError):
        TwoHandleSpec(EllipticCore(), -3.0, -3)
    with pytest.raises(TypeError):
        TwoHandleSpec(EllipticCore(), -3, -3.0)


def test_enumerate_elliptic_counts_and_sets():
    for n in range(1, 11):
        fillings = enumerate_stein_fillings(Elliptic(n))
        assert len(fillings) == n + 1
        rots = [d.handles[0].rot for d in fillings]
        assert rots == list(range(-n, n + 1, 2))
        for d in fillings:
            assert d.one_handle_count == 2
            handle = d.handles[0]
            assert isinstance(handle.tag, EllipticCore)
            assert handle.smooth_framing == -n == handle.tb - 1
            assert handle.surface_genus == 1


def test_enumerate_cusp_counts():
    for word in cusp_words(4, 5):
        fillings = enumerate_stein_fillings(Cusp(word))
        expected = 1
        for n in word:
            expected *= n - 1
        assert len(fillings) == expected
        for d in fillings:
            assert d.one_handle_count == 1
            for h in d.handles:
                assert h.smooth_framing == h.tb - 1


def test_enumerate_cusp_structure():
    fillings = enumerate_stein_fillings(Cusp(CycleWord((2, 2, 3))))
    assert [d.rot_vector for d in fillings] == [(0, 0, -1), (0, 0, 1)]
    for d in fillings:
        assert [h.tag for h in d.handles] == [ChainUnknot()] * 3
        assert [h.smooth_framing for h in d.handles] == [-2, -2, -3]
        assert all(h.surface_genus == 0 for h in d.handles)

    nodal = enumerate_stein_fillings(Cusp(CycleWord((4,))))
    assert [d.rot_vector for d in nodal] == [(-2,), (0,), (2,)]
    handle = nodal[0].handles[0]
    assert isinstance(handle.tag, NodalDoublePass)
    assert handle.smooth_framing == -2
    assert handle.surface_genus == 1


def test_enumeration_is_lexicographic():
    for family in [Elliptic(4), Cusp(CycleWord((3, 4))), Cusp(CycleWord((5,)))]:
        vectors = [d.rot_vector for d in enumerate_stein_fillings(family)]
        assert vectors == sorted(vectors)


def test_enumeration_matches_per_diagram_oracle_over_suite():
    for family in suite_families():
        oracle = stein_fillings_oracle(family)
        assert enumerate_stein_fillings(family) == oracle, family
        assert list(filling_rot_vectors(family)) == [d.rot_vector for d in oracle], family


@pytest.mark.parametrize("word", LARGE_WORDS)
def test_enumeration_matches_per_diagram_oracle_on_large_words(word):
    family = Cusp(CycleWord(word))
    fillings = enumerate_stein_fillings(family)
    assert len(fillings) >= 4000
    assert fillings == stein_fillings_oracle(family)


def test_enumeration_builds_no_handle_and_reads_the_pattern_once(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("the enumeration built a TwoHandleSpec")

    for family in [Elliptic(6), Cusp(CycleWord((3, 4, 5))), Cusp(CycleWord(LARGE_WORDS[0]))]:
        expected = stein_fillings_oracle(family)
        patterns = []
        handle_slots = type(family).handle_slots

        def counting_slots(f):
            patterns.append(f)
            return handle_slots(f)

        with monkeypatch.context() as m:
            m.setattr(TwoHandleSpec, "__init__", refuse)
            m.setattr(type(family), "handle_slots", counting_slots)
            fillings = enumerate_stein_fillings(family)
        assert patterns == [family]
        assert fillings == expected
        # the rot vector is stored, not rebuilt on each read
        assert all(d.rot_vector is d.rot_vector for d in fillings)


# for each tag, a family whose last slot has that tag, a realizable rot
# vector, and vectors the constructor refuses: a last rot out of range and
# one of the wrong parity
PATTERNS = [
    (Cusp(CycleWord((2, 3, 4))), (0, -1, 2), [(0, -1, 4), (0, 1, 1)]),
    (Elliptic(3), (-3,), [(5,), (-2,)]),
    (Cusp(CycleWord((5,))), (1,), [(-5,), (0,)]),
]


def test_diagram_rejects_wrong_cusp_pattern():
    assert {type(family.handle_slots()[-1][0]) for family, _, _ in PATTERNS} == {
        ChainUnknot, EllipticCore, NodalDoublePass
    }
    for family, rots, refused in PATTERNS:
        assert SteinHandleDiagram(family, rots) in enumerate_stein_fillings(family)
        for bad in (rots[:-1], rots + (rots[-1],), ()):  # a rot vector of the wrong length
            with pytest.raises(ValueError, match="rotation numbers for the"):
                SteinHandleDiagram(family, bad)
        for bad in refused:
            with pytest.raises(ValueError, match="not realizable"):
                SteinHandleDiagram(family, bad)
        for entry in (float(rots[-1]), Fraction(rots[-1]), str(rots[-1])):
            with pytest.raises(TypeError):
                SteinHandleDiagram(family, rots[:-1] + (entry,))


def test_diagram_validation():
    for family, rots, _ in PATTERNS:
        diagram = SteinHandleDiagram(family, list(rots))
        assert diagram.rot_vector == rots and type(diagram.rot_vector) is tuple
        assert diagram.one_handle_count == family.one_handle_count
        slots = family.handle_slots()
        assert diagram.handles == tuple(TwoHandleSpec(*slot, r) for slot, r in zip(slots, rots))
        with pytest.raises(TypeError):  # the 1-handle count is the family's
            SteinHandleDiagram(family, 2, rots)
        with pytest.raises(TypeError):  # a diagram is its rot vector, not its handles
            SteinHandleDiagram(family, diagram.handles)


def test_handle_slots_share_the_tag_constants(monkeypatch):
    families = (Elliptic(3), Elliptic(7), Cusp((4,)), Cusp((5,)), Cusp((2, 3, 4)), Cusp((3, 5)))

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"handle_slots built a {type(self).__name__}")

    # building a pattern constructs no record: every record constructor refuses
    for cls in (Record, *Record.__subclasses__()):
        monkeypatch.setattr(cls, "__init__", refuse)
    tags = {}
    for family in families + families:  # every call, every family
        for tag, _ in family.handle_slots():
            assert tags.setdefault(type(tag), tag) is tag, family
    monkeypatch.undo()
    assert tags[ChainUnknot] is CHAIN_UNKNOT
    assert tags[EllipticCore] is ELLIPTIC_CORE
    assert tags[NodalDoublePass] is NODAL_DOUBLE_PASS
    assert len(tags) == 3


def test_canonical_filling():
    assert canonical_filling(Cusp(CycleWord((2, 2, 3))), "min").rot_vector == (0, 0, -1)
    assert canonical_filling(Elliptic(5), "min").rot_vector == (-5,)
    assert canonical_filling(Elliptic(5), "max").rot_vector == (5,)
    assert canonical_filling(Cusp(CycleWord((4,))), "max").rot_vector == (2,)
    with pytest.raises(ValueError):
        canonical_filling(Elliptic(5), "middle")


def test_canonical_rot_equals_framing_rule():
    # min rot = framing + 2 - 2 * genus at every handle
    for family in suite_families():
        minimal = canonical_filling(family, "min")
        maximal = canonical_filling(family, "max")
        for h_min, h_max in zip(minimal.handles, maximal.handles):
            target = h_min.smooth_framing - 2 * h_min.surface_genus + 2
            assert h_min.rot == target
            assert h_max.rot == -target
        assert maximal.rot_vector == tuple(-r for r in minimal.rot_vector)


def test_canonical_extremes_match_rotation_range_over_suite():
    for family in suite_families():
        ranges = [rotation_range(tag, f) for tag, f in family.handle_slots()]
        assert canonical_filling(family, "min").rot_vector == tuple(map(min, ranges))
        assert canonical_filling(family, "max").rot_vector == tuple(map(max, ranges))


def test_canonical_filling_builds_the_handle_pattern_once(monkeypatch):
    for family in (Elliptic(3), Cusp(CycleWord((2, 3, 4)))):
        patterns = []
        handle_slots = type(family).handle_slots

        def counting_slots(f, _handle_slots=handle_slots):
            patterns.append(f)
            return _handle_slots(f)

        with monkeypatch.context() as m:
            m.setattr(type(family), "handle_slots", counting_slots)
            for sign in ("min", "max"):
                patterns.clear()
                canonical_filling(family, sign)
                assert patterns == [family], (family, sign)


def test_canonical_filling_does_not_list_the_range(monkeypatch):
    def refuse(tag, framing):
        raise AssertionError("canonical_filling listed a rotation range")

    monkeypatch.setattr(legendrian, "rotation_range", refuse)
    start = time.perf_counter()
    assert canonical_filling(Elliptic(10**30), "max").rot_vector == (10**30,)
    huge = 10**25
    assert canonical_filling(Cusp(CycleWord((3, huge))), "min").rot_vector == (-1, 2 - huge)
    assert time.perf_counter() - start < 1.0


def test_contact_surgery_elliptic_frozen():
    # Elliptic(1) read as a contact surgery: a (+1)-surgery on a standard
    # unknot (tb -1, so framing 0) per 1-handle and a (-1)-surgery on the
    # 2-handle (tb 0, so framing -1), with the padded Q as their linking
    # matrix, gives the d3 that Gompf's formula gives on the 2-handle alone
    diagram = canonical_filling(Elliptic(1), "min")
    (handle,) = diagram.handles
    assert diagram.one_handle_count == 2
    assert (handle.tb, handle.rot, handle.smooth_framing) == (0, -1, -1)
    assert presentation_oracle(diagram.family) == ((0, 0, 0), (0, 0, 0), (0, 0, -1))
    # c^2 = -1, sigma = -1, chi = 4 and q = 2
    assert d3_invariant(diagram) == Fraction(-1 + 3 - 8, 4) + 2


def test_contact_surgery_cusp():
    # a cusp presentation has a row per 2-handle and none for the 1-handle's
    # (+1)-surgery, so it is not the linking matrix of the surgery components
    for word in ((2, 2, 3), (5,), (3, 3)):
        diagram = canonical_filling(Cusp(CycleWord(word)), "min")
        with pytest.raises(UnsupportedPresentation, match="no linking matrix"):
            d3_invariant(diagram)


def test_plus_components_match_one_handles():
    # the elliptic presentation has a zero-framed row per 1-handle, taken
    # as a (+1)-surgery on a standard unknot, ahead of a row per 2-handle
    for family in [Elliptic(n) for n in range(1, 11)]:
        diagram = canonical_filling(family, "min")
        q = presentation_oracle(family)
        assert len(q) == diagram.one_handle_count + len(diagram.handles)
        assert all(q[i][i] == 0 for i in range(diagram.one_handle_count))


def test_json_shapes():
    diagram = canonical_filling(Cusp(CycleWord((2, 2, 3))), "min")
    data = diagram.to_json_dict()
    assert data["family"] == {"kind": "cusp", "word": [2, 2, 3]}
    assert data["one_handles"] == 1
    assert data["handles"][2] == {"framing": -3, "tb": -2, "rot": -1, "genus": 0}


def test_diagram_limit_is_checked_before_any_handle(monkeypatch):
    built = []
    monkeypatch.setattr(
        legendrian, "TwoHandleSpec", lambda *a: built.append(a) or TwoHandleSpec(*a)
    )
    monkeypatch.setattr(
        legendrian, "rotation_range", lambda *a: built.append(a) or rotation_range(*a)
    )
    realized = legendrian._realized
    monkeypatch.setattr(legendrian, "_realized", lambda *a: built.append(a) or realized(*a))
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
