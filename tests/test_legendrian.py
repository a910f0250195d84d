import itertools
import time

import pytest

from singlink import legendrian
from singlink.families import Cusp, Elliptic, SizeLimitExceeded
from singlink.legendrian import (
    ChainUnknot,
    ContactSurgeryComponent,
    ContactSurgeryDiagram,
    EllipticCore,
    FramingTooLarge,
    NodalDoublePass,
    PresentationKind,
    SteinHandleDiagram,
    TwoHandleSpec,
    canonical_filling,
    enumerate_stein_fillings,
    rotation_range,
    tb_max,
    to_contact_surgery,
)
from singlink.plumbing import cusp_graph, intersection_matrix
from singlink.sl2z import CycleWord

from helpers import cusp_words, stein_fillings_oracle, suite_families

# one ordering of each multiset of the benchmark's enumerate workload
LARGE_WORDS = [(3,) * 11 + (4,), (4,) * 7 + (3, 2), (6,) * 5 + (3,)]


def test_tb_max_constants():
    assert tb_max(ChainUnknot(1)) == -1
    assert tb_max(EllipticCore()) == 1
    assert tb_max(NodalDoublePass()) == 1


def test_rotation_range_fixed():
    assert rotation_range(ChainUnknot(1), -2) == (0,)
    assert rotation_range(ChainUnknot(1), -5) == (-3, -1, 1, 3)
    assert rotation_range(EllipticCore(), -3) == (-3, -1, 1, 3)
    assert rotation_range(EllipticCore(), -1) == (-1, 1)
    assert rotation_range(NodalDoublePass(), -2) == (-2, 0, 2)  # framing -n+2 with n = 4
    with pytest.raises(FramingTooLarge):
        rotation_range(ChainUnknot(1), 0)
    with pytest.raises(FramingTooLarge):
        rotation_range(EllipticCore(), 1)


def test_rotation_range_symmetric_constant_parity():
    tags = [ChainUnknot(1), EllipticCore(), NodalDoublePass()]
    for tag in tags:
        for framing in range(-8, tb_max(tag)):
            rng = rotation_range(tag, framing)
            assert tuple(-r for r in reversed(rng)) == rng
            assert len({r % 2 for r in rng}) == 1
            assert len(rng) == tb_max(tag) - 1 - framing + 1


def test_two_handle_validation():
    with pytest.raises(ValueError, match="not realizable"):
        TwoHandleSpec(ChainUnknot(1), -3, 0)  # parity breaks
    with pytest.raises(ValueError, match="not realizable"):
        TwoHandleSpec(ChainUnknot(1), -3, 3)  # out of range
    with pytest.raises(FramingTooLarge):
        TwoHandleSpec(ChainUnknot(1), -1, 0)  # tb 0 exceeds tb_max = -1
    handle = TwoHandleSpec(ChainUnknot(1), -3, -1)
    assert handle.to_json_dict() == {"framing": -3, "tb": -2, "rot": -1, "genus": 0}
    assert TwoHandleSpec(EllipticCore(), -3, -3).to_json_dict() == {
        "framing": -3, "tb": -2, "rot": -3, "genus": 1
    }
    with pytest.raises(TypeError):  # tb and genus are not parameters
        TwoHandleSpec(ChainUnknot(1), -3, 0, -2, -1)


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
        assert [h.tag for h in d.handles] == [ChainUnknot(1), ChainUnknot(2), ChainUnknot(3)]
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
        assert enumerate_stein_fillings(family) == stein_fillings_oracle(family), family


@pytest.mark.parametrize("word", LARGE_WORDS)
def test_enumeration_matches_per_diagram_oracle_on_large_words(word):
    family = Cusp(CycleWord(word))
    fillings = enumerate_stein_fillings(family)
    assert len(fillings) >= 4000
    assert fillings == stein_fillings_oracle(family)


def test_enumeration_builds_each_handle_and_pattern_once(monkeypatch):
    built, patterns = [], []
    check = TwoHandleSpec.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(TwoHandleSpec, "__post_init__", counting)
    for family in [Elliptic(6), Cusp(CycleWord((3, 4, 5))), Cusp(CycleWord(LARGE_WORDS[0]))]:
        ranges = [rotation_range(tag, f) for tag, f in family.handle_slots()]
        built.clear()
        patterns.clear()
        handle_slots = type(family).handle_slots

        def counting_slots(f):
            patterns.append(f)
            return handle_slots(f)

        with monkeypatch.context() as m:
            m.setattr(type(family), "handle_slots", counting_slots)
            fillings = enumerate_stein_fillings(family)
        assert len(built) == sum(len(r) for r in ranges)
        assert len(patterns) == 1
        # every diagram takes its handles from those, one per slot
        for i, rng in enumerate(ranges):
            assert len({id(d.handles[i]) for d in fillings}) == len(rng)


def test_diagram_rejects_wrong_cusp_pattern():
    family = Cusp(CycleWord((2, 3, 4)))
    a, b, c = canonical_filling(family, "min").handles
    with pytest.raises(ValueError, match="pattern"):
        SteinHandleDiagram(family, (a, c, b))
    with pytest.raises(ValueError, match="pattern"):
        SteinHandleDiagram(family, (a, b))
    with pytest.raises(ValueError, match="pattern"):
        SteinHandleDiagram(family, (a, b, c, c))
    shifted = TwoHandleSpec(ChainUnknot(4), -4, c.rot)
    with pytest.raises(ValueError, match="pattern"):
        SteinHandleDiagram(family, (a, b, shifted))
    # the pattern an enumeration passes in is checked the same way
    with pytest.raises(ValueError, match="pattern"):
        SteinHandleDiagram(family, (a, c, b), _slots=family.handle_slots())


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


def test_canonical_filling_does_not_list_the_range(monkeypatch):
    def refuse(tag, framing):
        raise AssertionError("canonical_filling listed a rotation range")

    monkeypatch.setattr(legendrian, "rotation_range", refuse)
    start = time.perf_counter()
    assert canonical_filling(Elliptic(10**30), "max").rot_vector == (10**30,)
    huge = 10**25
    assert canonical_filling(Cusp(CycleWord((3, huge))), "min").rot_vector == (-1, 2 - huge)
    assert time.perf_counter() - start < 1.0


def test_diagram_validation():
    handle = TwoHandleSpec(EllipticCore(), -3, -3)
    assert SteinHandleDiagram(Elliptic(3), (handle,)).one_handle_count == 2
    nodal = TwoHandleSpec(NodalDoublePass(), -3, 1)
    assert SteinHandleDiagram(Cusp(CycleWord((5,))), (nodal,)).one_handle_count == 1
    wrong_framing = TwoHandleSpec(EllipticCore(), -4, -4)
    with pytest.raises(ValueError, match="pattern"):
        SteinHandleDiagram(Elliptic(3), (wrong_framing,))
    with pytest.raises(TypeError):  # the 1-handle count is the family's
        SteinHandleDiagram(Elliptic(3), 2, (handle,))


def test_contact_surgery_elliptic_frozen():
    cd = to_contact_surgery(canonical_filling(Elliptic(1), "min"))
    assert [c.contact_coefficient for c in cd.components] == [1, 1, -1]
    assert [(c.tb, c.rot) for c in cd.components] == [(-1, 0), (-1, 0), (0, -1)]
    assert [c.smooth_framing for c in cd.components] == [0, 0, -1]
    assert cd.presentation_matrix == ((0, 0, 0), (0, 0, 0), (0, 0, -1))
    assert cd.presentation_kind is PresentationKind.LITERAL_LINKING
    assert cd.plus_count == 2


def test_contact_surgery_cusp():
    cd = to_contact_surgery(canonical_filling(Cusp(CycleWord((2, 2, 3))), "min"))
    assert [(c.tb, c.rot, c.contact_coefficient) for c in cd.components] == [
        (-1, 0, 1),
        (-1, 0, -1),
        (-1, 0, -1),
        (-2, -1, -1),
    ]
    q = intersection_matrix(cusp_graph(CycleWord((2, 2, 3))))
    expected = ((0, 0, 0, 0),) + tuple((0,) + row for row in q)
    assert cd.presentation_matrix == expected
    assert cd.presentation_kind is PresentationKind.PLUMBING_PRESENTATION


def test_plus_components_match_one_handles():
    for family in [Elliptic(2), Cusp(CycleWord((3, 3))), Cusp(CycleWord((5,)))]:
        diagram = canonical_filling(family, "min")
        cd = to_contact_surgery(diagram)
        assert cd.plus_count == diagram.one_handle_count


def test_contact_component_validation():
    with pytest.raises(ValueError, match="standard"):
        ContactSurgeryComponent(0, 0, 1)
    with pytest.raises(ValueError, match="coefficient"):
        ContactSurgeryComponent(-1, 0, 2)
    comp = ContactSurgeryComponent(-2, 1, -1)
    assert comp.smooth_framing == -3


def test_contact_diagram_validation():
    comp = ContactSurgeryComponent(-1, 0, 1)
    with pytest.raises(ValueError, match="symmetric"):
        ContactSurgeryDiagram((comp,), ((0, 1), (0, 0)), PresentationKind.LITERAL_LINKING)
    with pytest.raises(ValueError, match="size"):
        ContactSurgeryDiagram((comp,), ((0, 0), (0, 0)), PresentationKind.LITERAL_LINKING)


def test_json_shapes():
    diagram = canonical_filling(Cusp(CycleWord((2, 2, 3))), "min")
    data = diagram.to_json_dict()
    assert data["family"] == {"kind": "cusp", "word": [2, 2, 3]}
    assert data["one_handles"] == 1
    assert data["handles"][2] == {"framing": -3, "tb": -2, "rot": -1, "genus": 0}
    cd = to_contact_surgery(diagram).to_json_dict()
    assert cd["components"][0] == {"tb": -1, "rot": 0, "coefficient": 1, "framing": 0}
    assert cd["presentation"]["kind"] == "plumbing_presentation"


def test_diagram_limit_is_checked_before_any_handle(monkeypatch):
    built = []
    monkeypatch.setattr(
        legendrian, "TwoHandleSpec", lambda *a: built.append(a) or TwoHandleSpec(*a)
    )
    monkeypatch.setattr(legendrian, "DIAGRAM_LIMIT", 6)
    assert len(enumerate_stein_fillings(Cusp(CycleWord((2, 3, 4))))) == 6
    assert len(enumerate_stein_fillings(Elliptic(5))) == 6
    built.clear()
    for family in (Cusp(CycleWord((3, 3, 4))), Elliptic(6), Cusp(CycleWord((3, 10**25)))):
        with pytest.raises(SizeLimitExceeded, match="than the limit of 6"):
            enumerate_stein_fillings(family)
    assert built == []
    assert issubclass(SizeLimitExceeded, ValueError)
