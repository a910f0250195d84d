import sys
from contextlib import contextmanager
from fractions import Fraction

from singlink import invariants, legendrian, linalg
from singlink.families import Cusp, Elliptic
from singlink.plumbing import intersection_matrix
from singlink.sl2z import CycleWord
from singlink.verify import suite_families, verify_family

from helpers import verify_family_reference


@contextmanager
def counted_snf():
    """Count smith_normal_form calls through every singlink name bound to it."""
    calls = []
    original = linalg.smith_normal_form

    def counting(matrix):
        calls.append(matrix)
        return original(matrix)

    bound = [
        (module, name)
        for key, module in list(sys.modules.items())
        if key == "singlink" or key.startswith("singlink.")
        for name, value in list(vars(module).items())
        if value is original
    ]
    for module, name in bound:
        setattr(module, name, counting)
    try:
        yield calls
    finally:
        for module, name in bound:
            setattr(module, name, original)


def test_verify_family_checks_are_named():
    checks = verify_family(Cusp((2, 2, 3)))
    names = [name for name, _ in checks]
    assert "triple homology agreement" in names
    assert "factorization roundtrip" in names
    assert all(ok for _, ok in checks)


def test_suite_families_shape():
    families = suite_families()
    assert len([f for f in families if isinstance(f, Elliptic)]) == 10
    assert len(families) == 346


def test_d3_check_compares_both_signs(monkeypatch):
    checks = dict(verify_family(Elliptic(3)))
    assert checks["d3 computed for both signs"] is True
    # a d3 that differs between the two canonical structures must fail the check
    monkeypatch.setattr(
        invariants, "d3_invariant", lambda diagram: Fraction(sum(diagram.rot_vector))
    )
    checks = dict(verify_family(Elliptic(3)))
    assert checks["d3 computed for both signs"] is False
    assert checks["triple homology agreement"] is True


def test_one_snf_per_pair_of_euler_classes():
    for family, expected in (
        (Cusp(CycleWord((2, 3, 4))), 3),
        (Cusp(CycleWord((3,))), 3),
        (Elliptic(3), 7),
    ):
        with counted_snf() as calls:
            checks = verify_family(family)
        assert all(ok for _, ok in checks)
        assert len(calls) == expected, family


def test_euler_classes_match_euler_class_over_suite():
    for family in suite_families():
        vectors = tuple(
            legendrian.canonical_filling(family, sign).rot_vector for sign in ("min", "max")
        )
        pair = invariants.euler_classes(family, vectors)
        assert pair == tuple(invariants.euler_class(family, v) for v in vectors), family


def test_verify_family_matches_reference_over_suite():
    for family in suite_families():
        assert verify_family(family) == verify_family_reference(family), family


def test_repeated_calls_run_the_same_snfs():
    # nothing is kept on the family object or in a module between calls
    for family in (Cusp(CycleWord((2, 3, 4))), Elliptic(3)):
        counts = []
        for _ in range(2):
            with counted_snf() as calls:
                verify_family(family)
            counts.append(len(calls))
        assert counts[0] == counts[1], family


def test_family_objects_built_by_one_verify_call(monkeypatch):
    for cls, family in ((Cusp, Cusp(CycleWord((2, 3, 4)))), (Elliptic, Elliptic(3))):
        calls = {}
        for name in ("openbook", "monodromy", "graph", "presentation"):
            original = getattr(cls, name)

            def counting(self, _name=name, _original=original):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(self)

            monkeypatch.setattr(cls, name, counting)
        verify_family(family)
        monkeypatch.undo()
        assert calls["monodromy"] == calls["graph"] == 1, family
        assert calls["openbook"] == 1, family
        if cls is Cusp:
            assert "presentation" not in calls  # the graph's form is the cusp presentation
        else:
            # one for the Euler classes, one per canonical surgery diagram
            assert calls["presentation"] == 3


def test_cusp_presentation_is_the_plumbing_form():
    for family in suite_families():
        if isinstance(family, Cusp):
            assert family.presentation() == intersection_matrix(family.graph())
