from fractions import Fraction

from singlink import invariants
from singlink.families import Cusp, Elliptic
from singlink.verify import suite_families, verify_family


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
