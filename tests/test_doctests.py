import doctest

import pytest

from singlink import invariants, legendrian, linalg, openbook, plumbing, sl2z, verify


@pytest.mark.parametrize(
    "module", [linalg, sl2z, legendrian, openbook, plumbing, invariants, verify]
)
def test_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
