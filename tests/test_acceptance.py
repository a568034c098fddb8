"""Acceptance suite: one test per headline criterion.

Each test prints a single PASS/FAIL line (visible with -s, or in the
captured output of a failure) and asserts the criterion, runtime budget
included.
"""

import pytest

from geocycle import verify


@pytest.mark.parametrize(
    "name,check", verify.ALL_CHECKS, ids=[name for name, _ in verify.ALL_CHECKS]
)
def test_acceptance(name, check):
    result = check(verify.DEFAULT_SEED)
    assert result.name == name
    print(f"ACCEPTANCE {result.name}: {'PASS' if result.ok else 'FAIL'} "
          f"({result.elapsed:.2f}s)")
    assert result.ok, result.detail
