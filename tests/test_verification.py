"""Check suites: the fixed seeds make every sampled suite repeatable."""

import pytest

from bachelier_symmetries import verification as ver


@pytest.mark.parametrize("suite", [
    ver.group_laws, ver.generator_tangency, ver.reference_reproductions, ver.dsl_roundtrip,
])
def test_sampled_suite_is_deterministic(suite):
    assert suite() == suite()
