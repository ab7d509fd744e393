"""Every entry of tests/guard_mutants.py still names its guard: a stale entry fails here, in
milliseconds, not only when the mutation script runs."""

import pytest

from guard_mutants import GUARDS, ROOT


@pytest.mark.parametrize("guard", GUARDS, ids=[g.name for g in GUARDS])
def test_guard_text_stands_once_in_its_module_and_its_test_exists(guard):
    assert (ROOT / "src" / "subsel" / guard.module).read_text().count(guard.text) == 1
    assert guard.without != guard.text
    path, _, name = guard.test.partition("::")
    assert f"\ndef {name}(" in (ROOT / path).read_text()
