"""Shared test set-up."""

import pytest


@pytest.fixture(autouse=True)
def cold_memos():
    # Each test starts from empty evaluation memos, so no test passes or
    # fails by what an earlier test left behind.
    from peterweyl import norms

    norms.clear_memos()
    yield
