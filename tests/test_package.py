"""The public surface: every exported name exists."""

from __future__ import annotations

import abcsmc


def test_all_exports_resolve():
    missing = [name for name in abcsmc.__all__ if not hasattr(abcsmc, name)]
    assert missing == []
    assert len(set(abcsmc.__all__)) == len(abcsmc.__all__)
