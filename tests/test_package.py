from __future__ import annotations

import strongedge


def test_public_names_resolve_once():
    names = strongedge.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(strongedge, name), name
