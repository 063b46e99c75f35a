from __future__ import annotations

import bidouble


def test_star_import_exports_each_name_once():
    # a stale __all__ entry only fails on a star import
    namespace: dict = {}
    exec("from bidouble import *", namespace)
    assert len(bidouble.__all__) == len(set(bidouble.__all__))
    assert set(bidouble.__all__) <= set(namespace)
