from collections import OrderedDict

import numpy as np
import pytest

from fockworks._backend import kernels


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def empty_rows(monkeypatch):
    """Start the kernels' stores empty: the expansion rows, the ring of
    missed row keys, the rank tables and their counters; the module's own
    are restored after the test. Returns ``empty(floats=None)``, which
    empties the rows and the ring again (not the tables), with a row
    budget of ``floats`` if given."""
    def empty(floats=None):
        monkeypatch.setattr(kernels, "_ROWS", OrderedDict())
        monkeypatch.setattr(kernels, "_row_floats", 0)
        monkeypatch.setattr(kernels, "_recent", np.zeros_like(kernels._recent))
        monkeypatch.setattr(kernels, "_recent_at", 0)
        if floats is not None:
            monkeypatch.setattr(kernels, "_ROW_FLOATS", floats)

    monkeypatch.setattr(kernels, "_TABLES", {})
    monkeypatch.setattr(kernels, "_table_entries", 0)
    empty()
    return empty
