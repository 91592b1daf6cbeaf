import zlib
from collections import Counter, OrderedDict

import numpy as np
import pytest

from fockworks import measure
from fockworks._backend import kernels


@pytest.fixture
def rng(request):
    """A generator seeded from the test's node id: each test draws its own
    inputs, the same on every run."""
    return np.random.default_rng(zlib.crc32(request.node.nodeid.encode()))


@pytest.fixture
def empty_rows(monkeypatch):
    """Start the kernels' stores empty: the expansion rows and the pass
    plans, which share one store, the ring of missed keys, the rank tables
    and their counters; the module's own are restored after the test.
    Returns ``empty(floats=None)``, which empties the rows, the plans and
    the ring again (not the tables), with a budget of ``floats`` if given."""
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


@pytest.fixture
def pass_counts(monkeypatch):
    """Count the detection passes that run (``measure._pass_groups``) and
    the pass plans built (``measure._pass_plan``). Returns ``taken()``,
    which gives ``(passes, plans built)`` since its last call."""
    counts = Counter()
    for name in ("_pass_groups", "_pass_plan"):
        monkeypatch.setattr(measure, name, lambda *a, run=getattr(measure, name), name=name:
                            counts.update([name]) or run(*a))

    def taken():
        out = counts["_pass_groups"], counts["_pass_plan"]
        counts.clear()
        return out

    return taken


@pytest.fixture
def table_builds(monkeypatch):
    """Record the (modes, photons) of every rank table built during the
    test, not read from the cache; returns the list, in build order."""
    builds = []
    level = kernels._level

    def counted(m, t, below, keep=True):
        if (m, t) not in kernels._TABLES:
            builds.append((m, t))
        return level(m, t, below, keep)

    monkeypatch.setattr(kernels, "_level", counted)
    return builds
