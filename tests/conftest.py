import sys
from functools import lru_cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gbspec import cardinal, symbols  # noqa: E402
from gbspec.sections import hyperbolic, polynomial, trigonometric  # noqa: E402

ALL_FAMILIES = [polynomial(), hyperbolic(2.0), trigonometric(1.0)]


@pytest.fixture(params=ALL_FAMILIES, ids=lambda f: f.tag)
def family(request):
    return request.param


@pytest.fixture
def recursion_runs(monkeypatch):
    """``(first, top)`` levels computed by each cardinal recursion run, in order.

    The process's kept levels and symbols are swapped for empty stores for
    the test; ``recursion_runs.reset()`` forgets the runs, the kept levels
    and the kept symbols, so the next call starts from the seed.
    """
    monkeypatch.setattr(cardinal, "_RECURSIONS", {})
    monkeypatch.setattr(cardinal, "_kept_total", 0)
    monkeypatch.setattr(symbols, "_symbol",
                        lru_cache(maxsize=4096)(symbols._symbol.__wrapped__))
    inner = cardinal._recursion

    class Runs(list):
        def reset(self):
            self.clear()
            cardinal._RECURSIONS.clear()
            cardinal._kept_total = 0
            symbols._symbol.cache_clear()

    runs = Runs()

    def counted(rep, top, done=None):
        runs.append((1 if done is None else len(done[1]) + 1, top))
        return inner(rep, top, done)

    monkeypatch.setattr(cardinal, "_recursion", counted)
    return runs
