import functools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from monoconn import solvers
from monoconn.graphs import Graph, is_connected, random_gnp, relabel


def random_connected(n: int, seed: int, p: float = 0.5) -> Graph:
    """Deterministic connected G(n,p) sample (re-draws until connected)."""
    rng = random.Random(seed)
    while True:
        g = random_gnp(n, p, seed=rng.randrange(2**30))
        if is_connected(g):
            return g


def shuffled(g: Graph, seed: int = 0) -> Graph:
    """An isomorphic copy of g under other labels (g itself when every
    relabelling of g is g, as for K_n)."""
    rng = random.Random(seed)
    for _ in range(20):
        order = list(range(g.n))
        rng.shuffle(order)
        h = relabel(g, order)
        if h != g:
            return h
    return g


def format_edgelist(g: Graph) -> str:
    """g as edge-list text: an "n m" line, then one "u v" line per edge."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


@pytest.fixture
def computations(monkeypatch):
    """computations(producer) -> the graphs that the lru_cache'd
    ``producer`` computes for, in order, cache hits left out.  Its
    ``__wrapped__`` goes into one fresh cache of the same size, installed
    under every monoconn module that imports the producer."""

    def install(producer):
        seen = []
        compute = producer.__wrapped__

        def counted(g):
            seen.append(g)
            return compute(g)

        fresh = functools.lru_cache(maxsize=producer.cache_info().maxsize)(counted)
        name = compute.__name__
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key.split(".")[0] == "monoconn" and getattr(mod, name, None) is producer
        ]
        assert modules, f"no module imports {name}"
        for mod in modules:
            monkeypatch.setattr(mod, name, fresh)
        return seen

    return install


@pytest.fixture
def table_builds(computations):
    """The graphs whose solver tables get built, in order."""
    return computations(solvers._table)
