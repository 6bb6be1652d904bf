"""Benchmark instance sets: scaled stand-ins for the paper's inputs.

* **Set A** (the paper: 72 graphs, 5.4M-1.8G edges, from SuiteSparse /
  Network Repository / Pizza&Chili / KaGen): one stand-in per structural
  family at sizes a pure-Python partitioner handles in seconds.  Families
  and their roles: FEM meshes (high compression, easy cuts), k-mer graphs
  (no ID locality, compression ratio ~1), social networks (skewed degrees),
  web crawls (runs of consecutive IDs), text-compression graphs (weighted),
  and KaGen rgg2D/rhg.
* **Set B** (the paper: gsh-2015, clueweb12, uk-2014, eu-2015, hyperlink):
  weblike stand-ins whose relative sizes and average degrees mirror
  Table I (d between 51 and 150; hyperlink largest with mid-range degree).
* **Table IV graphs** (arabic-2005, uk-2002, sk-2005, uk-2007): smaller
  weblike stand-ins.

Instances are generated on demand and cached per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.graph import generators as gen


@dataclass(frozen=True)
class Instance:
    """A named graph recipe (generator family + parameters)."""

    name: str
    family: str
    params: tuple = field(default_factory=tuple)

    def make(self):
        maker = _MAKERS[self.family]
        return maker(*self.params)


_MAKERS = {
    "grid2d": lambda r, c: gen.grid2d(r, c),
    "grid3d": lambda a, b, c: gen.grid3d(a, b, c),
    "torus": lambda r, c: gen.grid2d(r, c, torus=True),
    "rgg2d": lambda n, d, s: gen.rgg2d(n, d, seed=s),
    "rhg": lambda n, d, g, s: gen.rhg(n, d, gamma=g, seed=s),
    "weblike": lambda n, d, s: gen.weblike(n, d, seed=s),
    "kmer": lambda n, d, s: gen.kmer(n, d, seed=s),
    "ba": lambda n, m, s: gen.ba(n, m, seed=s),
    "er": lambda n, d, s: gen.er(n, d, seed=s),
    "textlike": lambda n, s: gen.textlike(n, seed=s),
}


# Set A: one or two instances per family (scaled from the paper's 72)
SET_A: tuple[Instance, ...] = (
    Instance("fem-grid", "grid2d", (50, 50)),
    Instance("fem-cube", "grid3d", (14, 14, 14)),
    Instance("fem-torus", "torus", (45, 45)),
    Instance("rgg2d-small", "rgg2d", (2000, 8.0, 11)),
    Instance("rgg2d-large", "rgg2d", (4500, 12.0, 12)),
    Instance("rhg-small", "rhg", (2000, 8.0, 3.0, 13)),
    Instance("rhg-large", "rhg", (4500, 12.0, 2.6, 14)),
    Instance("web-small", "weblike", (2000, 14.0, 15)),
    Instance("web-large", "weblike", (4500, 18.0, 16)),
    Instance("kmer-A2a", "kmer", (3000, 4, 17)),
    Instance("kmer-V1r", "kmer", (5000, 4, 18)),
    Instance("social-ba", "ba", (2500, 5, 19)),
    Instance("er-mid", "er", (2500, 8.0, 20)),
    Instance("text-sources", "textlike", (2500, 21)),
    Instance("text-dna", "textlike", (4000, 22)),
)

# Set B: web-crawl stand-ins; relative n and average degree follow Table I
SET_B: tuple[Instance, ...] = (
    Instance("gsh-2015*", "weblike", (5000, 12.0, 31)),
    Instance("clueweb12*", "weblike", (5000, 17.0, 32)),
    Instance("uk-2014*", "weblike", (4200, 24.0, 33)),
    Instance("eu-2015*", "weblike", (5500, 32.0, 34)),
    Instance("hyperlink*", "weblike", (10000, 15.0, 35)),
)

# Table IV graphs (SEM comparison)
SEM_GRAPHS: tuple[Instance, ...] = (
    Instance("arabic-2005*", "weblike", (3500, 18.0, 41)),
    Instance("uk-2002*", "weblike", (3000, 14.0, 42)),
    Instance("sk-2005*", "weblike", (4500, 26.0, 43)),
    Instance("uk-2007*", "weblike", (5500, 20.0, 44)),
)

# webbase2001 stand-in for the Figure 2 phase breakdown
WEBBASE: Instance = Instance("webbase2001*", "weblike", (7000, 12.0, 51))

# smoke matrix for the CI perf gate (`repro bench record --suite smoke`):
# one mesh + one skewed-degree instance, small enough for seconds per run
SMOKE_SET: tuple[Instance, ...] = (
    Instance("fem-grid", "grid2d", (50, 50)),
    Instance("web-small", "weblike", (2000, 14.0, 15)),
)

SUITES: dict[str, tuple[Instance, ...]] = {
    "smoke": SMOKE_SET,
    "set-a": SET_A,
    "set-b": SET_B,
}


@lru_cache(maxsize=64)
def load_instance(name: str):
    """Build (and cache) the graph for a named instance."""
    for inst in (*SET_A, *SET_B, *SEM_GRAPHS, WEBBASE):
        if inst.name == name:
            return inst.make()
    raise KeyError(f"unknown instance {name!r}")
