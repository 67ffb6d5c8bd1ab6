"""Exact simulation of quantum query algorithms over mixed-dimension
registers, plus the classical compilation pipeline that replaces quantum
queries by a bounded number of classical lookups through small-range
index maps."""

__version__ = "0.2.0"

from . import compiler, core, disting, distributions, oracles, statevector, zoo

__all__ = [
    "__version__",
    "compiler",
    "core",
    "disting",
    "distributions",
    "oracles",
    "statevector",
    "zoo",
]
