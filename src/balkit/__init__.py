"""balkit: exact arithmetic and mechanical verification for the balancing family.

The package computes balancing, Lucas-balancing, cobalancing and
Lucas-cobalancing numbers by three independent exact methods, rediscovers
them from their defining Diophantine equations, and verifies a catalog of
identities and congruences over configurable index ranges.
"""

import importlib

__version__ = "0.1.0"

# Each public name's home module, imported on first access (PEP 562), so
# that `import balkit.cli` loads only the modules its command needs.
_HOME = {
    "BalancerWitness": "oracle",
    "DomainError": "sequences",
    "EvalResult": "identities",
    "IdentityDescriptor": "identities",
    "SequenceKind": "sequences",
    "TermSource": "sequences",
    "UnknownIdentityError": "sequences",
}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + home, __name__), name)
    globals()[name] = value
    return value
