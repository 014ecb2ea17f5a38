"""Bundled QF_BV solver speaking the SMT-LIB2 pipe protocol.

The default backend when no SMT-LIB2 bit-vector solver such as ``z3 -in`` is
installed.  Sessions start it with ``oracle.BOOT``, handing it these modules
compiled; ``python -m patcheq.smtbv`` works too, but starts at uncached speed.
"""

__all__ = ["SmtSession", "run_stdio"]


def __getattr__(name):  # PEP 562: the client, which reads only sexpr, never loads the engine
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import protocol
    return getattr(protocol, name)
