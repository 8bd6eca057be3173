"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError`, so callers can
catch a single exception type at the API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A parameter set is inconsistent or violates a model constraint.

    Raised, for example, when a noise rate falls outside ``(0, 1/2)``, a code
    length is not divisible as required by Definition 3 of the paper, or a
    graph does not satisfy a generator's preconditions.
    """


class MessageSizeError(ReproError):
    """A CONGEST / Broadcast CONGEST message exceeds the model's bit budget."""


class ProtocolViolationError(ReproError):
    """A distributed algorithm performed an action the model forbids.

    Examples: sending to a non-neighbour in CONGEST, or a beeping protocol
    returning an action other than ``BEEP``/``LISTEN``.
    """
