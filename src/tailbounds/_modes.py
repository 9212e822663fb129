"""The tail modes, in a module of their own.

The CLI reads ``--mode``'s choices from :class:`TailMode` while it builds
its parser, so this module imports nothing but ``enum``: ``--version``
and ``--help`` load no library module to list them.
"""
import enum


class TailMode(enum.Enum):
    ONE_SIDED_UPPER = "one-sided"
    TWO_SIDED = "two-sided"
