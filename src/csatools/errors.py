"""Exception types shared across the package.

Precondition violations on user-supplied values raise ValueError with a
readable message.  A non-integer where an integer is expected, such as
a float or a numeric string, raises TypeError: nothing is truncated or
converted.  ConsistencyError is reserved for failures of internal
cross-checks: if one fires, the library itself (or one of its closed
forms) is wrong, not the caller.
"""


class ConsistencyError(Exception):
    """An internal exact-arithmetic cross-check failed."""
