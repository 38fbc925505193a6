"""Shared generators for randomized tests.

The generic random instance, built around a known strictly feasible point,
and the feasible-parameter search are the release gate's own generators
(qptrim.verify), imported under shorter names.
"""

from qptrim.verify import _feasible_shift as random_feasible_x  # noqa: F401
from qptrim.verify import _random_mpqp as random_mpqp  # noqa: F401
