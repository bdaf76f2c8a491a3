"""Exact refined enumeration of alternating sign matrices.

The package computes, in exact rational arithmetic, the refined
enumeration of alternating sign matrices in which every -1 entry carries
a weight x, with closed forms at x = 1 and x = 3, two independent
brute-force oracles for small orders, the underlying family of Laurent
polynomial solutions of a three-term shift equation, and an exact scan
of how the refined 3-enumeration concentrates at the center.  Each part
lives in its own submodule (counts, oracle, tq, hyper, ...), and callers
import from those.
"""

__version__ = "0.1.0"
