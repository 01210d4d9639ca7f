"""The exhaustive small-sequence sweep shared by the table oracles, and a
potential whose walls cut the row-flip path in many places."""

import itertools

import numpy as np

from laakso import JSequence, Potential, level_products

LIMIT = 20_000


def small_sequences():
    """Every periodic sequence of period 1 or 2 with entries 2-7 (42 of them)."""
    values = [(a,) for a in range(2, 8)] + list(itertools.product(range(2, 8), repeat=2))
    return [JSequence(v, periodic=True) for v in values]


def levels(seq, first=0):
    """The levels n >= first whose graph has 2^n I_n <= LIMIT cells."""
    n = first
    while 2**n * level_products(seq, n)[n] <= LIMIT:
        yield n
        n += 1


# walls at a third of the nodes, next to columns and between them
RIDDLED = Potential("custom", func=lambda x: np.where(x * 37 % 1 < 0.3, np.inf, x))
