"""The intersection matrices of the g2dagger and d4 middle lattices, for the tests that need them.

``roofpairs.checks`` keeps its own copy, so the suite checks the golden registry independently.
"""

G2_GRAM = ((0, 1, 5), (1, 10, 32), (5, 32, 82))
D4_GRAM = (
    (0, 0, 0, 1, 6),
    (0, 0, 1, 6, 22),
    (0, 1, 0, 6, 22),
    (1, 6, 6, 44, 126),
    (6, 22, 22, 126, 308),
)
