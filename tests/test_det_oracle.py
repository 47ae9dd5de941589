"""The exact determinant oracle against the cofactor expansion it replaced."""

import random
from fractions import Fraction

from tests_util_det import exact_det


def _cofactor_det(rows) -> Fraction:
    """Laplace expansion along the first row: n! terms, exact."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * _cofactor_det(minor)
    return total


def _cases():
    rng = random.Random(11)
    for n in range(1, 6):
        for _ in range(30):
            ints = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            fracs = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
                     for _ in range(n)]
            yield ints
            yield fracs
            if n > 1:
                # singular: one row a rational combination of two others
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                fracs[-1] = [x + c * y for x, y in zip(fracs[0], fracs[n // 2])]
                yield fracs
                ints[rng.randrange(n)] = [0] * n
                yield ints
    # a zero leading pivot, the rows below it swapped in with their sign
    yield [[0, 2, 1], [3, 0, 4], [5, 6, 0]]
    yield [[0, 0, 1, 2], [0, 3, 0, 1], [Fraction(1, 2), 1, 1, 0], [2, 0, 0, 5]]


def test_exact_det_matches_cofactor_expansion():
    singular = 0
    for rows in _cases():
        got = exact_det(rows)
        assert type(got) is Fraction
        assert got == _cofactor_det(rows), rows
        singular += got == 0
    assert singular >= 200
    assert exact_det([[0, 2, 1], [3, 0, 4], [5, 6, 0]]) == 58  # -2 (0 - 20) + (18 - 0)
