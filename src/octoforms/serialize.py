"""JSON/CSV serialization: rationals as "p/q" strings, never floats.

Multivector JSON: {"n": 16, "grade": 8, "terms": [{"blade": [1, ...],
"coeff": "2"}, ...]} with blades sorted lexicographically.  CSV rows are
"blade;coeff" with dash-joined indices.  A signed permutation is the list of
its nonzero entries as [row, column, sign] triplets, 0-based, in row order.
Monte-Carlo floats are emitted with 17 significant digits.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

# exterior is imported only where a Multivector is built, so that float_str,
# which the berger command uses, does not load the wedge engine
if TYPE_CHECKING:
    from .exterior import Multivector
    from .linalg import SignedPerm


def rational_str(x) -> str:
    if type(x) is int:
        return str(x)
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


def float_str(x: float) -> str:
    return format(x, ".17g")


def multivector_to_json(mv: Multivector) -> dict:
    grades = mv.grades()
    return {
        "n": mv.n,
        "grade": grades.pop() if len(grades) == 1 else sorted(grades),
        "terms": [
            {"blade": list(idx), "coeff": rational_str(c)} for idx, c in mv.terms()
        ],
    }


def multivector_from_json(obj: dict) -> Multivector:
    """Inverse of multivector_to_json; terms on a repeated blade are summed.

    An integral coefficient is stored as an int, as the forms are built."""
    from .exterior import Multivector, _indices_to_mask

    terms: dict = {}
    for term in obj["terms"]:
        mask = _indices_to_mask(term["blade"])
        terms[mask] = terms.get(mask, 0) + parse_rational(term["coeff"])
    return Multivector(obj["n"], {m: c.numerator if c.denominator == 1 else c
                                  for m, c in terms.items()})


def multivector_to_csv(mv: Multivector) -> str:
    lines = ["blade;coeff"]
    for idx, c in mv.terms():
        lines.append(f"{'-'.join(map(str, idx))};{rational_str(c)}")
    return "\n".join(lines) + "\n"


def signed_perm_to_json(p: SignedPerm) -> list:
    """[row, column, sign] for each row of p, as tuples, which json writes as arrays."""
    return list(zip(range(p.n), p.perm.tolist(), p.sign.tolist()))
