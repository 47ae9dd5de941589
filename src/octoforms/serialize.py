"""JSON/CSV serialization: rationals as "p/q" strings, never floats.

Multivector JSON: {"n": 16, "grade": 8, "terms": [{"blade": [1, ...],
"coeff": "2"}, ...]} with blades sorted lexicographically.  CSV rows are
"blade;coeff" with dash-joined indices.  Monte-Carlo floats are emitted with
17 significant digits.
"""

from __future__ import annotations

from fractions import Fraction

from .exterior import Multivector, _indices_to_mask
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


def matrix_to_json(m: SignedPerm) -> list:
    """Dense rows of entry strings: row i is "0" but for "1" or "-1" at perm[i]."""
    rows = []
    for j, s in zip(m.perm.tolist(), m.sign.tolist()):
        row = ["0"] * m.n
        row[j] = "1" if s > 0 else "-1"
        rows.append(row)
    return rows
