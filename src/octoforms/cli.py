"""Command-line front end.

Exit codes: 0 success, 1 invariant/verification failure, 2 usage error, and
141 (128 + SIGPIPE, what a shell reports for a writer whose reader left)
when stdout is closed before all output is written; that exit prints
nothing.  Rationals are printed as "p/q" strings; Monte-Carlo floats carry
17 significant digits; a signed permutation is a list of [row, column, sign]
triplets (``serialize.signed_perm_to_json``), and JSON output is one
json.dumps per command.  Output is deterministic for fixed flags and seed,
except the `workers` field of `berger`, the count of worker processes that
ran: it depends on the usable CPUs unless `--workers 1` is given.  The
`berger` coefficients do not.

Each command imports what it runs inside its own function, so a process
loads only its command's modules; with bytecode writing off, every process
compiles every module it imports.
"""

from __future__ import annotations

import argparse
import os
import sys

# --which -> the form, read off octoforms.canonical when the command runs
_FORMS = {
    "spin9": lambda canonical: canonical.spin9_form(),
    "cgm": lambda canonical: canonical.cgm_form(),
    "psi8": lambda canonical: canonical.kotrbaty_psi8()[1],
    "tau8": lambda canonical: canonical.spin9_taus()[7],
}


# Each --extend doubles n and adds an involution, so the extensions' memory and
# the --json text more than double per step, and an unbounded --extend asks for
# vectors of 2^extend entries.  On R^1024 (spin9 --extend 6) the command peaks
# at 35 MB and --json writes 189 KB; on R^16384, past the bound, the same work
# peaks at 87 MB and writes 4.7 MB.
_MAX_CLIFFORD_DIM = 1024

_EXIT_STDOUT_CLOSED = 141


class _ModelNames:
    """models.MODEL_NAMES as the --model choices, imported only when argparse
    reads them: to check a --model value, or to write usage text."""

    def __iter__(self):
        from .models import MODEL_NAMES

        return iter(MODEL_NAMES)


def _error(code: int, message: object) -> int:
    """Write `error: message` to stderr and return the exit code."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _dump_json(obj: dict, compact: bool = False) -> None:
    """Write json.dumps of obj to stdout and end the line: indented by 2, or
    with no whitespace when compact."""
    import json

    options = {"separators": (",", ":")} if compact else {"indent": 2}
    _write_stdout(json.dumps(obj, **options) + "\n")


def _write_stdout(text: str) -> None:
    """Write `text` to stdout in full.

    Under PYTHONUNBUFFERED the binary layer of stdout is a raw FileIO, and a
    signal that interrupts a blocking pipe write cuts it short; the text
    layer drops what was not written.  So the bytes go through the binary
    layer in a loop on the count it returns.
    """
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # an in-memory text stream takes the whole string
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[buffer.write(data) :]


def _int_at_least(low: int, below: int | None = None):
    """argparse type: an int >= low, and < below if that is given, so a value
    out of range is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(f"must be < {below}, got {value}")
        return value

    return parse


def _sphere_dim(text: str) -> int:
    """argparse type: an m >= 1 whose field system is in scope
    (``spheres.check_scope``)."""
    from .spheres import check_scope

    m = _int_at_least(1)(text)
    try:
        check_scope(m)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return m


def _cmd_form(args) -> int:
    from . import canonical
    from .serialize import multivector_to_csv, multivector_to_json

    mv = _FORMS[args.which](canonical)
    if args.format == "csv":
        sys.stdout.write(multivector_to_csv(mv))
    else:
        _dump_json(multivector_to_json(mv))
    return 0


def _cmd_charpoly(args) -> int:
    if args.which == "spin9":
        from .canonical import spin9_taus

        taus = spin9_taus()
    else:
        from .canonical import quaternionic_forms
        from .exterior import charpoly_coeffs

        taus = charpoly_coeffs(quaternionic_forms()[0])
    rows = [
        {"tau": j + 1, "grade": 2 * (j + 1), "monomials": len(t), "zero": t.is_zero()}
        for j, t in enumerate(taus)
    ]
    if args.json:
        _dump_json({"which": args.which, "coefficients": rows})
    else:
        for r in rows:
            print(f"tau_{r['tau']}: grade {r['grade']}, {r['monomials']} monomials"
                  + (" (zero)" if r["zero"] else ""))
    return 0


def _cmd_fields(args) -> int:
    from .serialize import signed_perm_to_json
    from .spheres import build_fields, sigma, verify_system

    system = build_fields(args.m)
    code = 0
    report = None
    if args.verify:
        report = verify_system(system, samples=1, seed=args.seed)
        code = 0 if report.ok else 1
    if args.json:
        payload = {
            "m": args.m,
            "sigma": sigma(args.m),
            "count": len(system.fields),
            "notes": list(system.notes),
            "fields": [signed_perm_to_json(a) for a in system.fields],
        }
        if report is not None:
            payload["verified"] = report.ok
            payload["failures"] = list(report.failures)
        _dump_json(payload, compact=True)
    else:
        print(f"m = {args.m}: sigma = {sigma(args.m)}, built {len(system.fields)} fields")
        for note in system.notes:
            print(f"note: {note}")
        if report is not None:
            print("verification:", "pass" if report.ok else "FAIL")
            for f in report.failures:
                print(f"  {f}")
    return code


def _rational(token: str):
    """Fraction(token), refusing a decimal token whose numerator or
    denominator, written out in full, has more digits than int() accepts.
    int() bounds every digit string, but Fraction multiplies an exponent out
    (1e3000000, or 0e3000000, builds 10**3000000), so the digits the exponent
    adds are counted first, a zero mantissa as one digit."""
    import re
    from fractions import Fraction

    limit = sys.get_int_max_str_digits()
    m = re.fullmatch(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?\s*", token)
    if m and limit:
        whole, frac, exp = (g.replace("_", "") if g else "" for g in m.groups())
        shift = int(exp or 0) - len(frac)  # value = int(whole + frac) * 10**shift
        num_digits = len((whole + frac).lstrip("0") or "0") + max(shift, 0)
        if max(num_digits, 1 - shift) > limit:
            raise ValueError(f"--point coordinate {token[:20]!r}... has more than "
                             f"{limit} digits written out")
    return Fraction(token)


def _parse_point(tokens) -> list:
    """The 16 coordinates of --point as Fractions; a ValueError means the
    tokens are malformed, not that the point is off the sphere."""
    from fractions import Fraction

    if len(tokens) not in (16, 32):
        raise ValueError("--point needs 16 rationals (or 32 numerator/denominator integers)")
    try:
        if len(tokens) == 16:
            vals = [_rational(t) for t in tokens]
        else:
            vals = [Fraction(int(tokens[2 * i]), int(tokens[2 * i + 1])) for i in range(16)]
    except ZeroDivisionError:
        raise ValueError("--point has a zero denominator") from None
    return vals


def _cmd_hopf(args) -> int:
    from .cayley_dickson import CDElement
    from .hopf import SpherePoint16, lambda_coeffs, spin9_sections
    from .serialize import rational_str

    try:
        vals = _parse_point(args.point)
    except ValueError as exc:
        return _error(2, exc)
    # a point off the unit sphere raises here, and _run exits 1
    point = SpherePoint16(x=CDElement(3, vals[:8]), y=CDElement(3, vals[8:]))
    lam = lambda_coeffs(point)
    coords = point.coords()
    inner = [
        sum(a * b for a, b in zip(coords, section)) for section in spin9_sections(point)
    ]
    if args.json:
        _dump_json({
            "lambda": [rational_str(v) for v in lam],
            "inner_products": [rational_str(v) for v in inner],
        })
    else:
        print("lambda:        ", " ".join(rational_str(v) for v in lam))
        print("<N, I_a N>:    ", " ".join(rational_str(v) for v in inner))
    return 0


def _cmd_clifford(args) -> int:
    from .clifford import extend, standard_system, verify

    system = standard_system(args.kind)
    room = (_MAX_CLIFFORD_DIM // system.n).bit_length() - 1  # n is a power of 2
    if args.extend > room:
        return _error(2, f"--extend {args.extend} would put C_{system.m + args.extend} on "
                         f"R^(2^{system.n.bit_length() - 1 + args.extend}); the bound is "
                         f"R^{_MAX_CLIFFORD_DIM}, --extend {room} for {args.kind}")
    for _ in range(args.extend):
        system = extend(system)
    report = verify(system)
    if args.json:
        from .serialize import signed_perm_to_json

        _dump_json({
            "kind": args.kind,
            "extended": args.extend,
            "n": system.n,
            "m": system.m,
            "verified": report.ok,
            "matrices": [signed_perm_to_json(p) for p in system.mats],
        }, compact=True)
    else:
        print(f"{args.kind} extended {args.extend}x: C_{system.m} on R^{system.n}, "
              f"verify {'pass' if report.ok else 'FAIL'}")
    return 0 if report.ok else 1


def _cmd_clifford_structure(args) -> int:
    from .models import build_model, lambda2_generators, structure_census

    payload = {}
    if args.census:
        payload["census"] = structure_census()
    model = build_model(args.model)
    payload["model"] = {
        "name": model.name,
        "ambient_dim": model.ambient_dim,
        "rank": model.rank,
        "lambda2_count": len(lambda2_generators(model)),
    }
    if args.json:
        _dump_json(payload)
    else:
        m = payload["model"]
        print(f"{m['name']}: rank {m['rank']} on R^{m['ambient_dim']}, "
              f"{m['lambda2_count']} two-form generators")
        if "census" in payload:
            for k, v in payload["census"].items():
                print(f"  {k}: {v}")
    return 0


def _cmd_berger(args) -> int:
    if args.full and not args.json:
        return _error(2, "--full needs --json")
    from .berger import berger_mc
    from .serialize import float_str

    form, report = berger_mc(args.samples, seed=args.seed, workers=args.workers)
    payload = {
        "samples": report.samples,
        "seed": report.seed,
        "workers": report.workers,
        "cosine_similarity": float_str(report.cosine_similarity),
        "fitted_scale": float_str(report.fitted_scale),
        "candidate_scale": float_str(report.candidate_scale),
        "zero_slots": report.zero_slots,
        "zero_slots_within_3sigma": report.zero_slots_within_3sigma,
        "max_zero_sigma_ratio": float_str(report.max_zero_sigma_ratio),
    }
    if args.json:
        if args.full:
            payload["coefficients"] = [float_str(x) for x in form.coeffs.tolist()]
        _dump_json(payload)
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")
    return 0


def _cmd_pontrjagin(args) -> int:
    from .canonical import pontrjagin_report, render_pontrjagin_text

    report = pontrjagin_report()
    if args.json:
        from .serialize import rational_str

        out = dict(report)
        for key in ("manifold_classes", "bundle_classes"):
            out[key] = [{**row, "coefficient": rational_str(row["coefficient"])}
                        for row in report[key]]
        _dump_json(out)
    else:
        print(render_pontrjagin_text(report))
    return 0


def _cmd_verify(args) -> int:
    from . import verifysuite

    ok = verifysuite.run_all(write=print)
    print("verify:", "all checks passed" if ok else "FAILURES above")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octoforms",
        description="Exact computational kernel for octonionic geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("form", help="emit a canonical form")
    p.add_argument("--which", choices=sorted(_FORMS), required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_form)

    p = sub.add_parser("charpoly", help="characteristic coefficients of a form matrix")
    p.add_argument("--which", choices=("spin9", "quaternionic"), default="spin9")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("fields", help="vector fields on S^{m-1}")
    p.add_argument("--m", type=_sphere_dim, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fields)

    p = sub.add_parser("hopf", help="lambda coordinates of the Hopf map")
    p.add_argument("--point", nargs="+", required=True,
                   help="16 rationals (x then y), or 32 numerator/denominator integers")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hopf)

    p = sub.add_parser("clifford", help="standard Clifford systems and extensions")
    p.add_argument("--kind", choices=("pauli_U2", "quaternionic_Sp2Sp1", "spin9"),
                   default="spin9")
    p.add_argument("--extend", type=_int_at_least(0), default=0,
                   help=f"extensions C_m -> C_(m+1), each doubling n; n is at most "
                        f"{_MAX_CLIFFORD_DIM} (spin9: 6), a larger --extend exits 2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_clifford)

    p = sub.add_parser("clifford-structure", help="even Clifford structure models")
    # a metavar, so that add_argument does not read the choices to check it
    p.add_argument("--model", choices=_ModelNames(), default="eiii", metavar="MODEL",
                   help="one of %(choices)s (default: %(default)s)")
    p.add_argument("--census", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_clifford_structure)

    p = sub.add_parser("berger", help="Monte-Carlo line-integral reconstruction")
    p.add_argument("--samples", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0, below=1 << 128), default=0,
                   help="Philox key, 0 <= seed < 2**128")
    p.add_argument("--workers", type=_int_at_least(1), default=None,
                   help="at most this many worker processes (default: as many as "
                        "the samples pay for, up to the usable CPUs)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--full", action="store_true",
                   help="include all 12870 coefficients (needs --json)")
    p.set_defaults(func=_cmd_berger)

    p = sub.add_parser("pontrjagin", help="Pontrjagin class coefficient table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pontrjagin)

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.set_defaults(func=_cmd_verify)

    return parser


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, AssertionError) as exc:
        return _error(1, exc)


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
    except BrokenPipeError:
        # The reader is gone.  Point stdout at /dev/null, so that the flush
        # at exit has somewhere to put what is left, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_STDOUT_CLOSED
    return code


if __name__ == "__main__":
    sys.exit(main())
