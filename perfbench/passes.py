"""One benchmark pass, run in a fresh interpreter by run.py.

    python3 perfbench/passes.py KIND --seed N --workers W [--trace] [--tiny]

KIND is `forms`, `spheres`, `mc` (the library half of an mc pass; it reads
the JSON of the small CLI call on stdin) or `berger-probe` (the per-layer
Monte-Carlo measurements of a traced run).  The last line of stdout is one
JSON object: the checks made (name, ok, detail), the exact and Monte-Carlo
outputs, work counts, and the spans when traced.  A pass that raises reports
the checks made so far plus one failed check naming the exception.

octoforms caches spin9_psi, spin9_taus, spin9_form, cgm_form and
kotrbaty_psi8 for the life of the process, which is why every pass gets its
own interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time

from spans import NullTracer, Tracer

# public functions traced in a traced pass; the tag records the argument
# that tells calls apart in the per-layer metrics
TRACED = {
    "exterior.charpoly_coeffs": None,
    "exterior.tau4_direct": None,
    "exterior.tau2_direct": None,
    "canonical.spin9_taus": None,
    "canonical.spin9_form": None,
    "canonical.cgm_form": None,
    "canonical.kotrbaty_psi8": None,
    "canonical.tau8_and_ratio": None,
    "canonical.quaternionic_forms": None,
    "canonical.fpq_identity_check": None,
    "berger.phi_dense": None,
    "berger.berger_mc": lambda samples, seed=0, workers=1: f"{samples}/{workers}",
    "spheres.build_fields": lambda m, *a, **k: m,
    "spheres.verify_system": lambda v, *a, **k: v.m,
    "clifford.extend": None,
    "clifford.verify": None,
    "linalg.lie_closure_dim": None,
    "models.structure_census": None,
    "hopf.reconstruct": None,
}

SPHERES = {2: 1, 4: 3, 8: 7, 16: 8, 32: 9, 48: 8, 64: 11, 128: 15, 256: 16, 512: 17}
TINY_SPHERES = {m: c for m, c in SPHERES.items() if m <= 64}
CENSUS = {
    "spin9_pairs": 36,
    "spin9_triples": 84,
    "c6_triples": 35,
    "quaternionic_pairs": 10,
    "so16_dim": 120,
    "lie_spin9": 36,
    "lie_eiii": 45,
}
# Monte-Carlo sizes: one 1024-sample block per group for the large call
MC_LARGE, MC_SMALL, PROBE_SAMPLES = 65536, 2048, 8192
TINY_MC_LARGE, TINY_MC_SMALL, TINY_PROBE_SAMPLES = 2048, 1024, 2048


class Pass:
    def __init__(self, tracer):
        self.tr = tracer
        self.checks: list = []
        self.outputs: dict = {}
        self.counts: dict = {}

    def check(self, name: str, ok, detail: str = ""):
        self.checks.append([name, bool(ok), detail])


def forms_pass(p: Pass, seed: int, tiny: bool, workers: int):
    from octoforms import canonical, exterior, serialize

    theta, omega_l = canonical.quaternionic_forms()
    t2 = exterior.tau2_direct(theta)
    p.check("quaternionic-tau2", t2 == -2 * omega_l and t2.coefficient((1, 2, 3, 4)) == -12,
            "tau2(theta) == -2 Omega_L, coeff(e1234) == -12")
    rep = canonical.fpq_identity_check(1 if tiny else 25, seed=seed)
    p.check("fpq", rep.all_exact, f"F == 2P^2 - 4Q on {rep.trials} seeded matrices")
    p.outputs["fpq_all_exact"] = rep.all_exact

    if tiny:
        # the quaternionic 5x5 system stands in for the 9x9 spin9 one
        taus = exterior.charpoly_coeffs(theta)
        p.check("tau2-dual-route", taus[1] == t2, "Faddeev-LeVerrier tau2 == tau2_direct")
        p.check("tau4-dual-route", exterior.tau4_direct(theta) == taus[3],
                "sub-Pfaffian tau4 == Faddeev-LeVerrier tau4")
        form = omega_l
    else:
        taus = canonical.spin9_taus()
        tau4 = taus[3]
        phi = canonical.spin9_form()
        surviving = [j + 1 for j, t in enumerate(taus) if not t.is_zero()]
        p.check("charpoly-shape", surviving == [4, 8], f"surviving tau indices {surviving}")
        p.check("360-factor", tau4.coeff_gcd() == 360 and phi.coeff_gcd() == 1
                and 360 * phi == tau4, "360 Phi == tau4, gcd(Phi) == 1")
        p.check("702-count", len(phi) == 702, f"{len(phi)} monomials")
        p.check("tau4-dual-route", exterior.tau4_direct(canonical.spin9_psi()) == tau4,
                "sub-Pfaffian tau4 == Faddeev-LeVerrier tau4")
        p.check("cgm", canonical.cgm_form() == -4 * tau4, "Omega_CGM == -4 tau4")
        _, psi8 = canonical.kotrbaty_psi8()
        p.check("kotrbaty", psi8.exact_div(-2880) == phi, "Psi8 / -2880 == Phi")
        c8, ratio = canonical.tau8_and_ratio()
        p.check("tau8-ratio", c8 == -19958400 and ratio == -12,
                f"tau8 top coefficient {c8}, tau4^tau4 / tau8 = {ratio}")
        p.outputs["tau8_ratio"] = [c8, str(ratio)]
        form = phi

    with p.tr.span("serialize.json_roundtrip"):
        text = json.dumps(serialize.multivector_to_json(form))
        back = serialize.multivector_from_json(json.loads(text))
    p.check("json-roundtrip", back == form, f"{len(text)} bytes")
    p.outputs["form_sha"] = hashlib.sha256(text.encode()).hexdigest()[:16]
    p.outputs["tau_monomials"] = [len(t) for t in taus]
    p.counts["tau_monomials"] = sum(len(t) for t in taus)


def spheres_pass(p: Pass, seed: int, tiny: bool, workers: int):
    from octoforms import clifford, hopf, linalg, models, spheres

    built = {}
    for m, count in (TINY_SPHERES if tiny else SPHERES).items():
        v = spheres.build_fields(m)
        built[m] = v
        ok = spheres.sigma(m) == count and len(v.fields) == count
        ok = ok and spheres.verify_system(v, samples=1, seed=seed).ok
        p.check(f"fields-{m}", ok, f"sigma({m}) = {count}, verified")
    p.outputs["field_counts"] = {m: len(v.fields) for m, v in built.items()}

    if not tiny:
        fields = built[512].fields
        naive = spheres.VectorFieldSystem(
            m=512, fields=tuple(fields[8:16]) + (spheres.naive_s511_extra(),))
        p.check("naive-s511-fails", not spheres.verify_system(naive, samples=0).ok,
                "D(L_i N) without D2 breaks the system")

    c = clifford.standard_system("spin9")
    for m in (9, 10) if tiny else (9, 10, 11):
        c = clifford.extend(c)
        ok = len(c.mats) == m + 1 and c.n == 2 * clifford.delta(m) and clifford.verify(c).ok
        p.check(f"extend-C{m}", ok, f"C_{m} on R^{c.n}")

    census = models.structure_census()
    bad = {k: census.get(k) for k, want in CENSUS.items() if census.get(k) != want}
    p.check("census", not bad and census["c6_triples"] > census["spin7_bound"],
            f"mismatches {bad}" if bad else "36/84/35/10, closures 36/45")
    p.outputs["census"] = census

    if not tiny:
        dim = linalg.lie_closure_dim(
            models.lambda2_generators(models.build_model("evi")), max_dim=300)
        p.check("evi-closure", dim == 66, f"dim {dim}")
        p.outputs["evi_closure"] = dim

    rng = random.Random(seed)
    points = 5 if tiny else 100
    ok = True
    for _ in range(points):
        pt = hopf.rational_sphere_point(rng)
        ok = ok and hopf.reconstruct(pt) == list(pt.coords())
    p.check("hopf-reconstruct", ok, f"N == sum lambda_a I_a N at {points} seeded points")
    p.outputs["hopf_ok"] = ok


def mc_pass(p: Pass, seed: int, tiny: bool, workers: int):
    """The library half of an mc pass; stdin holds the small CLI call's JSON."""
    from octoforms import berger
    from octoforms.serialize import float_str

    cli = json.loads(sys.stdin.read())
    large = TINY_MC_LARGE if tiny else MC_LARGE
    t0 = time.perf_counter()
    form, rep = berger.berger_mc(large, seed=seed, workers=workers)
    p.outputs["large_s"] = time.perf_counter() - t0
    p.check("mc-cosine", rep.cosine_similarity >= 0.99,
            f"cosine {rep.cosine_similarity!r} at {large} samples")
    p.outputs["cosine"] = repr(rep.cosine_similarity)
    p.outputs["coeff_sha"] = hashlib.sha256(form.coeffs.tobytes()).hexdigest()[:16]
    p.outputs["samples"] = large

    small = cli["samples"]
    one, _ = berger.berger_mc(small, seed=seed, workers=1)
    same = [float_str(x) for x in one.coeffs] == cli["coefficients"]
    p.check("mc-bit-identity", same,
            f"berger_mc({small}) at 1 worker == CLI at {cli['workers']} workers")


def berger_probe(p: Pass, seed: int, tiny: bool, workers: int):
    """Per-layer Monte-Carlo numbers: cold Phi, the warm fixed per-call cost,
    and throughput at 1 and at `workers` workers on one problem size."""
    from octoforms import berger

    berger.phi_dense()
    small = TINY_MC_SMALL if tiny else MC_SMALL
    n = TINY_PROBE_SAMPLES if tiny else PROBE_SAMPLES
    with p.tr.span("probe.warm_small"):
        berger.berger_mc(small, seed=seed, workers=workers)
    with p.tr.span("probe.w1"):
        f1, rep = berger.berger_mc(n, seed=seed, workers=1)
    with p.tr.span("probe.wn"):
        fn, _ = berger.berger_mc(n, seed=seed, workers=workers)
    p.check("probe-bit-identity", (f1.coeffs == fn.coeffs).all(),
            f"berger_mc({n}) at 1 and {workers} workers")
    p.check("probe-cosine", rep.cosine_similarity >= 0.99, f"cosine {rep.cosine_similarity!r}")
    p.counts["probe_samples"] = n


KINDS = {"forms": forms_pass, "spheres": spheres_pass, "mc": mc_pass,
         "berger-probe": berger_probe}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("kind", choices=sorted(KINDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else NullTracer()
    p = Pass(tracer)
    try:
        tracer.install(TRACED)
        KINDS[args.kind](p, args.seed, args.tiny, args.workers)
    except Exception as exc:  # a pass that raises is a failed pass
        p.check("raised", False, f"{type(exc).__name__}: {exc}")
    result = {
        "checks": p.checks,
        "outputs": p.outputs,
        "counts": p.counts,
        "spans": getattr(tracer, "spans", []),
    }
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
