"""Recovering the canonical 8-form as an average over octonionic lines.

Lines l_m = {(x, xm)} are sampled uniformly through S^8; each contributes
the pullback of its volume form, an 8-form with 12870 coefficients.  The
average is proportional to Phi: this demo fits the constant, compares it
with the exact one (1/132, from `exact_mean`), and checks the noise floor on
the 12168 slots where Phi vanishes.

Run time: a few seconds for the default 100k samples.
"""

import numpy as np

from octoforms.berger import berger_mc, phi_dense

SAMPLES = 100_000

# runs as many workers as the samples pay for, up to the usable CPUs: this
# process and the children it forks
form, report = berger_mc(SAMPLES, seed=0)
phi = phi_dense()

print(f"samples: {report.samples}, seed {report.seed}, workers {report.workers}")
print(f"cosine similarity with Phi: {report.cosine_similarity:.6f}")
print(f"fitted scale: {report.fitted_scale:.8g}  (= 1/{1 / report.fitted_scale:.25g})")
print(f"exact scale (line average / Phi): {report.candidate_scale:.8g}")
print(f"fitted / exact scale: {report.fitted_scale / report.candidate_scale:.6f}")
print(f"zero slots within 3 sigma: {report.zero_slots_within_3sigma}"
      f" of {report.zero_slots}")

# the largest coefficients line up with Phi's largest entries
top = np.argsort(-np.abs(form.coeffs))[:5]
print("\nslot   MC mean / fitted scale   Phi")
for s in top:
    print(f"{s:5d}  {form.coeffs[s] / report.fitted_scale:22.3f}   {phi[s]:4d}")

# reproducibility: same seed, any worker count, same bits (16384 samples
# are enough for the default to run two workers, forking one)
f1, _ = berger_mc(16384, seed=1, workers=1)
f2, r2 = berger_mc(16384, seed=1)
print(f"\nbit-identical at 1 and {r2.workers} workers:", np.array_equal(f1.coeffs, f2.coeffs))
