"""Monte Carlo moments of the chaos modulus and the tail exponent they imply.

E|W|^{2k} is a Coulomb-gas integral over k positive and k negative charges;
its growth in k encodes the stretched-exponential tail exponent 2/beta^2.
For beta in (1, sqrt 2) the exponent falls in (1, 2): slower than Gaussian,
fast enough to keep all moments finite -- precisely the regime where the
pure-imaginary-zero property is impossible for the limit law.
"""

from leeyang import UNIT_DISK, mc_moment, moment_growth_fit, tail_prediction
from leeyang.lyclass import slowtail_applies

beta_sq = 1.44
ests = []
print(f"beta^2 = {beta_sq}: Monte Carlo moments (2e5 samples each)")
for k in range(1, 6):
    e = mc_moment(UNIT_DISK, beta_sq, k, 200000, seed=40 + k)
    ests.append(e)
    flag = " (low confidence)" if e.low_confidence else ""
    print(f"  k={k}  E|W|^{2 * k:2d} = {e.estimate:.4e} +- {e.stderr:.1e}{flag}")

fit = moment_growth_fit(ests)
print(f"growth fit: k log k slope = {fit.beta_sq_hat:.3f} "
      f"(CI {fit.ci[0]:.3f}..{fit.ci[1]:.3f}), linear coeff = {fit.c_hat:.3f}")
print("note: at k <= 5 the fitted slope sits far below the asymptotic "
      "value beta^2; the k log k regime emerges only at much larger k.")

pred = tail_prediction(beta_sq)
print(f"predicted tail exponent 2/beta^2 = {pred.exponent_a:.4f}; "
      f"slow-tail regime flagged: {slowtail_applies(pred)}")
