"""Stability of the zero structure along weakly converging sequences.

Two well-behaved sequences (shrinking Gaussians, scaled two-point laws)
keep their zeros on the axis all the way to the limit.  A sequence whose
limit has tails strictly between Gaussian and exponential cannot do that:
if every finite-n verdict says pure imaginary zeros while the limit profile
violates the sub-Gaussian bound, something must give -- all but finitely
many terms actually carry off-axis zeros, and the harness raises the
contradiction flag.
"""

import math

from leeyang import (Rectangle, discretized_gaussian, rademacher,
                     tail_prediction, weak_limit_harness)

seq = [discretized_gaussian(math.sqrt(1 - 1 / n)) for n in (2, 4, 8, 16)]
rep = weak_limit_harness(seq, discretized_gaussian(1.0), region=Rectangle(-2, 2, 0, 6))
print("shrinking Gaussians: consistent =", rep.consistent,
      " distances:", [f"{d:.4f}" for d in rep.distances_to_limit])

ns = (4, 8, 16, 64)
seq2 = [rademacher(1 + 1 / n) for n in ns]
rep2 = weak_limit_harness(seq2, rademacher(1.0), region=Rectangle(-2, 2, 0, 8))
print("scaled two-point laws: first zero heights",
      [f"{h:.6f}" for h in rep2.first_zero_heights],
      f"-> pi/2 = {math.pi / 2:.6f}")

profile = tail_prediction(1.44)
rep3 = weak_limit_harness(seq2, profile, region=Rectangle(-2, 2, 0, 8))
print(f"slow-tail limit profile (exponent {profile.exponent_a:.4f}): "
      f"contradiction flag = {rep3.contradiction_flag}")
for note in rep3.notes:
    print("  note:", note)
