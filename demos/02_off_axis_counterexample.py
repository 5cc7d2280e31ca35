"""A three-atom law whose MGF has genuinely off-axis zeros.

The symmetric law with atoms (+-2, 0.1) and (0, 0.8) has
f(z) = 0.8 + 0.2 cosh(2z), which vanishes where cosh(2z) = -4:
z = +- ln(4 + sqrt 15)/2 + i pi/2.  The locator finds both and the verdict
flips to off-axis-zero-found; classification excludes the law accordingly.
"""

import math

import numpy as np

from leeyang import (DiscretizedDistribution, EntireMGF, Rectangle, classify,
                     locate_zeros)

law = DiscretizedDistribution(np.array([-2.0, 0.0, 2.0]), np.array([0.1, 0.8, 0.1]))
report = locate_zeros(EntireMGF(law), Rectangle(-2, 2, 0, 2))
expected = 0.5 * math.log(4 + math.sqrt(15))

print(f"closed form:  +-{expected:.10f} + {math.pi / 2:.10f} i")
for z in report.zeros:
    print(f"located:      {z.location.real:+.10f} + {z.location.imag:.10f} i "
          f"(residual {z.residual:.1e})")
print("verdict:", report.piz_verdict)
print("class:  ", classify(law, zero_report=report).verdict)
