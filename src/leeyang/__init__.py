"""Numerical laboratory for pure-imaginary-zero properties of moment
generating functions: exact spin-model laws on finite graphs, complex-zero
location and classification, the 1d chain scaling limit, and Monte Carlo
analysis of complex Gaussian multiplicative chaos."""

__version__ = "0.1.0"

from .errors import BudgetExceededError, NumericalError
from .graphs import (FiniteGraph, build_graph, graph_from_json, path_graph,
                     single_edge_graph, subdivide)
from .gibbs import (DiscretizedDistribution, ModelSpec, circle_grid,
                    discretized_gaussian, distribution_from_atoms, edge_weight,
                    kolmogorov_distance, observable_distribution,
                    periodized_gaussian, rademacher)
from .zeros import (EntireMGF, HadamardFit, Rectangle, ZeroInfo, ZeroReport,
                    count_zeros_rectangle, hadamard_fit, locate_zeros, mgf_eval,
                    newton_refine, refinement_stable_report)
from .lyclass import (ClassVerdict, TailProfile, WeakLimitReport, classify,
                      tail_exponent, weak_limit_harness)
from .chain import (chain_vs_heat, dirichlet_ratio, laplace_normalization,
                    make_xy_kernel)
from .gmc import (Domain, GrowthFit, LatticeDomain, MomentEstimate, UNIT_DISK,
                  bin_distribution, dgff_sample, gmc_moment_formula, lattice_green,
                  mc_moment, moment_growth_fit, sample_m_statistics, tail_prediction)
