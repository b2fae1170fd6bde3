"""prunekit: containment pruning for submodular maximization.

Reduce a ground set to a small universe P that provably (or measurably)
keeps a near-optimal feasible subset for every downstream budget, then
certify the containment factor with exact brute-force references.
"""

from .objectives import (Coverage, CountingOracle, Cut, FacilityLocation,
                         InterferenceCoverage, Modular, Objective, OracleStats,
                         PenaltyCurve, PropertyReport, Proxy,
                         RestrictedFacilityLocation, TableObjective, check_monotone,
                         check_submodular, counting_wrap, objective_from_dict)
from .selection import DensityRun, GreedyRun, density_greedy, greedy, threshold_greedy
from .prune import (PruneParams, PrunedSet, prune_fast_budget_range, prune_random,
                    prune_seq_disjoint, prune_std_greedy, prune_threshold_stream,
                    prune_window, sdg_bound, window_bound, witness)
from .knapsack import (KnapsackInstance, KnapsackPrunedSet, extract_budget,
                       extract_budget_grid, prune_sdg_density)
from .exact import (GuardExceeded, OptProfile, cardinality_subset_count,
                    enumeration_guard, opt_cardinality, opt_knapsack)
from .harness import (BootstrapCI, ContainmentReport, SeparationResult, SpeedupResult,
                      SweepResult, containment_report, paired_bootstrap, run_pruner,
                      separation_study, speedup_probe, sweep)
from .instances import (GenSpec, InputFormatError, fit_penalty, gen_coverage,
                        gen_from_spec, gen_gnm, gen_interference, gen_planted,
                        load_costs_csv, load_coverage_list, load_edge_list,
                        load_penalty_csv, load_similarity_csv, save_edge_list)

__version__ = "0.1.0"
