"""Multi-level coded caching: achievable rates, lower bounds, gap audits,
and a desk-scale placement/delivery simulator with brute-force decode
verification."""

from .model import (BETA, ConfigSchemaError, LevelSpec, RateReport,
                    RegularityError, Setup, SystemConfig, ValidationReport,
                    check_memory, config_from_dict, config_to_dict,
                    load_config, popularity, validate, validate_multi_user,
                    validate_single_user)
from .radicals import RootSum, precision_floor
from .single_level import (PlacementState, SubfileId, Transcript, deliver,
                           place, rate_single_level, scheme_rate, verify_decode,
                           worst_case_demands)
from .multi_user import (MemoryAllocation, Partition, PartitionInfeasibleError,
                         RefinedPartition, allocate_memory,
                         enumerate_feasible_partitions, find_m_feasible_partition,
                         level_rate_bounds, rate_memory_sharing, refine_partition)
from .single_user import (ClusterPartition, ClusterRun, RefinedClusterPartition,
                          cluster_place_deliver, cluster_place_deliver_decentralized,
                          partition_su, rate_clustering, rate_upper_bound_su,
                          refine_partition_su)
from .bounds import (CaseNotApplicable, GapReport, MultiUserBoundParams,
                     SingleUserBoundParams, best_cut_sizes, gap_report,
                     lower_bound_multi_user, lower_bound_single_user,
                     matched_bound_params, optimize_lower_bound_mu)
from .experiments import (DichotomyResult, SweepRow, audit, default_grid,
                          dichotomy_multi_user, dichotomy_single_user, evaluate,
                          mixed_rate, random_multi_user_config,
                          random_single_user_config, sweep, write_plot_data,
                          write_sweep_csv, write_sweep_json)

__version__ = "0.1.0"
