"""coverkit: exact verification of covering systems and periodic maps.

Window criteria decide global statements about covering functions from a
short block of consecutive integers; every such criterion ships with a
brute-force full-period oracle, and all arithmetic (rationals, cyclotomic
integers, totient sums) is exact.
"""

from .covering import (
    ExpSumSequence,
    PeriodicValueTable,
    System,
    Verdict,
    WeightedSequence,
    cover_count,
    cover_table,
    cover_values,
    equal_cover_superset_check,
    expsum_cover_check,
    is_exact_m_cover,
    least_period,
    min_on_window,
    non_exact_witness,
    verify_covering_function,
    weighted_average_check,
    window_zero_check,
    zero_system_coefficients,
)
from .cyclotomic import CyclotomicElement, exp_sum_eval, indicator_sum_check, root_power
from .fracsets import (
    frac_mod1,
    fraction_set,
    multiples_set,
    phi_sum_cardinality,
    subset_sum_set,
    sumset_mod1,
    window_bound,
)
from .multidim import (
    MultiSequence,
    decide_periodic_by_divisibility,
    divisibility_chain_report,
    is_periodic_mod_vec,
    multidim_value,
    vec_divides,
)
from .numtheory import (
    divisors_of,
    euler_phi,
    f_additive,
    lcm_all,
    least_prime_factor,
)
from .oracle import (
    BenchReport,
    bench_window_vs_full,
    brute_cover_verdict,
    brute_least_period,
    brute_periodic_mod_vec,
    brute_tables_zero_verdict,
)

__version__ = "0.1.0"
