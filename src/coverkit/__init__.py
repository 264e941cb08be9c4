"""coverkit: exact verification of covering systems and periodic maps.

Window criteria decide global statements about covering functions from a
short block of consecutive integers; every such criterion ships with a
brute-force full-period oracle, and all arithmetic (rationals, cyclotomic
integers, totient sums) is exact.

The public names below load their module on first use (PEP 562), so
``import coverkit`` compiles no submodule, and a CLI request compiles only
the modules its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# the home module of each public name
_HOMES = {
    "covering": (
        "ExpSumSequence",
        "PeriodicValueTable",
        "System",
        "Verdict",
        "WeightedSequence",
        "cover_count",
        "cover_table",
        "cover_values",
        "equal_cover_superset_check",
        "expsum_cover_check",
        "is_exact_m_cover",
        "least_period",
        "min_on_window",
        "non_exact_witness",
        "verify_covering_function",
        "weighted_average_check",
        "window_zero_check",
        "zero_system_coefficients",
    ),
    "cyclotomic": ("CyclotomicElement", "exp_sum_eval", "indicator_sum_check", "root_power"),
    "fracsets": (
        "frac_mod1",
        "fraction_set",
        "multiples_set",
        "phi_sum_cardinality",
        "subset_sum_set",
        "sumset_mod1",
        "window_bound",
    ),
    "multidim": (
        "MultiSequence",
        "decide_periodic_by_divisibility",
        "divisibility_chain_report",
        "is_periodic_mod_vec",
        "multidim_value",
        "vec_divides",
    ),
    "numtheory": ("divisors_of", "euler_phi", "f_additive", "lcm_all", "least_prime_factor"),
    "oracle": (
        "BenchReport",
        "bench_window_vs_full",
        "brute_cover_verdict",
        "brute_least_period",
        "brute_periodic_mod_vec",
        "brute_tables_zero_verdict",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
# submodules reachable as attributes after a bare `import coverkit`
_SUBMODULES = {*_HOMES, "_kernels"}

__all__ = list(_HOME)


def __getattr__(name: str):
    """A public name read from its home module, or a submodule imported."""
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
