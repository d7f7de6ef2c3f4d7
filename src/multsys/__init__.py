"""Exact step-function systems, their multiplicative error, and the
reduction to independent two-valued systems, together with the classical
moment and tail inequalities the reduction transports.

Everything structural is computed in rational arithmetic; floats appear
only where the mathematics itself is transcendental (Gamma-function
constants, exponential integrands, trigonometric integrals) and every
report marks which of its numbers are approximate.

The re-exports below load on first access (PEP 562), so importing the
package, or one module of it, loads only what that code needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> the names the package re-exports from it
_EXPORTS = {
    "errors": "MultsysError",
    "stepfn": """ConvexSpec StepFunction approx_by_steps common_refinement concat
        concat_many constant convex_expectation dilate evaluate integral
        linear_combination make_step mean measure_above measure_equal normalize
        product rademacher restrict scale tile""",
    "moments": """BoundedSystem IndexFamily MomentTable compute_moment_table
        enumerate_family is_multiplicative mixed_moment multiplicative_error
        symmetric_system""",
    "reduction": """DominationReport IndependenceReport ReductionTrace binarize
        check_independence extend_system flip_cancellation_system
        reduce_to_independent verify_domination walsh_cancellation_system""",
    "inequalities": """KhintchineReport MgfReport TailReport hoeffding_tail
        khintchine_constant khintchine_constant_variants khintchine_even_constant
        mgf_factor_check rademacher_pnorm_oracle rademacher_tail_oracle
        verify_khintchine""",
    "lacunary": """LacunarySpec TruncatedMuReport analytic_tail_bound
        collection_bound expand_product explicit_spec frequency_range_check
        geometric_spec global_mu_bound product_integral quadrature_product_integral
        signed_sums split_for_growth truncated_mu""",
    "subseq": """OrthogonalSystem SelectionCertificate as_bounded_system
        check_orthogonality greedy_subsequence merge_selections parseval_select
        rademacher_pool selected_family_mu walsh_system""",
    "rubinshtein": """ReflectionGenerator RubinshteinReport build_phi
        dilated_system reflect verify_rubinshtein""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
