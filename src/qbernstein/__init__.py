"""Exact q-calculus toolkit: the q-deformed Bernstein basis, q-Euler numbers
and polynomials, q-Stirling numbers, their alternating-measure moment
identities, and a verification CLI (``qb``) that adjudicates every identity
with independent oracles."""

from .bernstein import (
    BernsteinIndex,
    basis_derivative,
    basis_eval_exact,
    basis_eval_real,
    basis_upoly,
    decasteljau_eval,
    degree_elevate,
    generating_coeffs,
    monomial_in_basis,
    monomial_samples,
    operator_apply,
    operator_eval_real,
)
from .euler import (
    EulerTable,
    complement_moment,
    euler_closed,
    euler_number,
    euler_poly,
    euler_poly_closed,
    euler_poly_real,
    euler_table,
    fermionic_sum,
    reflection_check,
    shift_moment,
    shift_moment_sum,
)
from .integrals import (
    IntegralInstance,
    fermionic_basis_sum,
    integral_basis,
    integral_basis_reflected,
    integral_power_product,
    integral_power_product_direct,
    integral_product,
)
from .kernel import (
    DomainError,
    binomial_coeff,
    format_rational,
    padic_valuation,
    parse_rational,
    to_rational,
)
from .qcore import (
    forward_differences,
    forward_differences_binomial,
    gaussian_binomial,
    q_factorial,
    q_number_int,
    q_number_real,
    qbinom_upoly,
    stirling2,
)
from .stirling import q_stirling2, qstirling_expansion_upoly
from .tables import emit_table
from .upoly import U, UPoly
from .verify import DEFAULT_QS, IdentityReport, VerifyConfig, run_verify_suite

__version__ = "0.1.0"

__all__ = [
    "BernsteinIndex",
    "DEFAULT_QS",
    "DomainError",
    "EulerTable",
    "IdentityReport",
    "IntegralInstance",
    "U",
    "UPoly",
    "VerifyConfig",
    "basis_derivative",
    "basis_eval_exact",
    "basis_eval_real",
    "basis_upoly",
    "binomial_coeff",
    "complement_moment",
    "decasteljau_eval",
    "degree_elevate",
    "emit_table",
    "euler_closed",
    "euler_number",
    "euler_poly",
    "euler_poly_closed",
    "euler_poly_real",
    "euler_table",
    "fermionic_basis_sum",
    "fermionic_sum",
    "format_rational",
    "forward_differences",
    "forward_differences_binomial",
    "gaussian_binomial",
    "generating_coeffs",
    "integral_basis",
    "integral_basis_reflected",
    "integral_power_product",
    "integral_power_product_direct",
    "integral_product",
    "monomial_in_basis",
    "monomial_samples",
    "operator_apply",
    "operator_eval_real",
    "padic_valuation",
    "parse_rational",
    "q_factorial",
    "q_number_int",
    "q_number_real",
    "q_stirling2",
    "qbinom_upoly",
    "qstirling_expansion_upoly",
    "reflection_check",
    "run_verify_suite",
    "shift_moment",
    "shift_moment_sum",
    "stirling2",
    "to_rational",
]
