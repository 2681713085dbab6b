"""Verification of bipartite pure states with local measurements.

Build test operators and verification strategies from measurement bases
(mutually unbiased bases, weighted 2-designs, randomized diagonal tests),
analyze their spectral gaps and required test counts for i.i.d. and
adversarial sources, and Monte Carlo simulate them against noisy states.

The public names load on first access (PEP 562), each from the module that
``_EXPORTS`` names for it, so ``import biverify`` and the closed-form
``analysis`` names load no numpy.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "analysis": (
        "FidelityFromRate",
        "Figure1Row",
        "VerificationBudget",
        "fidelity_from_pass_rate",
        "figure1_grid",
        "figure1_table",
        "plm_nu",
        "tests_needed",
        "tests_needed_adversarial",
        "worst_case_pass_prob",
    ),
    "bases": (
        "Basis",
        "WeightedBasisSet",
        "fourier_basis",
        "is_unbiased",
        "prime_mub_set",
        "random_unbiased_basis",
        "roy_scott_set",
        "standard_basis",
        "verify_2design",
    ),
    "designs": ("is_prime", "min_design_size", "next_prime"),
    "errors": ("BiverifyError",),
    "linalg": ("eig_hermitian",),
    "simulate": (
        "FidelityEstimate",
        "RunRecord",
        "estimate_fidelity",
        "exact_pass_rate",
        "run_verification",
        "trial_rng",
    ),
    "states": (
        "DensityOperator",
        "SchmidtState",
        "density_operator",
        "depolarize",
        "embed_density",
        "embed_state",
        "fidelity",
        "make_schmidt_state",
        "random_state_at_fidelity",
        "reduced_state_b",
        "state_vector",
        "target_projector",
        "two_qubit_state",
        "worst_case_state",
    ),
    "strategies": (
        "ConditionalProjectorTest",
        "Direction",
        "RandomizedDiagonalTest",
        "Strategy",
        "assemble_strategy",
        "build_strategy",
        "closed_form_beta",
        "is_homogeneous",
        "one_way_diagonal_test",
        "optimal_p",
        "standard_test",
        "test_projector",
        "two_way_diagonal_test",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Load a public name from its module and cache it in the package."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
