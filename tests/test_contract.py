"""The input contract of every public callable and every numeric CLI flag.

API: each public callable has an entry here, a call whose keyword defaults
are valid scalar arguments.  Each scalar is swapped in turn for a hostile
value: a numeric string, a bool, a complex, NaN, infinity, None and an int
no double holds.  The call must raise ``BiverifyError``, unless the entry
names the swap as valid and checks its answer, and must do either within
``TIME_LIMIT`` seconds.  A public function whose parameter is annotated as a
number must have that parameter in its entry.

CLI: each numeric flag of ``build_parser`` is given the same values as text,
and each numeric config key the same values in a JSON config file, on a
command that reads it; the oversized sizes a design or grid would allocate
or loop over are given too.  Each run must exit 2 with argparse's usage
error or one ``error:`` line, unless it is named valid, and never raise.
"""

import inspect
import json
import math
import re
import signal
from contextlib import contextmanager
from dataclasses import fields

import numpy as np
import pytest

import biverify
from biverify import (
    Basis,
    ConditionalProjectorTest,
    DensityOperator,
    Direction,
    RandomizedDiagonalTest,
    SchmidtState,
    VerificationBudget,
    WeightedBasisSet,
    assemble_strategy,
    build_strategy,
    closed_form_beta,
    density_operator,
    depolarize,
    eig_hermitian,
    embed_density,
    embed_state,
    estimate_fidelity,
    exact_pass_rate,
    fidelity,
    fidelity_from_pass_rate,
    figure1_grid,
    figure1_table,
    fourier_basis,
    is_homogeneous,
    is_prime,
    is_unbiased,
    make_schmidt_state,
    min_design_size,
    next_prime,
    one_way_diagonal_test,
    optimal_p,
    plm_nu,
    prime_mub_set,
    random_state_at_fidelity,
    random_unbiased_basis,
    reduced_state_b,
    roy_scott_set,
    run_verification,
    standard_basis,
    standard_test,
    state_vector,
    target_projector,
    test_projector,
    tests_needed,
    tests_needed_adversarial,
    trial_rng,
    two_qubit_state,
    two_way_diagonal_test,
    verify_2design,
    worst_case_pass_prob,
    worst_case_state,
)
from biverify.designs import _MAX_DESIGN_SIZE, _MAX_DIMENSION
from biverify.cli import JobConfig, build_parser, main
from biverify.errors import BiverifyError, OutOfRangeError
from biverify.simulate import compile_tables

# seconds a call may take before it counts as a hang
TIME_LIMIT = 5.0
HUGE = 10**400
HOSTILE = {
    "str": "0.5",
    "bool": True,
    "complex": 0.5j,
    "nan": math.nan,
    "inf": math.inf,
    "none": None,
    "huge": HUGE,
}

# result records and the error type: the package forms them, and their
# fields are outputs, not inputs
RECORDS = {"BiverifyError", "FidelityEstimate", "FidelityFromRate", "Figure1Row", "RunRecord",
           "Strategy"}

S2 = two_qubit_state(0.5)
S3 = make_schmidt_state([3.0, 2.0, 1.0])
RHO2 = depolarize(S2, 0.1)
STRAT_V = build_strategy(S2, "V")


def _rng():
    return np.random.default_rng(0)


# public name -> (call with valid scalar defaults, {(scalar, hostile id):
# check of the answer, for a swap that is a valid argument})
CONTRACT = {
    "Basis": (lambda d=2: Basis(d, np.eye(2)), {}),
    "ConditionalProjectorTest": (
        lambda: ConditionalProjectorTest(Direction.A_TO_B, fourier_basis(2), S2), {}
    ),
    "DensityOperator": (lambda dim=4: DensityOperator(dim, RHO2.matrix), {}),
    "Direction": (lambda: Direction("BtoA"), {}),
    "RandomizedDiagonalTest": (lambda: RandomizedDiagonalTest(np.full((2, 2), 0.5)), {}),
    "SchmidtState": (lambda d=2: SchmidtState(d, S2.coeffs), {}),
    "VerificationBudget": (
        lambda epsilon=0.01, delta=0.01, n_tests=100: VerificationBudget(epsilon, delta, n_tests),
        {("n_tests", "huge"): lambda r: r.n_tests == HUGE},
    ),
    "VerificationBudget.plan": (
        lambda nu=0.5, epsilon=0.01, delta=0.01: VerificationBudget.plan(nu, epsilon, delta), {}
    ),
    "WeightedBasisSet": (
        lambda: WeightedBasisSet((standard_basis(2), fourier_basis(2)), [0.5, 0.5]), {}
    ),
    "assemble_strategy": (
        lambda q=0.5: assemble_strategy(
            S2, [(q, standard_test(S2)), (0.5, test_projector(S2, fourier_basis(2)))]
        ),
        {},
    ),
    "build_strategy": (
        lambda p=0.3, m=8: build_strategy(S3, "III", p, m),
        {
            ("p", "none"): lambda r: r.p == optimal_p(S3, "III"),
            ("m", "none"): lambda r: r.beta == build_strategy(S3, "III", 0.3).beta,
        },
    ),
    "closed_form_beta": (lambda p=0.3: closed_form_beta(S3, "IV", p), {}),
    "density_operator": (lambda: density_operator(RHO2.matrix), {}),
    "depolarize": (lambda lam=0.1: depolarize(S2, lam), {}),
    "eig_hermitian": (lambda: eig_hermitian(np.eye(2)), {}),
    "embed_density": (lambda d_prime=3: embed_density(RHO2, d_prime), {}),
    "embed_state": (lambda d_prime=3: embed_state(S2, d_prime), {}),
    "estimate_fidelity": (
        lambda n_trials=100, seed=0: estimate_fidelity(STRAT_V, RHO2, n_trials, seed),
        {("seed", "huge"): lambda r: r.record.seed == HUGE},
    ),
    "exact_pass_rate": (lambda: exact_pass_rate(STRAT_V, RHO2), {}),
    "fidelity": (lambda: fidelity(RHO2, S2), {}),
    "fidelity_from_pass_rate": (
        lambda rate=0.9, beta=0.5: fidelity_from_pass_rate(rate, beta), {}
    ),
    "figure1_grid": (lambda grid_size=4: figure1_grid(grid_size), {}),
    "figure1_table": (
        lambda theta=0.5, epsilon=0.01, delta=0.01: figure1_table([0.1, theta], epsilon, delta),
        {},
    ),
    "fourier_basis": (lambda d=3: fourier_basis(d), {}),
    "is_homogeneous": (lambda tol=1e-10: is_homogeneous(STRAT_V, tol), {}),
    "is_prime": (lambda n=7: is_prime(n), {}),
    "is_unbiased": (
        lambda tol=1e-10: is_unbiased(standard_basis(3), fourier_basis(3), tol), {}
    ),
    "make_schmidt_state": (
        lambda d=3: make_schmidt_state([3.0, 2.0, 1.0], d),
        {("d", "none"): lambda r: r.d == 3},
    ),
    "min_design_size": (
        lambda d=3: min_design_size(d),
        {("d", "huge"): lambda r: r == (3 * (HUGE - 1) ** 2 + 3) // 4 + 1},
    ),
    "next_prime": (lambda n=8: next_prime(n), {}),
    "one_way_diagonal_test": (lambda p=0.7: one_way_diagonal_test(S3, p), {}),
    "optimal_p": (lambda: optimal_p(S3, "II"), {}),
    "plm_nu": (lambda theta=0.5: plm_nu(theta), {}),
    "prime_mub_set": (lambda d=3: prime_mub_set(d), {}),
    "random_state_at_fidelity": (
        lambda fid=0.9: random_state_at_fidelity(S2, fid, _rng()), {}
    ),
    "random_unbiased_basis": (lambda d=3: random_unbiased_basis(d, _rng()), {}),
    "reduced_state_b": (lambda: reduced_state_b(S2), {}),
    "roy_scott_set": (
        lambda d=3, m=5: roy_scott_set(d, m),
        {("m", "none"): lambda r: r.m == min_design_size(3)},
    ),
    "run_verification": (
        lambda n_trials=100, seed=0: run_verification(STRAT_V, RHO2, n_trials, seed),
        {("seed", "huge"): lambda r: r.seed == HUGE},
    ),
    "standard_basis": (lambda d=3: standard_basis(d), {}),
    "standard_test": (lambda: standard_test(S2), {}),
    "state_vector": (lambda: state_vector(S2), {}),
    "target_projector": (lambda: target_projector(S2), {}),
    "test_projector": (lambda: test_projector(S2, fourier_basis(2), Direction.B_TO_A), {}),
    "tests_needed": (
        lambda nu=0.5, epsilon=0.01, delta=0.01: tests_needed(nu, epsilon, delta), {}
    ),
    "tests_needed_adversarial": (
        lambda beta=0.3, epsilon=0.01, delta=0.01: tests_needed_adversarial(beta, epsilon, delta),
        {},
    ),
    "trial_rng": (
        lambda seed=0: trial_rng(seed),
        {("seed", "huge"): lambda r: isinstance(r, np.random.Generator)},
    ),
    "two_qubit_state": (lambda theta=0.5: two_qubit_state(theta), {}),
    "two_way_diagonal_test": (lambda p=0.7: two_way_diagonal_test(S3, p), {}),
    "verify_2design": (lambda tol=1e-10: verify_2design(prime_mub_set(3), tol), {}),
    "worst_case_pass_prob": (lambda nu=0.5, epsilon=0.1: worst_case_pass_prob(nu, epsilon), {}),
    "worst_case_state": (lambda eps=0.1: worst_case_state(STRAT_V, eps), {}),
}

_NUMBER_ANNOTATION = re.compile(r"(float|int)( \| None)?")


def _scalars(call) -> list[str]:
    return list(inspect.signature(call).parameters)


def _public(name: str):
    obj = biverify
    for part in name.split("."):
        obj = getattr(obj, part)
    return obj


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the calling thread after ``seconds``, which
    interrupts a Python loop that would not return."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_every_public_callable_has_an_entry():
    callables = {name for name in biverify.__all__ if callable(getattr(biverify, name))}
    assert callables - RECORDS == {name for name in CONTRACT if "." not in name}


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_entry_covers_every_numeric_parameter(name):
    """A parameter annotated as a number is a scalar of the entry, under the
    same name."""
    parameters = inspect.signature(_public(name)).parameters.values()
    numeric = {p.name for p in parameters if _NUMBER_ANNOTATION.fullmatch(str(p.annotation))}
    assert numeric <= set(_scalars(CONTRACT[name][0]))


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_valid_arguments_answer(name):
    with time_limit(TIME_LIMIT):
        CONTRACT[name][0]()


@pytest.mark.parametrize(
    "name, scalar",
    [(name, scalar) for name, (call, _) in sorted(CONTRACT.items()) for scalar in _scalars(call)],
)
def test_hostile_scalar_is_refused_or_answered(name, scalar):
    call, valid = CONTRACT[name]
    broken = {}
    for hostile, value in HOSTILE.items():
        check = valid.get((scalar, hostile))
        try:
            with time_limit(TIME_LIMIT):
                answer = call(**{scalar: value})
        except BiverifyError:
            if check is not None:
                broken[hostile] = "refused a valid value"
        except Exception as exc:
            broken[hostile] = repr(exc)
        else:
            if check is None or not check(answer):
                broken[hostile] = f"answered {answer!r}"
    assert not broken


def test_bounds_fit_the_int64_exponent_table():
    """m's bound keeps every product l e(a) of a design table in int64, and
    the d bound is the largest d whose smallest design fits m's."""
    assert (_MAX_DESIGN_SIZE - 1) ** 2 < 2**63 <= (_MAX_DESIGN_SIZE + 1) ** 2
    assert min_design_size(_MAX_DIMENSION) <= _MAX_DESIGN_SIZE < min_design_size(_MAX_DIMENSION + 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: figure1_grid(10**6 + 1), "grid size must be <= 1000000,"),
        (lambda: next_prime(2**40 + 1), "n must be <= 1099511627776,"),
        (lambda: is_prime(2**61 - 1), "n must be <= 4398046511104,"),
        (lambda: standard_basis(_MAX_DIMENSION + 1), "dimension must be <= 63635,"),
        (lambda: prime_mub_set(2**127 - 1), "dimension must be <= 63635,"),
        (lambda: embed_state(S2, _MAX_DIMENSION + 1), "target dimension must be <= 63635,"),
        (lambda: roy_scott_set(3, _MAX_DESIGN_SIZE + 1), "design size m must be <= 3037000499,"),
    ],
    ids=["grid", "next-prime", "is-prime", "basis", "mub-before-primality", "embedding", "design-m"],
)
def test_size_above_its_bound_refused(call, message):
    with time_limit(TIME_LIMIT), pytest.raises(BiverifyError, match=message):
        call()


@pytest.mark.parametrize("call", [make_schmidt_state, density_operator])
@pytest.mark.parametrize(
    "entries",
    [["a", "b"], [HUGE, 1.0], [[1.0], [1.0, 2.0]]],
    ids=["string", "huge", "ragged"],
)
def test_list_entry_numpy_cannot_cast_is_refused(call, entries):
    """A list entry that is no number numpy can cast (a string, even a
    numeric one, an int no double holds, a ragged row) is refused as out of
    range, not left to numpy's own error."""
    with pytest.raises(OutOfRangeError):
        call([entries, entries] if call is density_operator else entries)


@pytest.mark.parametrize(
    "call",
    [
        lambda sigma: run_verification(STRAT_V, sigma, 100),
        lambda sigma: estimate_fidelity(STRAT_V, sigma, 100),
        lambda sigma: compile_tables(STRAT_V, sigma),
        lambda sigma: exact_pass_rate(STRAT_V, sigma),
        lambda sigma: fidelity(sigma, S2),
        lambda sigma: embed_density(sigma, 3),
    ],
    ids=["run_verification", "estimate_fidelity", "compile_tables", "exact_pass_rate",
         "fidelity", "embed_density"],
)
@pytest.mark.parametrize("sigma", [RHO2.matrix, None, "rho"], ids=["matrix", "none", "str"])
def test_state_that_is_no_density_operator_is_refused(call, sigma):
    with pytest.raises(OutOfRangeError, match="must be a DensityOperator"):
        call(sigma)


def test_sizes_at_their_bounds_answer(capsys):
    """The largest m is certified from its integer table, and the largest n
    has its next prime, each within the time bound."""
    with time_limit(TIME_LIMIT):
        assert next_prime(2**40) == 2**40 + 15
        assert main(["check-design", "--d", "3", "--m", str(_MAX_DESIGN_SIZE)]) == 0
    assert "PASS residual=0.000e+00" in capsys.readouterr().out


# --- command line ---------------------------------------------------------

CLI_VALUES = {name: str(value) for name, value in HOSTILE.items()}

# command -> its valid flags, to which the flag under test is added
BASE = {
    "analyze": {"--strategy": "IV", "--schmidt": "3,2,1"},
    "simulate": {"--strategy": "IV", "--schmidt": "3,2,1", "--trials": "10"},
    "figure1": {"--grid-size": "2"},
    "check-design": {"--d": "3"},
}
# a job flag is tried on the command that reads it
JOB_READER = {"--trials": "simulate", "--seed": "simulate"}
# (command, flag) -> the values that are valid there
CLI_VALID = {
    ("analyze", "--theta"): {"str"},
    ("analyze", "--p"): {"str"},
    ("analyze", "--epsilon"): {"str"},
    ("analyze", "--delta"): {"str"},
    ("figure1", "--epsilon"): {"str"},
    ("figure1", "--delta"): {"str"},
    ("check-design", "--tol"): {"str"},
    ("simulate", "--seed"): {"huge"},
}


def _numeric_flags():
    """(command, flag) for every flag of ``build_parser`` that parses a
    number; a job flag (one beside ``--config``) on the command that reads
    it."""
    subparsers = next(action for action in build_parser()._actions if action.dest == "command")
    pairs = set()
    for command, parser in subparsers.choices.items():
        job = any("--config" in action.option_strings for action in parser._actions)
        for action in parser._actions:
            if action.type in (int, float):
                flag = action.option_strings[0]
                pairs.add((JOB_READER.get(flag, "analyze") if job else command, flag))
    return sorted(pairs)


def _argv(command: str, replaced: str, options: dict) -> list[str]:
    """``command`` with its valid flags less ``replaced`` (less ``--schmidt``
    too for ``--theta``, which replaces the target) and with ``options``."""
    dropped = {replaced, "--schmidt"} if replaced == "--theta" else {replaced}
    kept = {flag: value for flag, value in BASE[command].items() if flag not in dropped}
    return [command] + [item for pair in {**kept, **options}.items() for item in pair]


def _assert_refused_in_one_line(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "error: " in err
    else:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert code == 2, (argv, err)
    assert "Traceback" not in err


def test_every_numeric_flag_is_tried():
    flags = {flag for _, flag in _numeric_flags()}
    assert flags == {
        "--d", "--m", "--p", "--theta", "--epsilon", "--delta", "--trials", "--seed",
        "--grid-size", "--tol",
    }


@pytest.mark.parametrize("command, flag", _numeric_flags())
def test_numeric_flag(command, flag, capsys):
    for value, text in CLI_VALUES.items():
        argv = _argv(command, flag, {flag: text})
        if value in CLI_VALID.get((command, flag), ()):
            assert main(argv) == 0, argv
            capsys.readouterr()
        else:
            _assert_refused_in_one_line(argv, capsys)


# config key -> the values that are valid there; null reads as the key's
# absence
CONFIG_VALID = {"d": {"none"}, "p": {"none"}, "m": {"none"}, "seed": {"huge"}}
# JSON holds no complex; "0.5" is a JSON string
CONFIG_VALUES = {name: value for name, value in HOSTILE.items() if name != "complex"}
NUMERIC_KEYS = [
    field.name for field in fields(JobConfig) if field.type.split(" | ")[0] in ("int", "float")
]


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_numeric_config_value(key, capsys, tmp_path):
    command = JOB_READER.get(f"--{key}", "analyze")
    config = tmp_path / "job.json"
    argv = _argv(command, f"--{key}", {"--config": str(config)})
    for value, number in CONFIG_VALUES.items():
        config.write_text(json.dumps({key: number}))
        if value in CONFIG_VALID.get(key, ()):
            assert main(argv) == 0, (key, value)
            capsys.readouterr()
        else:
            _assert_refused_in_one_line(argv, capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["figure1", "--grid-size", str(10**23)],
        ["check-design", "--d", str(10**21)],
        ["check-design", "--d", "3", "--m", str(10**23)],
        ["analyze", "--schmidt", "3,2,1", "--strategy", "III", "--m", str(10**23)],
    ],
    ids=["grid-size", "design-d", "design-m", "analyze-m"],
)
def test_oversized_size_refused_before_it_is_used(argv, capsys):
    with time_limit(TIME_LIMIT):
        _assert_refused_in_one_line(argv, capsys)
