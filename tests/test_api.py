import ast
import importlib
import inspect
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import shortcycles
from shortcycles import SamplerConfig, joint_pmf, tv_exact
from shortcycles.closedforms import harmonic_number, macroscopic_bound, refined_bound
from shortcycles.counting import (
    SparsePMF, WindowTable, brute_force_count, count_table, expected_count, factorial_moment, nu_ratios,
)
from shortcycles.dickman import DickmanEvaluator
from shortcycles.distances import PoissonSpec, tv_cycle_counts, tv_empirical
from shortcycles.errors import require_sizes
from shortcycles.permutations import CountsVector, Permutation, class_size, cycle_type_counts, cycle_types
from shortcycles.sampling import draw, draw_cycle_types, mcmc_step
from shortcycles.stein import creation_probability, event_tally, term_estimates_exact, verify_closed_forms


EXPORTS = [
    "BoundBreakdown", "harmonic_number", "macroscopic_bound", "refined_bound",
    "SparsePMF", "WindowTable", "brute_force_count", "brute_force_pmf", "count_table",
    "expected_count", "factorial_moment", "first_element_cycle_length_pmf", "joint_pmf", "nu_ratios", "table_mode",
    "DickmanEvaluator", "GammaBoundReport", "RhoRatioReport", "gamma_bound_check", "rho_ratio_check", "xi",
    "PoissonSpec", "TvEstimate", "tv_cycle_counts", "tv_empirical", "tv_exact",
    "ResourceLimitError",
    "CountsVector", "CycleStructure", "Permutation", "class_size", "cycle_structure", "cycle_type_counts",
    "cycle_type_size", "cycle_types", "longest_cycle", "mappings_with_bounded_cycles",
    "permutations_with_bounded_cycles",
    "SamplerConfig", "draw", "draw_cycle_types", "mcmc_step",
    "ClosedFormMismatch", "ClosedFormReport", "TermEstimates", "creation_probability", "destruction_probability",
    "event_tally", "term_estimates_exact", "term_estimates_mc", "verify_closed_forms",
]


def test_all_holds_every_export():
    # the package imports its exports lazily, so __all__, not vars(), is the list public_callables scans
    assert sorted(shortcycles.__all__) == sorted(EXPORTS) and len(EXPORTS) == len(set(EXPORTS)) == 51


def test_every_export_is_its_home_module_attribute():
    for name in shortcycles.__all__:
        obj = getattr(shortcycles, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_lazy_exports_are_listed_and_unknown_names_refused():
    listed = dir(shortcycles)
    assert "__all__" in listed and set(shortcycles.__all__) <= set(listed)
    with pytest.raises(AttributeError, match="has no attribute 'XiEvaluator'"):
        shortcycles.XiEvaluator  # noqa: B018


def test_exports_and_submodules_resolve_in_a_fresh_interpreter(src_env):
    # nothing imported beforehand: each name goes through the package's __getattr__ on first use
    homes = ("closedforms", "counting", "dickman", "distances", "errors", "permutations", "sampling", "stein")
    script = (
        "import shortcycles\n"
        f"print(*(getattr(shortcycles, home).__name__ for home in {homes!r}))\n"
        "from shortcycles import *\n"
        "print(xi(2.0), len([name for name in shortcycles.__all__ if name in globals()]))"
    )
    result = subprocess.run([sys.executable, "-c", script], env=src_env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == " ".join(f"shortcycles.{home}" for home in homes) + "\n1.2564312086261695 51\n"


def public_callables():
    for name in shortcycles.__all__:
        obj = getattr(shortcycles, name)
        if not callable(obj):
            continue
        if not inspect.isclass(obj):
            yield name, obj
            continue
        for attr in vars(obj):
            member = getattr(obj, attr)
            if (attr == "__init__" or not attr.startswith("_")) and inspect.isroutine(member):
                yield f"{name}.{attr}", member


def test_caps_are_environment_only_and_tv_exact_takes_a_poisson_spec():
    # resource limits are the SHORTCYCLES_* variables, never a per-call argument
    with_cap = [name for name, fn in public_callables() if "cap" in inspect.signature(fn).parameters]
    assert with_cap == []
    with pytest.raises(TypeError, match="PoissonSpec"):
        tv_exact(joint_pmf(5, 3, 2), joint_pmf(5, 5, 2))


def test_generators_and_evaluators_are_always_passed():
    # no hidden seed, shared evaluator or freshly built table stands in for one the caller did not pass
    defaulted = [
        f"{name}({param.name})"
        for name, fn in public_callables()
        for param in inspect.signature(fn).parameters.values()
        if param.name in ("rng", "evaluator", "table") and param.default is not inspect.Parameter.empty
    ]
    assert defaulted == []


def test_sampler_config_carries_no_seed():
    assert "seed" not in SamplerConfig._fields


def test_one_door_to_rho_and_xi():
    # rho comes from a DickmanEvaluator the caller holds, xi from the function xi
    for name in ("XiEvaluator", "default_evaluator", "rho", "log_rho"):
        assert not hasattr(shortcycles, name), name
        assert not hasattr(shortcycles.dickman, name), name


def test_one_table_door():
    # count_table builds every window (d, r]; the table holds d and r, and a
    # reader takes r from the table it reads, never beside it
    for name in ("window_table", "restricted_count_table", "support_size"):
        assert not hasattr(shortcycles, name), name
        assert not hasattr(shortcycles.counting, name), name
    table = shortcycles.count_table(5, 2, "double", d=1)
    assert (table.d, table.r) == (1, 2)
    assert not hasattr(table, "lo") and not hasattr(table, "hi")
    both = [name for name, fn in public_callables() if {"table", "r"} <= set(inspect.signature(fn).parameters)]
    assert both == []


def test_one_cycle_type_sampler():
    # sampling runs on cycle types only: no rejection route, and no labelled
    # walk matrix next to the walk the sampler runs
    gone = (
        "sample_rejection", "acceptance_rate", "retry_cap", "DEFAULT_RETRY_CAP",
        "TransitionMatrix", "stationarity_matrix", "STATIONARITY_MAX_N",
        "Transposition", "apply_transposition",
    )
    for name in gone:
        assert not hasattr(shortcycles, name), name
        assert not hasattr(shortcycles.sampling, name), name
        assert not hasattr(shortcycles.permutations, name), name


def test_no_sampler_takes_a_table():
    # every draw goes through draw or draw_cycle_types, which build and check their own nu table
    sampling = shortcycles.sampling
    own = {
        name: obj
        for name, obj in vars(sampling).items()
        if not name.startswith("_") and callable(obj) and getattr(obj, "__module__", None) == sampling.__name__
    }
    assert {"draw", "draw_cycle_types", "mcmc_step"} <= set(own)
    assert [name for name, obj in own.items() if "table" in inspect.signature(obj).parameters] == []


def test_exact_log_view_names_fraction():
    # the mirror of a double table's fraction(): each mode has its own readers
    with pytest.raises(ValueError, match=r"fraction\(\)"):
        count_table(5, 2).log_view()


def test_readme_lists_every_cap_the_code_reads():
    # errors.CAPS, the table of errors.env_cap, the one reader of os.environ,
    # holds every SHORTCYCLES_* variable a call site names, and it is the caps
    # contract of the README
    package = Path(shortcycles.__file__).parent
    calls = [
        (path.stem, node)
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
    ]
    environ = {stem for stem, node in calls if ast.unparse(node.func) in ("os.environ.get", "os.getenv")}
    assert environ == {"errors"}
    read = {node.args[0].value for _, node in calls if ast.unparse(node.func) == "env_cap"}
    assert read == set(shortcycles.errors.CAPS)
    readme = (package.parent.parent / "README.md").read_text()
    contract = re.search(r"^- resource caps are set only through .*?(?=^- )", readme, re.M | re.S).group(0)
    assert set(shortcycles.errors.CAPS) == set(re.findall(r"`(SHORTCYCLES_\w+)`", contract))


@pytest.mark.parametrize("value", ["abc", "1.5", "-1", "0"])
@pytest.mark.parametrize(
    "variable,call",
    [
        ("SHORTCYCLES_SUPPORT_CAP", lambda: next(cycle_types(9, 3))),
        ("SHORTCYCLES_SUPPORT_CAP", lambda: joint_pmf(8, 4, 2)),
        ("SHORTCYCLES_BRUTE_FORCE_CAP", lambda: brute_force_count(4, 2)),
        ("SHORTCYCLES_DICKMAN_PANEL_CAP", lambda: DickmanEvaluator().log_rho(5.0)),
    ],
    ids=["support-types", "support-pmf", "brute-force", "dickman-panels"],
)
def test_cap_that_is_not_a_positive_integer_is_rejected_by_name(variable, call, value, monkeypatch):
    monkeypatch.setenv(variable, value)
    with pytest.raises(ValueError, match=f"^{variable} must be a positive integer, got {re.escape(repr(value))}$"):
        call()


def test_private_names_stay_in_their_module():
    # a module that needs another module's helper imports a public name
    package = Path(shortcycles.__file__).parent
    borrowed = [
        f"{path.stem} imports {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("shortcycles"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert borrowed == []


def test_one_enumerator_and_one_law_constructor():
    # the n! enumeration lives in permutations alone, and a law is built only by SparsePMF(d, counts, masses, mode)
    package = Path(shortcycles.__file__).parent
    enumerating = sorted(
        path.stem
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and ast.unparse(node) == "itertools.permutations")
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "itertools"
            and any(alias.name == "permutations" for alias in node.names)
        )
    )
    assert enumerating == ["permutations"]
    for name in ("from_arrays", "_set"):
        assert not hasattr(shortcycles.SparsePMF, name), name


def test_one_checked_type_stream_and_one_list_of_closed_forms():
    # both sampler doors read one stream that builds and checks the table, and
    # the stein-verify JSON takes the names of the closed forms from stein
    package = Path(shortcycles.__file__).parent
    builds = [
        node
        for node in ast.walk(ast.parse((package / "sampling.py").read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "count_table"
    ]
    assert len(builds) == 1
    names = ("creation", "destruction", "destruction_rearranged")
    spelled = [
        node.value
        for node in ast.walk(ast.parse((package / "cli.py").read_text()))
        if isinstance(node, ast.Constant) and node.value in names
    ]
    assert spelled == []
    assert shortcycles.stein.CLOSED_FORMS == names


def test_stein_terms_read_closed_forms_only():
    # the bound terms take no enumeration route, and the CLI cannot tell which destruction formula they read
    package = Path(shortcycles.__file__).parent
    type_terms = next(
        node
        for node in ast.parse((package / "stein.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "_type_terms"
    )
    calls = {ast.unparse(node.func) for node in ast.walk(type_terms) if isinstance(node, ast.Call)}
    assert {"_creation_numerator", "_destruction_numerator"} <= calls
    assert not calls & {"_pair_counts", "event_tally"}
    from_stein = [
        alias.name
        for node in ast.walk(ast.parse((package / "cli.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "stein"
        for alias in node.names
    ]
    assert from_stein and not [name for name in from_stein if "tally" in name]


TWO_SAMPLES = (CountsVector((0,)), CountsVector((1,)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call,error,bad",
    [
        (lambda: creation_probability((1,), 1, 1), ValueError, "(1,)"),
        (lambda: creation_probability((), 1, 1), ValueError, "()"),
        (lambda: creation_probability((0, 3), 1, 1), ValueError, "(0, 3)"),
        (lambda: creation_probability((-1, 4), 1, 1), ValueError, "(-1, 4)"),
        (lambda: tv_exact(joint_pmf(4, 2, 1), PoissonSpec.cycle_reference(1), precision=1), ValueError, "got 1"),
        (lambda: tv_exact(joint_pmf(4, 2, 1), PoissonSpec.cycle_reference(1), precision=16), ValueError, "got 16"),
        (lambda: mcmc_step((), 2, np.random.default_rng(0)), ValueError, "state ()"),
        (lambda: cycle_type_counts(-1, 2), ValueError, "n=-1"),
        (lambda: CountsVector.from_cycle_type((1, 2), -1), ValueError, "d=-1"),
        (lambda: Permutation.from_cycle_type((0, 2)), ValueError, "(0, 2)"),
        (lambda: CountsVector.from_cycle_type((0, 2), 3), ValueError, "(0, 2)"),
        (lambda: CountsVector.from_cycle_type((-5, 2), 3), ValueError, "(-5, 2)"),
        (lambda: CountsVector((-1,)), ValueError, "(-1,)"),
        (lambda: class_size((0,)), ValueError, "(0,)"),
        (lambda: class_size((-1, 3)), ValueError, "(-1, 3)"),
        (lambda: mcmc_step((0, 3), 3, np.random.default_rng(0)), ValueError, "(0, 3)"),
        (lambda: mcmc_step((3, 1, 2), 6, np.random.default_rng(0)), ValueError, "(3, 1, 2)"),
        (lambda: joint_pmf(5, 3, 2).probability((0,)), ValueError, "dimension 1 for a law of dimension d=2"),
        (lambda: WindowTable(0, 3, "Double", np.zeros(4)), ValueError, "unknown mode 'Double'"),
        (lambda: SparsePMF(1, np.array([[0]]), [Fraction(1)], "Exact"), ValueError, "unknown mode 'Exact'"),
        (lambda: refined_bound(10.5, 5, 2), TypeError, "n must be an integer, got 10.5"),
        (lambda: macroscopic_bound(10.5, 3, 2), TypeError, "n must be an integer, got 10.5"),
        (lambda: refined_bound(10, True, 2), TypeError, "r must be an integer, got True"),
        (lambda: harmonic_number(2.5), TypeError, "d must be an integer, got 2.5"),
        (lambda: count_table(20, 13.0, "exact"), TypeError, "r must be an integer, got 13.0"),
        (lambda: count_table(20.0, 13, "double"), TypeError, "n_max must be an integer, got 20.0"),
        (lambda: count_table(20, 13, "double", d=2.0), TypeError, "d must be an integer, got 2.0"),
        (lambda: count_table(20, True, "exact"), TypeError, "r must be an integer, got True"),
        (lambda: joint_pmf(10.0, 5, 2), TypeError, "n must be an integer, got 10.0"),
        (lambda: tv_cycle_counts(10, 5.0, 2), TypeError, "r must be an integer, got 5.0"),
        (lambda: next(cycle_types(6.0, 3)), TypeError, "n must be an integer, got 6.0"),
        (lambda: term_estimates_exact(6, 3.0, 2), TypeError, "r must be an integer, got 3.0"),
        (lambda: factorial_moment(6.0, (1,), count_table(6, 3)), TypeError, "n must be an integer, got 6.0"),
        (lambda: expected_count(6, 1.0, count_table(6, 3)), TypeError, "k must be an integer, got 1.0"),
        (lambda: nu_ratios(6, 2.0, count_table(6, 3)), TypeError, "top must be an integer, got 2.0"),
        (lambda: SamplerConfig(10.5, 3), TypeError, "n must be an integer, got 10.5"),
        (lambda: SamplerConfig(10, 3, "mcmc", 1.5), TypeError, "mcmc_burn_in must be an integer, got 1.5"),
        (lambda: SamplerConfig(10, 3, "mcmc", True), TypeError, "mcmc_burn_in must be an integer, got True"),
        (lambda: SamplerConfig(10, 3, "mcmc", 0, 2.0), TypeError, "mcmc_thinning must be an integer, got 2.0"),
        (lambda: SamplerConfig(10, 3, "mcmc", 0, True), TypeError, "mcmc_thinning must be an integer, got True"),
        (lambda: draw_cycle_types(SamplerConfig(10, 3), 2.0, np.random.default_rng(0)), TypeError,
         "count must be an integer, got 2.0"),
        (lambda: draw(SamplerConfig(10, 3), True, np.random.default_rng(0)), TypeError,
         "count must be an integer, got True"),
        (lambda: tv_empirical(TWO_SAMPLES, PoissonSpec.cycle_reference(1), bootstrap=200.0,
                              rng=np.random.default_rng(0)), TypeError, "bootstrap must be an integer, got 200.0"),
        (lambda: tv_empirical(TWO_SAMPLES, PoissonSpec.cycle_reference(1), bootstrap=True,
                              rng=np.random.default_rng(0)), TypeError, "bootstrap must be an integer, got True"),
        (lambda: verify_closed_forms(6, 4, 0), ValueError, "need 1 <= d_max, got d_max=0"),
        (lambda: verify_closed_forms(6, 4, -3), ValueError, "need 1 <= d_max, got d_max=-3"),
        (lambda: event_tally((1, 2, 3), 3, [0]), ValueError, "need 1 <= d < r, got d=0, r=3"),
        (lambda: event_tally((1, 2, 3), 3, [-3]), ValueError, "need 1 <= d < r, got d=-3, r=3"),
        (lambda: event_tally((1, 2, 3), 3, [7]), ValueError, "need 1 <= d < r, got d=7, r=3"),
        (lambda: event_tally((1, 2, 3), 3, [2, 3]), ValueError, "need 1 <= d < r, got d=3, r=3"),
    ],
    ids=[
        "creation-one-element", "creation-empty", "creation-zero-part", "creation-negative-part",
        "tv-precision-1", "tv-precision-16", "mcmc-step-empty", "cycle-type-counts-negative",
        "counts-vector-negative-d", "permutation-zero-part", "counts-vector-zero-part",
        "counts-vector-negative-part", "counts-vector-negative-entry", "class-size-zero-part",
        "class-size-negative-part", "mcmc-step-zero-part", "mcmc-step-unsorted", "probability-wrong-dimension",
        "window-table-mode", "sparse-pmf-mode", "refined-float-n", "macroscopic-float-n", "refined-bool-r",
        "harmonic-float-d", "count-table-float-r", "count-table-float-n", "count-table-float-d", "count-table-bool-r",
        "joint-pmf-float-n", "tv-cycle-counts-float-r", "cycle-types-float-n", "term-estimates-exact-float-r",
        "factorial-moment-float-n", "expected-count-float-k", "nu-ratios-float-top", "sampler-config-float-n",
        "sampler-config-float-burn-in", "sampler-config-bool-burn-in", "sampler-config-float-thinning",
        "sampler-config-bool-thinning", "draw-cycle-types-float-count", "draw-bool-count",
        "tv-empirical-float-bootstrap", "tv-empirical-bool-bootstrap",
        "verify-closed-forms-zero-d", "verify-closed-forms-negative-d", "event-tally-zero-d", "event-tally-negative-d",
        "event-tally-d-above-r", "event-tally-d-at-r",
    ],
)
def test_edge_inputs_raise_value_error_naming_the_value(call, error, bad):
    # a value out of range is a ValueError; a size that is not an int (a bool is not) is a TypeError
    with pytest.raises(error, match=re.escape(bad)):
        call()


def _definitions(*modules: str) -> dict:
    """The functions and methods of the package's ``modules``, keyed ``name`` or ``Class.name``."""
    package = Path(shortcycles.__file__).parent
    functions = {}
    for module in modules:
        for node in ast.parse((package / f"{module}.py").read_text()).body:
            if isinstance(node, ast.ClassDef):
                functions.update({f"{node.name}.{f.name}": f for f in node.body if isinstance(f, ast.FunctionDef)})
            elif isinstance(node, ast.FunctionDef):
                functions[node.name] = node
    return functions


def test_permutations_owns_the_cycle_type_check_and_the_type_cap():
    # which tuples are cycle types is decided by permutations.cycle_type_size
    # alone, and the cap on the number of cycle types by the enumerator
    package = Path(shortcycles.__file__).parent
    tree = ast.parse((package / "stein.py").read_text())
    imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    assert "counting" not in imported
    functions = _definitions("permutations", "sampling", "stein")

    def calls(name):
        return {ast.unparse(node.func) for node in ast.walk(functions[name]) if isinstance(node, ast.Call)}

    assert "_check_longest" not in functions and "_weighted_cycle_types" not in functions
    assert "cycle_type_size" in calls("_type_size")
    doors = (
        "Permutation.from_cycle_type", "CountsVector.from_cycle_type", "class_size", "mcmc_step",
        "creation_probability", "destruction_probability", "event_tally",
    )
    unchecked = [door for door in doors if not {"cycle_type_size", "_type_size"} & calls(door)]
    assert unchecked == []
    assert "capped_type_count" in calls("cycle_types")


SIZE_DOORS = {
    "closedforms": ("harmonic_number", "refined_bound", "macroscopic_bound"),
    "counting": (
        "count_table", "nu_ratios", "first_element_cycle_length_pmf", "SparsePMF.expectation", "joint_pmf",
        "factorial_moment", "expected_count", "brute_force_pmf",
    ),
    "distances": ("PoissonSpec.cycle_reference", "tv_cycle_counts", "tv_empirical"),
    "permutations": (
        "mappings_with_bounded_cycles", "permutations_with_bounded_cycles", "cycle_types", "cycle_type_counts",
    ),
    "sampling": ("SamplerConfig.__new__", "_types"),
    "stein": (
        "creation_probability", "destruction_probability", "event_tally", "verify_closed_forms",
        "term_estimates_exact", "term_estimates_mc",
    ),
    "cli": ("_tv_mc", "_cmd_stein_verify"),
}


def test_every_door_checks_its_sizes_with_one_rule():
    # which sizes are valid is decided by errors.require_sizes alone: one call
    # per door, whose rule names only the sizes it is passed
    unchecked = []
    for module, doors in SIZE_DOORS.items():
        functions = _definitions(module)
        for door in doors:
            rules = [
                node
                for node in ast.walk(functions[door])
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "require_sizes"
            ]
            if len(rules) != 1:
                unchecked.append(f"{module}.{door}")
                continue
            named = set(re.findall(r"[A-Za-z_]\w*", rules[0].args[0].value))
            assert named <= {keyword.arg for keyword in rules[0].keywords}, door
    assert unchecked == []
    assert not hasattr(shortcycles.errors, "require_int") and not hasattr(shortcycles.stein, "_validate_kdr")


@pytest.mark.parametrize(
    "sizes,message",
    [
        ({"k": 1, "d": 2, "r": 3, "n": 4}, None),
        ({"k": 1, "d": 3, "r": 3, "n": 5}, "need 1 <= k <= d < r <= n, got k=1, d=3, r=3, n=5"),
        ({"k": 0, "d": 2, "r": 3, "n": 4}, "need 1 <= k <= d < r <= n, got k=0, d=2, r=3, n=4"),
        ({"k": 1, "d": 2, "r": 3, "n": 3}, "need 4 <= n, got n=3"),
        ({"k": np.int64(1), "d": np.int32(2), "r": np.uint8(3), "n": 4}, None),
    ],
    ids=["holds", "strict-link", "literal-link", "second-chain", "numpy-integers"],
)
def test_size_rule_reports_the_first_chain_that_fails(sizes, message):
    rule = "1 <= k <= d < r <= n, 4 <= n"
    if message is None:
        require_sizes(rule, **sizes)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            require_sizes(rule, **sizes)


@pytest.mark.parametrize("value", [2.0, True, np.bool_(True), "2", Fraction(2), None])
def test_size_that_is_not_an_integer_is_a_type_error(value):
    with pytest.raises(TypeError, match=f"^d must be an integer, got {re.escape(repr(value))}$"):
        require_sizes("1 <= d", d=value)


def test_int_sizes_leave_numbers_unloaded(src_env):
    # only a size that is not an int imports numbers, so the start-up checks do not load it
    script = (
        "import sys\n"
        "assert 'numbers' not in sys.modules\n"
        "from shortcycles.errors import require_sizes\n"
        "require_sizes('1 <= r', r=2)\n"
        "print(sorted({'numbers'} & set(sys.modules)))\n"
        "for value in (2.5, True):\n"
        "    try:\n"
        "        require_sizes('1 <= r', r=value)\n"
        "    except TypeError as exc:\n"
        "        print(exc)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], env=src_env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "[]\nr must be an integer, got 2.5\nr must be an integer, got True\n"


def test_numpy_integer_sizes_give_the_int_results():
    n, r, d = np.int64(10), np.int64(5), np.int64(2)
    assert count_table(n, r, "exact").scaled == count_table(10, 5, "exact").scaled
    assert np.array_equal(count_table(n, r, "double", d=d).log_view(), count_table(10, 5, "double", d=2).log_view())
    law, expected = joint_pmf(n, r, d), joint_pmf(10, 5, 2)
    assert np.array_equal(law.counts, expected.counts) and law.masses == expected.masses
    assert tv_cycle_counts(n, r, d) == tv_cycle_counts(10, 5, 2)
    assert refined_bound(n, r, d) == refined_bound(10, 5, 2)
    huge = np.int64(10**10)  # n * r leaves the int64 range
    assert refined_bound(huge, huge, d) == refined_bound(10**10, 10**10, 2)
    assert list(cycle_types(n, r)) == list(cycle_types(10, 5))


def test_numpy_is_the_one_runtime_dependency():
    # the package imports the standard library and numpy, and pyproject.toml asks for numpy alone
    tomllib = pytest.importorskip("tomllib")
    package = Path(shortcycles.__file__).parent
    imported = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == {"numpy"}
    project = tomllib.loads((package.parent.parent / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", requirement).group(0) for requirement in project["dependencies"]] == ["numpy"]
