import ast
import dataclasses
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import shortcycles
from shortcycles import SamplerConfig, joint_pmf, tv_exact
from shortcycles.counting import count_table
from shortcycles.distances import PoissonSpec
from shortcycles.permutations import CountsVector, cycle_type_counts
from shortcycles.sampling import mcmc_step, sample_cycle_type, sample_sequential
from shortcycles.stein import creation_probability


def public_callables():
    for name, obj in vars(shortcycles).items():
        if name.startswith("_") or not callable(obj):
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
    assert "seed" not in {field.name for field in dataclasses.fields(SamplerConfig)}


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


def test_readme_lists_every_cap_the_code_reads():
    # the SHORTCYCLES_* variables read from os.environ are the caps contract of the README
    package = Path(shortcycles.__file__).parent
    read = {
        node.args[0].value
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("os.environ.get", "os.getenv")
        and isinstance(node.args[0], ast.Constant)
    }
    readme = (package.parent.parent / "README.md").read_text()
    contract = re.search(r"^- resource caps are set only through .*?(?=^- )", readme, re.M | re.S).group(0)
    assert read == set(re.findall(r"`(SHORTCYCLES_\w+)`", contract))


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call,bad",
    [
        (lambda: creation_probability((1,), 1, 1), "(1,)"),
        (lambda: creation_probability((), 1, 1), "()"),
        (lambda: creation_probability((0, 3), 1, 1), "(0, 3)"),
        (lambda: creation_probability((-1, 4), 1, 1), "(-1, 4)"),
        (lambda: tv_exact(joint_pmf(4, 2, 1), PoissonSpec.cycle_reference(1), precision=1), "got 1"),
        (lambda: tv_exact(joint_pmf(4, 2, 1), PoissonSpec.cycle_reference(1), precision=16), "got 16"),
        (lambda: mcmc_step((), 2, np.random.default_rng(0)), "state ()"),
        (lambda: sample_cycle_type(0, np.random.default_rng(0), count_table(5, 2, "double")), "n=0"),
        (lambda: sample_sequential(0, np.random.default_rng(0), count_table(5, 2, "double")), "n=0"),
        (lambda: cycle_type_counts(-1, 2), "n=-1"),
        (lambda: CountsVector.from_cycle_type((1, 2), -1), "d=-1"),
    ],
    ids=[
        "creation-one-element", "creation-empty", "creation-zero-part", "creation-negative-part",
        "tv-precision-1", "tv-precision-16", "mcmc-step-empty", "sample-cycle-type-n0",
        "sample-sequential-n0", "cycle-type-counts-negative", "counts-vector-negative-d",
    ],
)
def test_edge_inputs_raise_value_error_naming_the_value(call, bad):
    with pytest.raises(ValueError, match=re.escape(bad)):
        call()
