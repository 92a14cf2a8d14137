import dataclasses
import inspect

import pytest

import shortcycles
from shortcycles import SamplerConfig, joint_pmf, tv_exact


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
    # no hidden seed or shared evaluator stands in for one the caller did not pass
    defaulted = [
        f"{name}({param.name})"
        for name, fn in public_callables()
        for param in inspect.signature(fn).parameters.values()
        if param.name in ("rng", "evaluator") and param.default is not inspect.Parameter.empty
    ]
    assert defaulted == []


def test_sampler_config_carries_no_seed():
    assert "seed" not in {field.name for field in dataclasses.fields(SamplerConfig)}


def test_one_door_to_rho_and_xi():
    # rho comes from a DickmanEvaluator the caller holds, xi from the function xi
    for name in ("XiEvaluator", "default_evaluator", "rho", "log_rho"):
        assert not hasattr(shortcycles, name), name
        assert not hasattr(shortcycles.dickman, name), name
