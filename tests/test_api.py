import inspect

import pytest

import shortcycles
from shortcycles import joint_pmf, tv_exact


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
