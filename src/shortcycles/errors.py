"""Exception types, the table and the reader of the resource caps, and the size rule, shared across the package."""

import functools
import os
import re


class ResourceLimitError(RuntimeError):
    """A configured resource cap (support size, brute-force size, Dickman panels) was hit."""


CAPS = {  # every resource cap: its environment variable and its default
    "SHORTCYCLES_SUPPORT_CAP": 10**7,  # cycle types, or joint-law support vectors, one call visits
    "SHORTCYCLES_BRUTE_FORCE_CAP": 10,  # largest n brute-force enumeration accepts
    "SHORTCYCLES_DICKMAN_PANEL_CAP": 10**4,  # unit panels of a Dickman evaluator, about 2 kB and 35 us each
}


def env_cap(name: str) -> int:
    """The resource cap set by the environment variable ``name``, one of
    :data:`CAPS`, or its default there where it is unset.  A value that is not
    a positive integer raises ValueError naming the variable."""
    text = os.environ.get(name)
    if text is None:
        return CAPS[name]
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{name} must be a positive integer, got {text!r}")
    return cap


@functools.cache
def _chains(rule: str) -> tuple:
    """Each chain of ``rule`` as its text, its size names and its links, one
    (left, right, strict) per operator: ``"1 <= d < r"`` links (1, "d", False)
    and ("d", "r", True)."""
    chains = []
    for text in rule.split(", "):
        terms = re.split(r"\s*(<=|<)\s*", text)
        operands = [int(term) if term.isdigit() else term for term in terms[::2]]
        names = tuple(dict.fromkeys(x for x in operands if isinstance(x, str)))
        links = tuple(zip(operands, operands[1:], [op == "<" for op in terms[1::2]]))
        chains.append((text, names, links))
    return tuple(chains)


def require_sizes(rule: str, **sizes) -> None:
    """Check the integer sizes ``sizes`` against ``rule``: one or more chains of
    ``<=`` and ``<`` over their names and int literals, joined by ``", "``, as
    in ``require_sizes("1 <= d <= r <= n", d=d, r=r, n=n)``.

    A size that is not an int or a numpy integer (a bool is not: ``True`` is
    no size) raises TypeError naming it.  The first chain that fails raises
    ValueError with its text and the values of its names:
    ``need 1 <= d <= r <= n, got d=0, r=3, n=5``.  The rule is parsed once.
    """
    for name, value in sizes.items():
        if type(value) is not int:
            # a numpy integer arrives only once numpy, which imports numbers, is loaded
            import numbers

            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
    get = sizes.get  # a literal is no key, so it reads as itself
    for text, names, links in _chains(rule):
        for left, right, strict in links:
            a, b = get(left, left), get(right, right)
            if not (a < b if strict else a <= b):
                got = ", ".join(f"{name}={sizes[name]}" for name in names)
                raise ValueError(f"need {text}, got {got}")
