"""The contract of the result records: immutable, compared and hashed by
their fields in order, printed as ``Name(field=value, ...)``, and, for the
three validated types, never holding a value their constructor rejects."""

import inspect
import math
import pickle
import re
from fractions import Fraction

import pytest

from shortcycles.closedforms import BoundBreakdown
from shortcycles.counting import joint_pmf
from shortcycles.distances import PoissonSpec, TvEstimate
from shortcycles.permutations import CountsVector, CycleStructure
from shortcycles.sampling import SamplerConfig
from shortcycles.stein import ClosedFormMismatch, ClosedFormReport, TermEstimates, TermRow

MISMATCH = ClosedFormMismatch(5, 4, 1, 1, "destruction", (0, 2, 3, 4, 1), Fraction(0), Fraction(7, 5), 30)
EXACT_ROW = TermRow(1, Fraction(13, 19), Fraction(18, 19))

# each record built from fixed values, with the repr the dataclass versions printed
RECORDS = [
    (
        lambda: CycleStructure(((0, 1), (2,)), (1, 2)),
        "CycleStructure(cycles=((0, 1), (2,)), lengths=(1, 2))",
    ),
    (lambda: CountsVector((1, 0, 2)), "CountsVector(counts=(1, 0, 2))"),
    (lambda: PoissonSpec((1.0, 0.5)), "PoissonSpec(means=(1.0, 0.5))"),
    (lambda: TvEstimate(0.25, 0.01, 100), "TvEstimate(value=0.25, stderr=0.01, sample_count=100)"),
    (
        lambda: BoundBreakdown(100, 20, 3, 5.0, 1.5, 0.0625, 0.25, 0.03125, 0.34375, 1.75),
        "BoundBreakdown(n=100, r=20, d=3, u=5.0, constant=1.5, harmonic_term=0.0625, fixed_term=0.25, "
        "asymptotic_term=0.03125, total=0.34375, h_d=1.75)",
    ),
    (
        lambda: SamplerConfig(10, 4, "mcmc", 2, 3),
        "SamplerConfig(n=10, r=4, method='mcmc', mcmc_burn_in=2, mcmc_thinning=3)",
    ),
    (lambda: SamplerConfig(10, 4), "SamplerConfig(n=10, r=4, method='sequential', mcmc_burn_in=0, mcmc_thinning=1)"),
    (
        lambda: MISMATCH,
        "ClosedFormMismatch(n=5, r=4, d=1, k=1, which='destruction', mapping=(0, 2, 3, 4, 1), "
        "enumerated=Fraction(0, 1), formula=Fraction(7, 5), class_size=30)",
    ),
    (
        lambda: ClosedFormReport(5, 4, 3, 576, [MISMATCH]),
        "ClosedFormReport(n=5, r=4, d_max=3, checked=576, mismatches=[ClosedFormMismatch(n=5, r=4, d=1, k=1, "
        "which='destruction', mapping=(0, 2, 3, 4, 1), enumerated=Fraction(0, 1), formula=Fraction(7, 5), "
        "class_size=30)])",
    ),
    (
        lambda: EXACT_ROW,
        "TermRow(k=1, creation_term=Fraction(13, 19), destruction_term=Fraction(18, 19), creation_se=None, "
        "destruction_se=None)",
    ),
    (
        lambda: TermRow(2, 0.5, 0.25, 0.125, 0.0625),
        "TermRow(k=2, creation_term=0.5, destruction_term=0.25, creation_se=0.125, destruction_se=0.0625)",
    ),
    (
        lambda: TermEstimates(6, 4, 1, "exact", (EXACT_ROW,), Fraction(31, 38)),
        "TermEstimates(n=6, r=4, d=1, mode='exact', rows=(TermRow(k=1, creation_term=Fraction(13, 19), "
        "destruction_term=Fraction(18, 19), creation_se=None, destruction_se=None),), total=Fraction(31, 38), "
        "sample_count=None)",
    ),
]
IDS = [re.match(r"\w+", text).group(0) for _, text in RECORDS]


@pytest.mark.parametrize("build,text", RECORDS, ids=IDS)
def test_repr_text(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build,text", RECORDS, ids=IDS)
def test_assigning_an_attribute_raises(build, text):
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.note = "added"
    assert repr(record) == text


@pytest.mark.parametrize("build,text", RECORDS, ids=IDS)
def test_equal_records_are_equal_and_hash_alike(build, text):
    first, second = build(), build()
    assert first == second and not first != second
    if any(isinstance(value, list) for value in first):
        # a report holding its mismatch list is unhashable, as the mutable dataclass was
        with pytest.raises(TypeError):
            hash(first)
    else:
        # the hash of a frozen dataclass: the hash of the tuple of its fields
        assert hash(first) == hash(second) == hash(tuple(getattr(first, name) for name in first._fields))


@pytest.mark.parametrize(
    "cls,defaults",
    [
        (CountsVector, {}),
        (PoissonSpec, {}),
        (SamplerConfig, {"method": "sequential", "mcmc_burn_in": 0, "mcmc_thinning": 1}),
    ],
)
def test_validated_constructors_keep_the_field_signature(cls, defaults):
    # the hand-written __new__ takes the fields in order, with the dataclass defaults
    parameters = inspect.signature(cls).parameters.values()
    assert tuple(p.name for p in parameters) == cls._fields
    assert {p.name: p.default for p in parameters if p.default is not inspect.Parameter.empty} == defaults


def test_counts_vector_is_a_key_of_the_law_entries():
    pmf = joint_pmf(6, 3, 2)
    entries = pmf.entries
    assert all(type(key) is CountsVector for key in entries)
    assert entries[CountsVector((2, 2))] == pmf.probability((2, 2)) > 0
    assert CountsVector((2, 2)) in entries and CountsVector((6, 1)) not in entries
    assert {CountsVector((2, 2)): 1}[CountsVector((2, 2))] == 1


@pytest.mark.parametrize(
    "build,change,error,message",
    [
        (lambda: CountsVector((1, 2)), {"counts": (1, -2)}, ValueError, "count vector (1, -2) has a negative entry"),
        (lambda: PoissonSpec((1.0,)), {"means": ()}, ValueError, "means must be finite, positive and non-empty, got ()"),
        (lambda: PoissonSpec((1.0,)), {"means": (0.0,)}, ValueError, "means must be finite, positive and non-empty, got (0.0,)"),
        (lambda: PoissonSpec((1.0,)), {"means": (math.inf,)}, ValueError, "means must be finite, positive and non-empty, got (inf,)"),
        (lambda: SamplerConfig(5, 3), {"r": 6}, ValueError, "need 1 <= r <= n, got r=6, n=5"),
        (lambda: SamplerConfig(5, 3), {"r": 0}, ValueError, "need 1 <= r <= n, got r=0, n=5"),
        (lambda: SamplerConfig(5, 3), {"method": "rejection"}, ValueError, "unknown method 'rejection'"),
        (lambda: SamplerConfig(5, 3), {"mcmc_burn_in": -1}, ValueError, "need 0 <= mcmc_burn_in, got mcmc_burn_in=-1"),
        (lambda: SamplerConfig(5, 3), {"mcmc_thinning": 0}, ValueError, "need 1 <= mcmc_thinning, got mcmc_thinning=0"),
        (lambda: SamplerConfig(5, 3), {"n": 10.5}, TypeError, "n must be an integer, got 10.5"),
    ],
    ids=[
        "counts-negative", "means-empty", "means-zero", "means-inf",
        "sampler-r-above-n", "sampler-r-zero", "sampler-method", "sampler-burn-in", "sampler-thinning",
        "sampler-float-n",
    ],
)
def test_validated_types_reject_bad_values_by_constructor_and_replace(build, change, error, message):
    valid = build()
    cls = type(valid)
    values = valid._asdict()
    values.update(change)
    for make in (
        lambda: cls(**values),
        lambda: cls(*values.values()),
        lambda: valid._replace(**change),
        lambda: cls._make(values.values()),
        # an instance that skipped validation does not survive a pickle round trip
        lambda: pickle.loads(pickle.dumps(tuple.__new__(cls, values.values()))),
    ):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make()
    assert pickle.loads(pickle.dumps(valid)) == valid and type(pickle.loads(pickle.dumps(valid))) is cls
