"""The value and report types: immutable, comparable, hashable, picklable.

Reports and validated values are ``NamedTuple`` types, so they are tuples;
``ExactSequence`` is not, because its length, items and iteration are
those of its terms.  Each kind is checked for a pickle and deepcopy
round-trip, refused assignment, same-type equality and hashing, and its
repr string; the validated tuples build through their checks on
``_replace`` too.
"""
import copy
import enum
import pickle
from fractions import Fraction

import pytest

from pseudopoly import (
    AuditConfig,
    ExactSequence,
    Hedgehog,
    InputError,
    IntPolynomial,
    RationalFunction,
    check_congruences,
    ruzsa_audit,
)


def _values():
    return {
        "sequence": (
            ExactSequence.of([1, "1/2", Fraction(-4, 6)]),
            "ExactSequence(terms=(1, Fraction(1, 2), Fraction(-2, 3)))",
        ),
        "polynomial": (
            IntPolynomial.of([2, -7, 0, 1, 0]),
            "IntPolynomial(coefficients=(2, -7, 0, 1))",
        ),
        "rational": (
            RationalFunction(IntPolynomial.of([0, 1]), IntPolynomial.of([1, -1, -1]), 2),
            "RationalFunction(numerator=IntPolynomial(coefficients=(0, 1)), "
            "denominator=IntPolynomial(coefficients=(1, -1, -1)), order=2)",
        ),
        "hedgehog": (Hedgehog([1, 1j]), "Hedgehog(endpoints=((1+0j), 1j))"),
        "config": (
            AuditConfig(window=4),
            "AuditConfig(growth_bound=2.718281828459045, window=4, n_max=None)",
        ),
        "congruence": (
            # 2^n breaks the congruences mod 2 and mod 3
            check_congruences(ExactSequence.of([2**n for n in range(5)]), "primary"),
            "CongruenceReport(mode='primary', length=5, checked_pairs=5, "
            "failing=((2, (1, 0, 0, 0, 0)), (3, (1, 2, 1, 2, 1))))",
        ),
        "report": (
            ruzsa_audit(ExactSequence.of([n * n for n in range(12)])),
            "AuditReport(length=12, config=AuditConfig(growth_bound=2.718281828459045, "
            "window=3, n_max=None), congruence=CongruenceReport(mode='primary', ",
        ),
    }


VALUES = _values()
FIELDS = {
    "sequence": "terms",
    "polynomial": "coefficients",
    "rational": "order",
    "hedgehog": "endpoints",
    "config": "window",
    "congruence": "failing",
    "report": "verdict",
}


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_pickle_and_deepcopy_round_trip(kind):
    value, _ = VALUES[kind]
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_fields_cannot_be_assigned(kind):
    value, _ = VALUES[kind]
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, FIELDS[kind], getattr(value, FIELDS[kind]))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_equal_values_of_one_type_hash_alike(kind):
    value, _ = VALUES[kind]
    twin = _values()[kind][0]
    assert twin is not value
    assert twin == value
    assert not twin != value
    assert hash(twin) == hash(value)
    assert len({twin, value}) == 1


@pytest.mark.parametrize("kind", sorted(VALUES))
def test_repr(kind):
    value, text = VALUES[kind]
    assert repr(value).startswith(text)
    if kind != "report":
        assert repr(value) == text


def test_unequal_values_differ():
    assert ExactSequence.of([1, 2]) != ExactSequence.of([1, 3])
    assert IntPolynomial.of([1, 2]) != IntPolynomial.of([1, 2, 3])
    assert Hedgehog([1]) != Hedgehog([2])
    assert AuditConfig() != AuditConfig(n_max=5)


def test_a_sequence_is_not_the_tuple_of_its_terms():
    seq = ExactSequence.of([1, 2, 3])
    assert not isinstance(seq, tuple)
    assert seq != (1, 2, 3)
    assert seq != seq.terms
    assert seq != [1, 2, 3]
    assert (len(seq), list(seq), seq[1]) == (3, [1, 2, 3], 2)
    with pytest.raises(AttributeError):
        del seq.terms


@pytest.mark.parametrize("text", ["x", "1/0", "nan"])
def test_a_string_that_is_no_exact_number_is_an_input_error(text):
    with pytest.raises(InputError, match=f"not an exact number: '{text}'"):
        ExactSequence.of([1, text])


def test_replace_builds_through_the_validating_constructor():
    assert IntPolynomial.of([1, 2])._replace(coefficients=(3, 0)) == IntPolynomial.of([3])
    func = VALUES["rational"][0]
    with pytest.raises(InputError, match="order must be >= 0"):
        func._replace(order=-1)
    with pytest.raises(InputError, match="must be nonzero"):
        Hedgehog([1])._replace(endpoints=(0j,))
    with pytest.raises(InputError, match="must be ints"):
        IntPolynomial._make([(1, 0.5)])


class _Small(enum.IntEnum):
    THREE = 3


@pytest.mark.parametrize(
    "terms",
    [[1, 2, 3], [_Small.THREE, 4], [Fraction(1, 2), Fraction(3, 4)], [Fraction(2), 1],
     [1, Fraction(1, 2), _Small.THREE]],
    ids=["ints", "int-enum", "fractions", "integral-fraction", "mixed"],
)
def test_is_integer_is_a_slot_set_once(terms):
    seq = ExactSequence(terms)
    # an integral Fraction is stored as its int
    expected = all(isinstance(t, int) or t.denominator == 1 for t in terms)
    assert seq.is_integer is expected
    assert seq.terms == tuple(terms)
    assert [type(t) is Fraction for t in seq.terms] == [
        isinstance(t, Fraction) and t.denominator != 1 for t in terms
    ]
    for twin in (pickle.loads(pickle.dumps(seq)), copy.copy(seq), copy.deepcopy(seq)):
        assert twin.is_integer is expected
    with pytest.raises(AttributeError):
        seq.is_integer = not expected
    with pytest.raises(AttributeError):
        del seq.is_integer
    with pytest.raises(AttributeError):
        seq.terms = seq.terms
    assert seq.is_integer is expected


@pytest.mark.parametrize("bad", [True, 1.0, "1", None, 1j])
def test_a_term_that_is_not_exact_is_rejected_among_subclasses(bad):
    with pytest.raises(InputError, match="sequence terms must be exact"):
        ExactSequence([_Small.THREE, bad])
    with pytest.raises(InputError, match="sequence terms must be exact"):
        ExactSequence([1, bad])
