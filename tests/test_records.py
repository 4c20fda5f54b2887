"""The library's record classes: equality, hashing, repr, immutability and
validation, as callers and the file formats rely on them."""

import copy
import pickle
import re

import pytest

from bifree import (ONE, ZERO, CovarianceSpec, FaceSignature, FamilyFaces, Letter, PsdResult,
                    VectorSpec, point_distribution, qi, two_faced)
from bifree.clt import CltReport, CltRow
from bifree.engine import BifreenessReport
from bifree.errors import SignatureError
from bifree.io import (format_covariance, format_vector_spec, parse_covariance,
                       parse_vector_spec)
from bifree.words import LEFT, RIGHT

A = Letter(1, LEFT, "a")
C = Letter(1, RIGHT, "c")

# each builds a fresh record with the same fields on every call
HASHABLE = {
    "FamilyFaces": lambda: FamilyFaces(1, ("a",), ("c",), True),
    "FaceSignature": lambda: two_faced(left=("a",), right=("c",), family=1, star=True),
    "PsdResult": lambda: PsdResult(True),
    "CltRow": lambda: CltRow((A, C), 4, qi(1, 2), ONE, qi(-1, 2)),
    "BifreenessReport": lambda: BifreenessReport(2, (((A,), ONE, ZERO),)),
}
UNHASHABLE = {  # a field holds a dict or a list
    "VectorSpec": lambda: VectorSpec(two_faced(left=("a",)), 1, {(1, LEFT, "a"): (ONE,)},
                                     {(1, LEFT, "a"): (qi(0, 1, 1),)}),
    "CovarianceSpec": lambda: CovarianceSpec(two_faced(left=("a",)), {(A, A): qi(1, 2)}),
    "CltReport": lambda: CltReport(2, (4,), [CltRow((A,), 4, ONE, ZERO, ONE)], True),
}


@pytest.mark.parametrize("name", sorted(HASHABLE))
def test_equal_fields_compare_and_hash_equal_and_serve_as_dict_keys(name):
    first, second = HASHABLE[name](), HASHABLE[name]()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert {first: name}[second] == name
    assert len({first, second}) == 1


@pytest.mark.parametrize("name", sorted(UNHASHABLE))
def test_records_holding_a_dict_or_list_compare_by_fields(name):
    first, second = UNHASHABLE[name](), UNHASHABLE[name]()
    assert first == second
    with pytest.raises(TypeError):
        hash(first)


def test_records_differing_in_one_field_are_unequal():
    faces = FamilyFaces(1, ("a",), ("c",))
    assert faces != FamilyFaces(1, ("a",), ("c",), True)
    assert faces != FamilyFaces(2, ("a",), ("c",))
    assert FaceSignature((faces,)) != FaceSignature()
    assert CltRow((A,), 4, ONE, ZERO, ONE) != CltRow((A,), 16, ONE, ZERO, ONE)
    assert PsdResult(True) != PsdResult(False, {(A,): ONE})
    # records of different classes are never equal
    assert faces != (1, ("a",), ("c",), False)
    assert FaceSignature((faces,)) != (faces,)


@pytest.mark.parametrize("record, field", [
    (FamilyFaces(1, ("a",)), "left"),
    (FamilyFaces(1, ("a",)), "star_closed"),
    (two_faced(left=("a",)), "families"),
    (two_faced(left=("a",)), "letter_ids"),
])
def test_a_field_of_the_faces_cannot_be_assigned_or_deleted(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(record, field, ())
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == before


def test_the_faces_copy_and_pickle_through_their_constructor():
    sig = two_faced(left=("a", "b"), right=("c",), family="x", star=True)
    for again in (copy.copy(sig), copy.deepcopy(sig), pickle.loads(pickle.dumps(sig))):
        assert again == sig
        assert again.letter_ids == sig.letter_ids
        assert again.rank((again.letters()[1],)) == 2
        with pytest.raises(AttributeError):
            again.families = ()


@pytest.mark.parametrize("build, message", [
    (lambda: FamilyFaces(1, ("a", "a")), "duplicate index in family 1"),
    (lambda: FamilyFaces("x", (), ("c", "c")), "duplicate index in family 'x'"),
    (lambda: FamilyFaces(1, ("a",), ("a",)),
     "left and right faces of family 1 must be disjoint"),
    (lambda: FamilyFaces(1, ("a.b",)), "index 'a.b' of family 1 contains '.' or '*'"),
    (lambda: FamilyFaces(1, (), ("c*",)), "index 'c*' of family 1 contains '.' or '*'"),
    (lambda: FaceSignature((FamilyFaces(1, ("a",)), FamilyFaces(1, ("b",)))),
     "family ids must be unique"),
])
def test_the_faces_refuse_bad_declarations_with_their_messages(build, message):
    with pytest.raises(SignatureError, match=f"^{re.escape(message)}$"):
        build()


def test_record_and_table_reprs_keep_their_text():
    sig = two_faced(left=("a",), right=("c",), family=1, star=True)
    faces = "FamilyFaces(family=1, left=('a',), right=('c',), star_closed=True)"
    assert repr(sig.families[0]) == faces
    assert repr(sig) == f"FaceSignature(families=({faces},))"
    assert repr(point_distribution(two_faced(left=("a",), family="x"), 2)) == (
        "Distribution(signature=FaceSignature(families=(FamilyFaces(family='x', left=('a',), "
        "right=(), star_closed=False),)), degree=2, ranked=["
        "GaussianRational(Fraction(1, 1), Fraction(0, 1)), "
        "GaussianRational(Fraction(0, 1), Fraction(0, 1)), "
        "GaussianRational(Fraction(0, 1), Fraction(0, 1))])")
    one = ("FaceSignature(families=(FamilyFaces(family=1, left=('a',), right=(), "
           "star_closed=False),))")
    assert repr(UNHASHABLE["CovarianceSpec"]()) == (
        f"CovarianceSpec(signature={one}, c={{({A!r}, {A!r}): "
        "GaussianRational(Fraction(1, 2), Fraction(0, 1))})")
    assert repr(UNHASHABLE["VectorSpec"]()) == (
        f"VectorSpec(signature={one}, dim=1, "
        "h={(1, 'left', 'a'): (GaussianRational(Fraction(1, 1), Fraction(0, 1)),)}, "
        "h_star={(1, 'left', 'a'): (GaussianRational(Fraction(0, 1), Fraction(1, 1)),)})")
    assert repr(PsdResult(True)) == "PsdResult(positive=True, witness=None)"
    assert repr(BifreenessReport(2, ())) == "BifreenessReport(degree=2, mismatches=())"
    assert repr(CltReport(2, (4,), [], True)) == (
        "CltReport(degree=2, ns=(4,), rows=[], decay_ok=True)")


def test_covariance_and_vector_specs_read_back_equal():
    sig = two_faced(left=("a", "b"), right=("c",), family=1, star=True)
    letters = sig.letters()
    cov = CovarianceSpec(sig, {(u, v): qi(i, 3, -i, 5) for i, (u, v)
                               in enumerate((u, v) for u in letters for v in letters)})
    assert parse_covariance(format_covariance(cov)) == cov
    keys = [(1, LEFT, "a"), (1, LEFT, "b"), (1, RIGHT, "c")]
    spec = VectorSpec(sig, 2, {k: (qi(i), qi(1, 2)) for i, k in enumerate(keys)},
                      {k: (qi(-i, 3), qi(0, 1, i)) for i, k in enumerate(keys)})
    assert parse_vector_spec(format_vector_spec(spec)) == spec
