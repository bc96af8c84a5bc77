"""The result records are plain slotted classes with value semantics.

Each record compares equal to a record of the same class with equal
fields, and to nothing else (not to the tuple of its fields); a frozen
record hashes by its fields and refuses assignment, and its repr is
`Name(field=value, ...)`.  The records are built by the real pipeline on
small groups, so the fields hold the values the engine produces.  The
fields are the slots; a record class that writes no `__init__` gets one
generated from them, in slot order.
"""

import sys

import pytest

from corpus import geometric_signature
from geosig.chartable import Character, GaloisClass, compute_table
from geosig.covers import (
    CoverReport,
    MarkedPointSet,
    TransversalPartition,
    lattice_report,
    transversal_partition,
)
from geosig.errors import GroupInputError
from geosig.groups import MAX_QUOTIENT_GENUS, ConjugacyClassOfSubgroups, Record, catalog
from geosig.jacobian import (
    DecompositionReport,
    MultiplicityRecord,
    OmegaSystem,
    TorusCaseConditions,
    factor_dimensions,
    gamma1_analysis,
)
from geosig.monodromy import CosetAction, coset_action
from geosig.signature import (
    BranchEntry,
    GeneratingVector,
    GeometricSignature,
    VectorCheck,
    find_generating_vector,
    verify_generating_vector,
)

# the fields of each record, in constructor order
FIELDS = {
    ConjugacyClassOfSubgroups: ("representative", "member_masks"),
    BranchEntry: ("order", "cls", "label"),
    GeometricSignature: ("quotient_genus", "entries"),
    GeneratingVector: ("a", "b", "c"),
    VectorCheck: ("orders_ok", "classes_ok", "product_ok", "generates"),
    TransversalPartition: ("sets", "intersection_sizes"),
    MarkedPointSet: ("mark", "count"),
    CoverReport: ("subgroup", "degree", "genus", "branch_types", "marked_points",
                  "cycle_structures", "oracle"),
    CosetAction: ("subgroup", "cosets", "a_images", "b_images", "c_images"),
    Character: ("index", "row", "degree"),
    GaloisClass: ("members", "representative", "field_degree", "schur_bound", "indicator",
                  "schur_index", "schur_index_source"),
    MultiplicityRecord: ("galois_class", "degree", "n", "e", "dim_B", "exponent"),
    OmegaSystem: ("matrix", "rhs", "solution"),
    DecompositionReport: ("records", "total_genus", "quotient_genus", "omega"),
    TorusCaseConditions: ("galois_representative", "degree", "dim_is_zero",
                          "stabilizers_in_kernel", "kernel_cover_unramified",
                          "kernel_quotient_is_torus"),
}
MUTABLE = {VectorCheck, CoverReport}
OWN_INIT = {BranchEntry, GeometricSignature}  # they check their input and have defaults


def _records():
    """One record of each class, from the pipeline on dihedral(4)."""
    G = catalog("dihedral(4)")
    sig = geometric_signature(G, 0, ("x", "y", "xy"))
    vec = find_generating_vector(G, sig)
    report = lattice_report(G, sig)[1]
    table = compute_table(G)
    decomposition = factor_dimensions(G, table, sig)
    torus = gamma1_analysis(G, table, geometric_signature(G, 1, ("y", "x^2*y")))
    return {
        ConjugacyClassOfSubgroups: sig.entries[0].cls,
        BranchEntry: sig.entries[0],
        GeometricSignature: sig,
        GeneratingVector: vec,
        VectorCheck: verify_generating_vector(G, sig, vec),
        TransversalPartition: transversal_partition(G, sig, report.subgroup, 0),
        MarkedPointSet: report.marked_points[0][0],
        CoverReport: report,
        CosetAction: coset_action(G, report.subgroup, vec),
        Character: table.characters[1],
        GaloisClass: table.galois_classes[1],
        MultiplicityRecord: decomposition.records[1],
        OmegaSystem: decomposition.omega,
        DecompositionReport: decomposition,
        TorusCaseConditions: torus[0],
    }


RECORDS = _records()
CLASSES = sorted(FIELDS, key=lambda cls: cls.__name__)


def _fields(rec):
    return tuple(getattr(rec, f) for f in FIELDS[type(rec)])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equal_fields_make_equal_records(cls):
    rec = RECORDS[cls]
    assert type(rec) is cls
    twin = cls(*_fields(rec))
    assert twin is not rec
    assert twin == rec and not twin != rec
    if cls in MUTABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(rec)
    else:
        assert hash(twin) == hash(rec)
        assert len({twin, rec}) == 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_field_that_differs_makes_unequal_records(cls):
    rec = RECORDS[cls]
    values = _fields(rec)
    last = len(values) - 1
    if cls in (BranchEntry, GeometricSignature):  # checked fields: vary the free one
        last = FIELDS[cls].index("label" if cls is BranchEntry else "entries")
    other = cls(*values[:last], object(), *values[last + 1:])
    assert other != rec and rec != other


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_record_never_equals_its_field_tuple(cls):
    rec = RECORDS[cls]
    values = _fields(rec)
    assert rec != values and values != rec
    assert rec != list(values)
    assert rec.__eq__(values) is NotImplemented


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_frozen_records_refuse_assignment(cls):
    rec = RECORDS[cls]
    name = FIELDS[cls][0]
    if cls in MUTABLE:
        return
    before = getattr(rec, name)
    with pytest.raises(AttributeError):
        setattr(rec, name, None)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert getattr(rec, name) is before


def test_mutable_records_take_assignment():
    report = RECORDS[CoverReport]
    twin = CoverReport(*_fields(report))
    assert twin.oracle is None
    twin.oracle = {"genus": report.genus, "cycle_structures": []}
    assert twin.oracle["genus"] == report.genus
    assert twin != report
    check = VectorCheck(True, True, True, True)
    assert check.ok
    check.generates = False
    assert not check.ok
    assert (check.orders_ok, check.classes_ok, check.product_ok) == (True, True, True)
    with pytest.raises(AttributeError):
        check.extra = 1  # slotted: no attribute outside the fields


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_names_each_field(cls):
    rec = RECORDS[cls]
    if cls is ConjugacyClassOfSubgroups:  # a short repr, not every member mask
        assert repr(rec) == "SubgroupClass(<(1,2,3,4)>, order=4, size=1)"
        return
    body = ", ".join(f"{f}={getattr(rec, f)!r}" for f in FIELDS[cls])
    assert repr(rec) == f"{cls.__name__}({body})"


def test_repr_of_a_plain_record():
    assert repr(MarkedPointSet(2, 4)) == "MarkedPointSet(mark=2, count=4)"


def test_keyword_construction_matches_positional():
    assert MarkedPointSet(mark=2, count=4) == MarkedPointSet(2, 4)
    assert BranchEntry(2) == BranchEntry(2, None, None) == BranchEntry(order=2)
    assert GeometricSignature(3) == GeometricSignature(3, ())


def _record_classes(base=Record):
    for sub in base.__subclasses__():
        if sub._fields:
            yield sub
        yield from _record_classes(sub)


def test_every_record_class_is_listed_with_its_slot_fields():
    assert set(_record_classes()) == set(FIELDS)
    for cls, fields in FIELDS.items():
        assert cls._fields == fields, cls.__name__


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_keyword_call_builds_the_positional_record(cls):
    values = _fields(RECORDS[cls])
    by_keyword = cls(**dict(zip(FIELDS[cls], values)))
    by_position = cls(*values)
    assert by_keyword == by_position == RECORDS[cls]
    assert _fields(by_keyword) == _fields(by_position) == values


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_a_bad_call_raises_type_error(cls):
    values = _fields(RECORDS[cls])
    first, *rest = FIELDS[cls]
    keywords = dict(zip(FIELDS[cls], values))
    with pytest.raises(TypeError, match=rf"{cls.__name__}\.__init__\(\) missing .*'{first}'"):
        cls(**{f: keywords[f] for f in rest})
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(**keywords, extra=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError, match="positional arguments but"):
        cls(*values, None)


def test_only_the_checked_records_write_their_own_constructor():
    def own(cls):
        return cls.__init__.__code__.co_filename == sys.modules[cls.__module__].__file__

    assert {cls for cls in _record_classes() if own(cls)} == OWN_INIT


def test_no_record_keeps_anything_beside_its_fields():
    # a record caches nothing: a character's values are its `row`, which the
    # output prints directly
    for rec in RECORDS.values():
        assert not hasattr(rec, "__dict__"), type(rec).__name__


def test_bad_branch_entries_and_signatures_are_refused():
    G = catalog("dihedral(4)")
    cyclic4 = G.cyclic_subgroup_classes[G.cyclic_class_index(G.subgroup_from_words(["x"]))]
    klein = G.subgroup_from_words(["x^2", "y"])
    not_cyclic = ConjugacyClassOfSubgroups(klein, frozenset([klein.mask]))
    with pytest.raises(GroupInputError, match="branch order must be at least 2, got 1"):
        BranchEntry(1)
    with pytest.raises(GroupInputError, match="branch order 2 does not match the class order 4"):
        BranchEntry(2, cyclic4)
    with pytest.raises(GroupInputError, match="branch stabilizer class must be cyclic"):
        BranchEntry(4, not_cyclic)
    with pytest.raises(GroupInputError, match="quotient genus cannot be negative"):
        GeometricSignature(-1)
    with pytest.raises(GroupInputError, match="exceeds the supported cap"):
        GeometricSignature(MAX_QUOTIENT_GENUS + 1, ())
