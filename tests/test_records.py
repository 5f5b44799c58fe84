"""Semantics of every record type in resfin.

The value records are immutable: a field keeps its value, two records of
one type are equal exactly when their fields are, a record hashes as the
tuple of its fields (so sets and dicts of records iterate in a fixed
order), and it prints as Name(field=value, ...).  The group and ring
elements carry no tuple + or *.  The package imports neither dataclasses
nor inspect, which cost every process several milliseconds at start.
"""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from resfin import chevalley, growth, matgrp, numring
from resfin import counterexamples as cx

SWAP = ((0, 1), (1, 0))
RING_HALF = numring.NumberRing((1, 0, 1), 2)  # Z[i][1/2]

# (type, fields in order, one field and another value for it)
RECORDS = [
    (matgrp.DetectionResult,
     {"modulus": 5, "quotient_order": 120, "central_quotient": True, "search_complete": False},
     ("modulus", 7)),
    (chevalley.GroupSpec, {"n": 3}, ("n", 4)),
    (chevalley.CheckResult,
     {"check": "moy-prasad", "instance": "sl2 p=5", "status": "pass", "detail": "ok",
      "mode": "sampled"},
     ("status", "fail")),
    (growth.GeneratingSet, {"name": "S,T", "mats": growth.sl2_st().mats}, ("name", "T,S")),
    (growth.GrowthRow,
     {"n": 1, "ball_size": 5, "f_value": 6, "witness": ((0, -1), (1, 0)),
      "detection": matgrp.DetectionResult(2, 6)},
     ("f_value", 7)),
    (growth.GrowthTable,
     {"gens_name": "S,T", "power": 1, "allow_central": False,
      "rows": (growth.GrowthRow(0, 1, 0, None, None),)},
     ("power", 2)),
    (growth.CandidateSeq, {"spec": chevalley.GroupSpec(2), "s_primes": (2, 3), "e": 12},
     ("e", 6)),
    (growth.FitResult, {"slope": 7.5, "intercept": 0.25, "max_residual": 0.0},
     ("slope", 8.0)),
    (cx.Detection, {"modulus": 3, "order": 24}, ("order", 25)),
    (cx.LampElement, {"support": frozenset({1, 3}), "shift": 2}, ("shift", -2)),
    (cx.SemidirectElement, {"vec": (1, 2), "rot": SWAP}, ("vec", (2, 1))),
    (numring.NumberRing, {"min_poly": (1, 0, 1), "inverted": 2}, ("inverted", 3)),
    (numring.RingElement, {"ring": RING_HALF, "coords": (1, 4), "denom_exp": 1},
     ("coords", (3, 4))),
    (numring.SplitDetection, {"prime": 5, "root": 2, "residue": 3}, ("residue", 4)),
    (numring.IdealDetection, {"prime": 3, "factor": (1, 0, 1), "norm": 9}, ("norm", 3)),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, change", RECORDS, ids=IDS)
class TestValueRecord:
    def test_fields_in_order(self, cls, fields, change):
        rec = cls(*fields.values())
        assert rec == cls(**fields)
        assert [getattr(rec, name) for name in fields] == list(fields.values())

    def test_fields_are_read_only(self, cls, fields, change):
        rec = cls(**fields)
        for name in [*fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(rec, name, 0)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert [getattr(rec, name) for name in fields] == list(fields.values())

    def test_equal_within_a_type(self, cls, fields, change):
        name, value = change
        assert cls(**fields) == cls(**fields)
        assert cls(**fields) != cls(**{**fields, name: value})
        assert len({cls(**fields), cls(**fields), cls(**{**fields, name: value})}) == 2

    def test_hash_is_the_field_tuple_hash(self, cls, fields, change):
        assert hash(cls(**fields)) == hash(tuple(fields.values()))

    def test_repr(self, cls, fields, change):
        shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__name__}({shown})"

    def test_copy_and_pickle(self, cls, fields, change):
        rec = cls(**fields)
        assert copy.copy(rec) == rec
        assert copy.deepcopy(rec) == rec
        assert pickle.loads(pickle.dumps(rec)) == rec


@pytest.mark.parametrize(
    "rec, fields",
    [
        (matgrp.DetectionResult(5, 120), {"central_quotient": False, "search_complete": None}),
        (chevalley.CheckResult("c", "i", "pass", "d"), {"mode": "exhaustive"}),
        (growth.CandidateSeq(chevalley.GroupSpec(3)), {"s_primes": (), "e": 1}),
        (numring.NumberRing((1, 0, 1)), {"inverted": 1}),
        (numring.RingElement(numring.GAUSSIAN, (3, 4)), {"denom_exp": 0}),
    ],
    ids=["DetectionResult", "CheckResult", "CandidateSeq", "NumberRing", "RingElement"],
)
def test_defaults(rec, fields):
    assert {name: getattr(rec, name) for name in fields} == fields


def test_number_ring_stores_int_coefficients():
    ring = numring.NumberRing([1.0, 0, True])
    assert ring.min_poly == (1, 0, 1) and all(type(c) is int for c in ring.min_poly)
    assert ring == numring.GAUSSIAN


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: chevalley.GroupSpec(1), "need n >= 2"),
        (lambda: growth.GeneratingSet("T", (matgrp.elementary(2, 1, 2, 1),)),
         "set not closed under inverse at ((1, 1), (0, 1))"),
        (lambda: growth.CandidateSeq(chevalley.GroupSpec(2), e=0),
         "index multiplier must be >= 1"),
        (lambda: growth.CandidateSeq(chevalley.GroupSpec(2), (2, 4)),
         "S must be a set of distinct primes"),
        (lambda: growth.CandidateSeq(chevalley.GroupSpec(2), (3, 3)),
         "S must be a set of distinct primes"),
        (lambda: cx.SemidirectElement((0, 0), ((2, 0), (0, 1))),
         "rotation part must be one of the 8 signed permutations"),
        (lambda: numring.NumberRing((1, 0, 2)), "min_poly must be monic of degree >= 1"),
        (lambda: numring.NumberRing((1,)), "min_poly must be monic of degree >= 1"),
        (lambda: numring.NumberRing((1, 0, 1), 0), "inverted integer must be >= 1"),
        (lambda: numring.NumberRing((-1, 0, 1)), "min_poly is reducible over the rationals"),
        (lambda: numring.RingElement(numring.GAUSSIAN, (1, 2, 3)), "need 2 coordinates, got 3"),
        (lambda: numring.RingElement(numring.GAUSSIAN, (1, 2), -1),
         "denominator exponent must be >= 0"),
        (lambda: numring.RingElement(RING_HALF, (2, 4), 1),
         "representation not normalized (use ring.element)"),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


ELEMENTS = [
    numring.RingElement(numring.GAUSSIAN, (3, 4)),
    cx.LampElement(frozenset({1, 3}), 2),
    cx.SemidirectElement((1, 2), SWAP),
]


@pytest.mark.parametrize("x", ELEMENTS, ids=[type(x).__name__ for x in ELEMENTS])
def test_elements_have_no_tuple_operators(x):
    for op in (lambda: 3 * x, lambda: 3 + x, lambda: (1,) + x, lambda: len(x), lambda: x < x):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("x", ELEMENTS[1:], ids=[type(x).__name__ for x in ELEMENTS[1:]])
def test_group_elements_have_no_sum(x):
    for op in (lambda: x + x, lambda: x + (1,)):
        with pytest.raises(TypeError):
            op()


def test_finite_group_table_compares_by_identity():
    spec = chevalley.GroupSpec(2)
    table = chevalley.enumerate_group(spec, 3)
    again = chevalley.enumerate_group(spec, 3)
    assert table == table and table != again
    assert hash(table) == object.__hash__(table)
    assert repr(table).startswith("<resfin.chevalley.FiniteGroupTable object at ")
    assert (table.spec, table.modulus, len(table)) == (spec, 3, 24)
    assert table.codes == again.codes and list(table.parent) == list(again.parent)
    assert table.elements is table.elements


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys; before = set(sys.modules); import resfin.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
