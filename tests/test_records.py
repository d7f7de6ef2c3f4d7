"""Semantics of the frozen records every result and input type is built with.

Each record class gets a sample built from explicit field values, a second
sample equal to it field by field, and a third that differs in one field.
"""

import copy
import dataclasses
import importlib
import pickle
from fractions import Fraction as F

import pytest

from multsys import (
    BoundedSystem,
    ConvexSpec,
    IndexFamily,
    StepFunction,
    rademacher,
    reduce_to_independent,
    symmetric_system,
)
from multsys.errors import MultsysError
from multsys.inequalities import TailReport
from multsys.reduction import DominationReport

MODULES = ("stepfn", "moments", "reduction", "inequalities", "lacunary", "subseq", "rubinshtein")


def _records() -> dict[str, type]:
    """Every class the package defines outside its exception types."""
    out = {}
    for name in MODULES:
        module = importlib.import_module(f"multsys.{name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                assert not issubclass(obj, MultsysError)
                out[obj.__name__] = obj
    return out


RECORDS = _records()


def _samples() -> dict[str, tuple[dict, dict]]:
    """Class name -> (field values, the field that the unequal sample changes
    and its other value).  Field values are listed in declaration order."""
    step = StepFunction((F(0), F(1, 2), F(1)), (F(1), F(-1)))
    system = symmetric_system([rademacher(1), rademacher(2)])
    trace = reduce_to_independent(
        symmetric_system([StepFunction((F(0), F(1, 2), F(1)), (F(1), F(-1, 2)))]),
        IndexFamily.full(),
    )
    table = trace.moment_tables["input"]
    tail = TailReport(F(1), F(0), 0.5, F(0), True)
    domination = DominationReport(F(1), F(2), F(0), True, True, "|t|^4")
    entry = {"subset": (1, 2), "integral": 0.0, "head_bound": 0.25, "within": True}
    return {
        "StepFunction": ({"breakpoints": step.breakpoints, "values": step.values},
                         ("values", (F(1), F(1)))),
        "ConvexSpec": ({"kind": "power", "param": 4}, ("param", 6)),
        "BoundedSystem": ({"functions": system.functions, "lower_bounds": (F(-1),) * 2,
                           "upper_bounds": (F(1),) * 2}, ("upper_bounds", (F(1), F(2)))),
        "IndexFamily": ({"cap": 2, "subsets": None}, ("cap", 1)),
        "MomentTable": ({"subsets": ((1,),), "moments": (F(1, 4),), "normalized": (F(1, 4),)},
                        ("moments", (F(-1, 4),))),
        "IndependenceReport": ({"independent": True, "subsets_checked": 3, "failing": (),
                                "marginals": (F(1, 2),)}, ("subsets_checked", 4)),
        "ReductionTrace": ({"mu": trace.mu, "family": trace.family,
                            "input_system": trace.input_system, "extended": trace.extended,
                            "binarized": trace.binarized, "xi": trace.xi,
                            "moment_tables": trace.moment_tables}, ("mu", trace.mu + 1)),
        "DominationReport": ({"lhs": F(1), "rhs": F(2), "mu": F(0), "holds": True,
                              "exact": True, "phi": "|t|^4"}, ("rhs", F(3))),
        "KhintchineReport": ({"p": 4.0, "mode": "sharp", "constant": 1.5,
                              "constant_as_printed": 1.5, "lhs_norm": 1.2, "rhs": 1.8,
                              "holds": True, "exact": False, "lhs_pth_power": F(3),
                              "rhs_pth_power": None}, ("lhs_pth_power", None)),
        "TailReport": ({"level": F(1), "exact_measure": F(0), "bound": 0.5, "mu": F(0),
                        "holds": True}, ("holds", False)),
        "MgfReport": ({"lhs": 1.0, "rhs": 1.5, "holds": True}, ("lhs", 1.25)),
        "LacunarySpec": ({"tau": (1.0, 3.0), "lam": 3.0}, ("lam", 2.5)),
        "FrequencyTerm": ({"freq": 2.0, "kind": "cos", "coef": 0.5}, ("kind", "sin")),
        "ProductExpansion": ({"subset": (1, 2), "terms": ()}, ("subset", (1, 3))),
        "CollectionEntry": (entry, ("within", False)),
        "TruncatedMuReport": ({"mu_truncated": 0.0, "global_bound": 1.9, "tail_bound": 0.1,
                               "holds": True, "entries": (), "violations": ()},
                              ("violations", ((1, 2),))),
        "OrthogonalSystem": ({"functions": (step,), "sup_bound": F(1),
                              "certified_orthogonal": True}, ("certified_orthogonal", False)),
        "SelectionCertificate": ({"chosen_indices": (1,), "per_step_sum": (),
                                  "per_step_bound_sq": (), "per_step_bound": (),
                                  "threshold_ok": (), "windows": (), "rho": 2,
                                  "mu_total": F(0)}, ("rho", 3)),
        "ReflectionGenerator": ({"seed": step, "phi": step}, ("phi", rademacher(2))),
        "RubinshteinReport": ({"n": 2, "mu": F(0), "multiplicative": True, "moments": table,
                               "domination": domination, "tail": tail}, ("n", 3)),
    }


SAMPLES = _samples()


def _copy(fields: dict) -> dict:
    """Equal field values in new containers, so equality cannot lean on identity."""
    return {k: copy.copy(v) if isinstance(v, dict) else tuple(v) if isinstance(v, tuple) else v
            for k, v in fields.items()}


def test_there_are_twenty_records_and_each_has_a_sample():
    assert len(RECORDS) == 20
    assert set(SAMPLES) == set(RECORDS)


def test_no_record_is_a_dataclass():
    assert not any(dataclasses.is_dataclass(cls) for cls in RECORDS.values())


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_and_hash_follow_the_fields(name):
    cls = RECORDS[name]
    fields, (changed, other) = SAMPLES[name]
    a, same, different = cls(**fields), cls(**_copy(fields)), cls(**{**fields, changed: other})
    assert a == same and not a != same
    assert a != different and not a == different
    assert cls(*fields.values()) == a  # positional in declaration order
    if name == "ReductionTrace":  # its moment tables are a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(same)
        assert {a: 1}[same] == 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_of_different_classes_never_compare_equal(name):
    a = RECORDS[name](**SAMPLES[name][0])
    for other_name, cls in RECORDS.items():
        if other_name != name:
            b = cls(**SAMPLES[other_name][0])
            assert a != b and a.__eq__(b) is NotImplemented


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_names_every_field_in_order(name):
    fields = SAMPLES[name][0]
    shown = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(RECORDS[name](**fields)) == f"{name}({shown})"


def test_repr_examples():
    assert repr(IndexFamily()) == "IndexFamily(cap=None, subsets=None)"
    assert repr(ConvexSpec.power(4)) == "ConvexSpec(kind='power', param=4)"
    assert repr(StepFunction((F(0), F(1)), (F(1, 2),))) == (
        "StepFunction(breakpoints=(Fraction(0, 1), Fraction(1, 1)), "
        "values=(Fraction(1, 2),))"
    )


def test_a_cached_histogram_is_no_field():
    sys_obj = BoundedSystem(**SAMPLES["BoundedSystem"][0])
    before = repr(sys_obj)
    assert sys_obj.histogram and "histogram" in vars(sys_obj)
    assert repr(sys_obj) == before and "histogram" not in before
    assert sys_obj == BoundedSystem(**SAMPLES["BoundedSystem"][0])


def test_class_values_are_defaults():
    assert IndexFamily() == IndexFamily(None, None) == IndexFamily.full()
    assert ConvexSpec("abs") == ConvexSpec("abs", None) == ConvexSpec.abs()
    fields = dict(SAMPLES["KhintchineReport"][0], lhs_pth_power=None)
    del fields["rhs_pth_power"]
    report = RECORDS["KhintchineReport"](**fields)
    assert report.lhs_pth_power is None and report.rhs_pth_power is None
    with pytest.raises(TypeError):
        ConvexSpec()  # kind has no default
    with pytest.raises(TypeError):
        IndexFamily(1, None, 2)
    with pytest.raises(TypeError):
        IndexFamily(size=1)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_can_be_neither_set_nor_deleted(name):
    fields = SAMPLES[name][0]
    a = RECORDS[name](**fields)
    for field in (*fields, "new_attribute"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(a, field)
    assert a == RECORDS[name](**fields)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_copy_and_pickle_round_trip(name):
    a = RECORDS[name](**SAMPLES[name][0])
    for back in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(back) is type(a)
        assert back == a and repr(back) == repr(a)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(back, next(iter(SAMPLES[name][0])), None)
