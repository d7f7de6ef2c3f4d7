"""Mixed moments, index families and the multiplicative error."""

import json
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from multsys import stepfn
from multsys import (
    BoundedSystem,
    IndexFamily,
    compute_moment_table,
    dilate,
    enumerate_family,
    is_multiplicative,
    make_step,
    mixed_moment,
    multiplicative_error,
    rademacher,
    symmetric_system,
)
from multsys.errors import (
    BadBounds,
    BadSubset,
    CapacityExceeded,
    CapTooLarge,
    DomainMismatch,
    NonAscendingBreakpoints,
    ParseError,
    ValueOutOfBounds,
)

DATA = Path(__file__).resolve().parent / "data"


def rademacher_system(n):
    return symmetric_system([rademacher(k) for k in range(1, n + 1)])


def test_system_validation():
    r1 = rademacher(1)
    with pytest.raises(BadBounds):
        BoundedSystem((r1,), (F(1),), (F(2),))
    with pytest.raises(ValueOutOfBounds):
        BoundedSystem((r1,), (F(-1, 2),), (F(1),))
    with pytest.raises(DomainMismatch):
        symmetric_system([r1, dilate(r1, F(1, 2))])


def test_capacities_take_the_smaller_side():
    f = make_step([0, "1/2", 1], ["-1/2", "1/4"])
    sys_obj = BoundedSystem((f,), (F(-3),), (F(2),))
    assert sys_obj.capacities() == (F(2),)


def test_family_enumeration_order_and_caps():
    fam = IndexFamily.cardinality_cap(2)
    subsets = enumerate_family(3, fam)
    assert subsets == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
    assert enumerate_family(3, IndexFamily.full())[-1] == (1, 2, 3)
    with pytest.raises(CapTooLarge):
        enumerate_family(3, IndexFamily.cardinality_cap(4))
    for cap in (0, -1):
        with pytest.raises(CapTooLarge, match=f"^cardinality cap must lie in 1..3, got {cap}$"):
            enumerate_family(3, IndexFamily.cardinality_cap(cap))
    assert IndexFamily.cardinality_cap(-1) != IndexFamily.full()


def test_explicit_family_is_validated_and_sorted():
    fam = IndexFamily.explicit([[2, 3], [1]])
    assert enumerate_family(3, fam) == [(1,), (2, 3)]
    with pytest.raises(BadSubset):
        enumerate_family(3, IndexFamily.explicit([[3, 2]]))
    with pytest.raises(BadSubset):
        enumerate_family(3, IndexFamily.explicit([[1], [1]]))
    with pytest.raises(BadSubset):
        enumerate_family(3, IndexFamily.explicit([[4]]))
    with pytest.raises(BadSubset):
        enumerate_family(3, IndexFamily.explicit([[]]))
    with pytest.raises(BadSubset):
        enumerate_family(3, IndexFamily.explicit([[True]]))
    with pytest.raises(BadSubset):
        enumerate_family(3, IndexFamily.explicit([1, 2]))


def test_rademacher_moments_vanish():
    sys_obj = rademacher_system(4)
    assert is_multiplicative(sys_obj, IndexFamily.full())
    assert mixed_moment(sys_obj, (1, 3)) == 0
    assert mixed_moment(sys_obj, (1, 2, 3, 4)) == 0


def test_the_empty_system_is_multiplicative_over_the_empty_family():
    # the grid of no functions and the lattice fold over no coordinates
    assert is_multiplicative(BoundedSystem((), (), ()), IndexFamily.explicit([]))


def test_duplicated_function_gives_unit_error():
    r1 = rademacher(1)
    sys_obj = symmetric_system([r1, r1])
    mu, table = multiplicative_error(sys_obj, IndexFamily.full())
    assert mu == 1
    assert table.moment((1, 2)) == 1
    assert table.moment((1,)) == 0


def test_error_normalizes_by_capacities():
    f = make_step([0, 1], ["1/2"])  # constant 1/2, capacity 1/2 with bounds [-1/2, 1]
    sys_obj = BoundedSystem((f,), (F(-1, 2),), (F(1),))
    mu, _ = multiplicative_error(sys_obj, IndexFamily.full())
    assert mu == 1  # |E[f]| / C = (1/2) / (1/2)


def test_moment_table_csv_shape():
    table = compute_moment_table(rademacher_system(2), IndexFamily.full())
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "subset;moment;normalized"
    assert lines[1] == "1;0;0"
    assert lines[3] == "1,2;0;0"


def test_moment_matches_monte_carlo():
    """Cross-check one nonzero mixed moment against plain sampling."""
    f = rademacher(1)
    g = make_step([0, "1/3", 1], [1, "-1/2"])
    sys_obj = BoundedSystem((f, g), (F(-1), F(-1)), (F(1), F(1)))
    exact = mixed_moment(sys_obj, (1, 2))
    rng = np.random.default_rng(20260818)
    xs = rng.random(1_000_000)
    fv = np.where(xs < 0.5, 1.0, -1.0)
    gv = np.where(xs < 1.0 / 3.0, 1.0, -0.5)
    samples = fv * gv
    mc = samples.mean()
    sigma = samples.std(ddof=1) / np.sqrt(len(samples))
    assert abs(mc - float(exact)) < 5 * sigma + 1e-12


def test_system_json_round_trip():
    sys_obj = rademacher_system(3)
    assert BoundedSystem.from_json(sys_obj.to_json()) == sys_obj


def test_system_json_requires_lists():
    obj = symmetric_system([rademacher(1)]).to_json()
    for key in ("functions", "lower_bounds", "upper_bounds"):
        with pytest.raises(ParseError):
            BoundedSystem.from_json({**obj, key: "1"})


def test_a_system_object_keeps_its_functions_own_errors(monkeypatch):
    """Only the object's shape is a parse error: a function past the piece
    cap or with bad breakpoints is refused by its own constructor."""
    obj = json.loads((DATA / "off_unit_system.json").read_text())
    monkeypatch.setattr(stepfn, "PIECE_CAP", 3)
    with pytest.raises(CapacityExceeded) as refused:
        BoundedSystem.from_json(obj)
    assert not isinstance(refused.value, ParseError)
    assert str(refused.value) == "a step function needs 4 pieces, beyond the cap of 3"
    monkeypatch.undo()
    obj["functions"][0]["breakpoints"][1] = "0"
    with pytest.raises(NonAscendingBreakpoints) as refused:
        BoundedSystem.from_json(obj)
    assert not isinstance(refused.value, ParseError)
