"""Every integer scalar of the public surface, drawn from the contract table in ``test_contract.py``.

Each integer slot of the table (a dimension, rank, twist, exponent, bound,
degree, case or path) takes 1.5, "2" and None, and ``check`` asserts the
valid call's result or the layer's error naming the slot.  The index rule
refuses an integral float; the integral rule of ``bwbcoh`` and
``motivicring`` converts it and refuses the rest.
"""

import pytest

import roofpairs
from test_contract import SLOTS, _home, _valid, _value, check
from test_contract import test_the_table_covers_the_public_surface as test_every_public_name_is_in_the_table  # noqa

INTEGER_SLOTS = [(name, slot) for name, slots in SLOTS.items() for slot, s in slots.items()
                 if s.kind in ("index", "integral", "path")]


@pytest.mark.parametrize("value", [1.5, "2", None], ids=repr)
@pytest.mark.parametrize("name, slot", INTEGER_SLOTS)
def test_scalar_slot_gives_a_result_or_the_layer_error(name, slot, value):
    check(name, slot, value)


@pytest.mark.parametrize("name, slot", [("RoofConfig", "degree"), ("RoofSide", "rank"), ("BundleClass", "degree"),
                                        ("RingPresentation", "l_power exponent"), ("chern_twist", "twist")],
                         ids=["RoofConfig", "RoofSide", "BundleClass", "l_power", "chern_twist"])
def test_index_rule_refuses_integral_floats(name, slot):
    with pytest.raises(ValueError, match="must be an integer, got 4.0"):
        SLOTS[name][slot].call(4.0)


def _converts(home: str) -> None:
    for name, slot in INTEGER_SLOTS:
        s = SLOTS[name][slot]
        if _home(name) == home and s.kind == "integral":
            # the valid value as a float gives the valid result, ints and all; an error fails here
            assert _value(s.call(float(s.valid))) == _valid(name, slot), (name, slot)
            with pytest.raises(ValueError, match="must be an integer, got 2.5"):
                s.call(2.5)


def test_bwbcoh_converts_integral_values_and_refuses_the_rest():
    _converts("bwbcoh")
    system = roofpairs.RootSystem("B", 3.0)
    assert type(system.rank) is int and str(system) == "B3"
    assert roofpairs.bundle_cohomology(5.0, "Sdual", 1.0) == {0: 48}


def test_motivicring_converts_integral_values_and_refuses_the_rest():
    _converts("motivicring")
    assert roofpairs.proj_class(2.0) == roofpairs.proj_class(2)
