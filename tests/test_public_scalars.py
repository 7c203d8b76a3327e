"""Every integer scalar of the public surface, drawn from the contract table in ``test_contract.py``.

Each integer slot of the table (a dimension, rank, twist, exponent, bound,
degree, case or path) takes 1.5, "2" and None, and ``check`` asserts the
valid call's result or the layer's error naming the slot.  The index rule
refuses an integral float; the integral rule of ``bwbcoh`` and
``motivicring`` converts it and refuses the rest.
"""

import pytest

from test_contract import LAYER, SLOTS, _home, check
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


@pytest.mark.parametrize("name, slot", [(name, slot) for name, slot in INTEGER_SLOTS
                                        if SLOTS[name][slot].kind == "integral"])
def test_integral_rule_refuses_fractions(name, slot):
    with pytest.raises(LAYER[_home(name)], match="must be an integer, got 2.5"):
        SLOTS[name][slot].call(2.5)
