"""Every integer scalar of the public surface, drawn from the contract table in ``test_contract.py``.

Each integer slot of the table (a dimension, rank, twist, exponent, bound,
degree or case) reads its value through the one rule ``errors._index``, in
every layer alike: 1.5, "2" and None give the layer's error naming the slot
(the path of ``load_config`` is probed with them too), and an integral float
(4.0) and a non-integral one (2.5) give the layer's error with the shared
text ``must be an integer, got <value>``.
"""

import pytest

from test_contract import LAYER, SLOTS, _home, check
from test_contract import test_the_table_covers_the_public_surface as test_every_public_name_is_in_the_table  # noqa

INTEGER_SLOTS = [(name, slot) for name, slots in SLOTS.items() for slot, s in slots.items()
                 if s.kind.removeprefix("optional ") == "index"]


@pytest.mark.parametrize("value", [1.5, "2", None], ids=repr)
@pytest.mark.parametrize("name, slot", [(name, slot) for name, slots in SLOTS.items() for slot, s in slots.items()
                                        if s.kind in ("index", "path")])
def test_scalar_slot_gives_a_result_or_the_layer_error(name, slot, value):
    check(name, slot, value)


@pytest.mark.parametrize("value", [4.0, 2.5], ids=repr)
@pytest.mark.parametrize("name, slot", INTEGER_SLOTS)
def test_integer_slot_refuses_floats(name, slot, value):
    # reduce's xi exponents, the keys of an expression, keep roofcalc's plural wording
    with pytest.raises(LAYER[_home(name)], match=f"must be (an integer|integers), got {value}$"):
        SLOTS[name][slot].call(value)
