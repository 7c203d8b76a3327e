import pathlib
import sys

import pytest

from roofpairs.configs import builtin_config, load_config

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def g2():
    return builtin_config("g2dagger")


@pytest.fixture(scope="session")
def d4():
    return builtin_config("d4")


@pytest.fixture(scope="session")
def toy_path():
    return str(DATA / "toy_symmetric.json")


@pytest.fixture(scope="session")
def toy(toy_path):
    return load_config(toy_path)


@pytest.fixture
def count_calls(monkeypatch):
    """Install call counters on roofpairs functions named "module.function".

    ``from .x import f`` binds the same function in several modules, so every
    roofpairs namespace that holds it is patched, not only the defining one.
    Returns the dict of counts, updated as the functions are called.
    """
    def install(*names: str) -> dict[str, int]:
        counts = dict.fromkeys(names, 0)
        for name in names:
            module, attr = name.split(".")
            original = getattr(sys.modules[f"roofpairs.{module}"], attr)
            counted = _counter(counts, name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "roofpairs" or mod_name.startswith("roofpairs.")):
                    continue
                for key, obj in list(vars(mod).items()):
                    if obj is original:
                        monkeypatch.setattr(mod, key, counted)
        return counts

    return install


def _counter(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted
