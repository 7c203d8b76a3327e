"""Roof configurations: the two built-in ones and the JSON file format.

A configuration file is a JSON document with the keys of a ``BUILTIN_CONFIGS``
entry: ``name`` (a string), ``rank``, ``base_dim`` (two quadric dimensions),
``polarization_degree`` and two ``sides``.  Each side gives either ``chern``
(components of the untwisted bundle, as lists of [basis label, integer]
pairs, plus an integer ``twist``) or ``groth`` (the relation coefficients of
the already-twisted bundle, degree 1..rank).  ``middle_basis`` lists [base
label, xi exponent] monomials; ``declared_locus_sign`` is the sign of the
side's declared locus representative relative to the positivity-normalized
one (default 1).  Both forms build one ``RoofSide``, a ``chern`` side with the
components of ``chern_twist``, so a bundle rank above the base dimension gets
one message from ``RoofConfig`` (through ``cy_degree``) in either form.
``config_from_dict`` builds one quadric ring per distinct base dimension, so
the two sides of a roof over one quadric share their base.  Sides that then
agree in every field but the name are twins; they share pieces only through
``RoofQuery``, which keys each piece that names no side by a representative
side and so builds it once for both.
"""

from __future__ import annotations

import json
from os import PathLike
from typing import Mapping, Optional

from .errors import ConfigError, _index, _typed
from .gradedring import ChernVector, GradedClass, RingPresentation, chern_twist, make_quadric_ring
from .roofcalc import RoofConfig, RoofSide

# Largest accepted quadric base dimension.  Every build of a quadric ring
# checks associativity on its sorted basis triples of total degree at most the
# top, 1014 of them on Q32; Q31 and Q32 build in about 8 ms together (2-vCPU
# host, Python 3.11).
MAX_BASE_DIM = 32
# Most digits of a configuration-file integer; a longer one is a ConfigError
# before conversion, which CPython refuses past 4300 digits with a ValueError.
MAX_INT_DIGITS = 100


def _both(side: dict) -> list[dict]:
    """The two sides of a symmetric roof; the tilde side is a copy, so a change to one side
    of a copied configuration leaves the other as it was."""
    return [side, json.loads(json.dumps(side))]


BUILTIN_CONFIGS: dict[str, dict] = {
    "g2dagger": {"name": "g2dagger", "rank": 3, "base_dim": [5, 5], "polarization_degree": 12, "sides": _both({
        "chern": [[["L", 2]], [["L^2", 2]], [["Pi", 2]]],
        "twist": 1,
        "middle_basis": [["Pi", 0], ["L^2", 1], ["L", 2]],
        "declared_locus_sign": 1,
    })},
    "d4": {"name": "d4", "rank": 4, "base_dim": [6, 6], "polarization_degree": 12, "sides": _both({
        "groth": [[["L", 6]], [["L^2", 14]], [["Pi1", 14], ["Pi2", 16]], [["Pi1*L", 12]]],
        "middle_basis": [["Pi1*L", 0], ["Pi1", 1], ["Pi2", 1], ["L^2", 2], ["L", 3]],
        "declared_locus_sign": -1,
    })},
}


def builtin_names() -> tuple[str, ...]:
    return tuple(sorted(BUILTIN_CONFIGS))


def _array(value, what: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return list(value)


def _label_pair(ring: RingPresentation, item, what: str) -> tuple[str, int]:
    """A [basis label, integer] pair with a label of the ring's basis."""
    if not isinstance(item, (list, tuple)) or len(item) != 2:
        raise ConfigError(f"{what}: expected [label, integer] pair, got {item!r}")
    label, value = item
    if not isinstance(label, str) or label not in ring._degrees:
        raise ConfigError(f"{what}: unknown basis label {label!r} on {ring.name}")
    return label, _index(value, f"{what}: value of {label!r}", ConfigError)


def _class_from_pairs(ring: RingPresentation, degree: int, pairs, what: str) -> GradedClass:
    coeffs: dict[str, int] = {}
    for item in _array(pairs, what):
        label, value = _label_pair(ring, item, what)
        coeffs[label] = coeffs.get(label, 0) + value
    try:
        return GradedClass(ring, degree, coeffs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _side_from_dict(data, ring: RingPresentation, rank: int, name: str) -> RoofSide:
    if not isinstance(data, Mapping):
        raise ConfigError(f"side {name!r} must be an object, got {data!r}")
    middle = data.get("middle_basis")
    middle = tuple(_label_pair(ring, m, f"side {name!r} middle_basis")
                   for m in _array(middle, f"side {name!r} middle_basis")) if middle else None
    if "chern" in data and "groth" in data:
        raise ConfigError(f"side {name!r}: give either 'chern' or 'groth', not both")
    form, what = ("chern", "Chern components") if "chern" in data else ("groth", "relation coefficients")
    if form not in data:
        raise ConfigError(f"side {name!r}: needs 'chern' or 'groth' data")
    comps = _array(data[form], f"side {name!r} {form}")
    if len(comps) != rank:
        raise ConfigError(f"side {name!r}: expected {rank} {what}")
    coeffs = tuple(_class_from_pairs(ring, i, pairs, f"side {name!r} {form}[{i}]")
                   for i, pairs in enumerate(comps, start=1))
    if form == "chern":
        twist = _index(data.get("twist", 0), f"side {name!r} twist", ConfigError)
        coeffs = chern_twist(ChernVector(rank, coeffs), twist).components
    return RoofSide(name, ring, rank, coeffs, middle)


def config_from_dict(data: Mapping) -> RoofConfig:
    """Build and validate a RoofConfig from parsed JSON data.

    The name must be a JSON string and integer fields JSON integers (a bool,
    float or string is a ConfigError, not converted), and basis labels must
    exist on the base.
    """
    if not isinstance(data, Mapping):
        raise ConfigError(f"a configuration must be an object, got {type(data).__name__}")
    try:
        name = _typed(data["name"], str, "name", ConfigError)
        rank = _index(data["rank"], "rank", ConfigError)
        base_dims = [_index(d, "base_dim entry", ConfigError) for d in _array(data["base_dim"], "base_dim")]
        degree = _index(data["polarization_degree"], "polarization_degree", ConfigError)
        sides = _array(data["sides"], "sides")
    except KeyError as exc:
        raise ConfigError(f"missing configuration field {exc.args[0]!r}") from None
    if len(base_dims) != 2 or len(sides) != 2:
        raise ConfigError("a roof has exactly two sides")
    if rank < 1:
        raise ConfigError(f"rank must be positive, got {rank}")
    if max(base_dims) > MAX_BASE_DIM:
        raise ConfigError(f"base_dim entry {max(base_dims)} exceeds the cap of {MAX_BASE_DIM}")
    try:  # one ring per base dimension: two sides on one quadric share it
        rings = {d: make_quadric_ring(d) for d in dict.fromkeys(base_dims)}
    except ValueError as exc:
        raise ConfigError(f"base_dim: {exc}") from None
    side = _side_from_dict(sides[0], rings[base_dims[0]], rank, f"{name}:side")
    tilde = _side_from_dict(sides[1], rings[base_dims[1]], rank, f"{name}:tilde")
    signs = tuple(_index(s.get("declared_locus_sign", 1), "declared_locus_sign", ConfigError) for s in sides)
    try:
        return RoofConfig(name, side, tilde, degree, signs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def builtin_config(name: str) -> RoofConfig:
    try:
        data = BUILTIN_CONFIGS[name]
    except (KeyError, TypeError):  # an unhashable name is no built-in either
        raise ConfigError(
            f"unknown configuration {name!r}; built-ins: {', '.join(builtin_names())}") from None
    return config_from_dict(data)


def _json_int(text: str) -> int:
    digits = len(text) - text.startswith("-")
    if digits > MAX_INT_DIGITS:
        raise ConfigError(f"an integer of {digits} digits exceeds the cap of {MAX_INT_DIGITS} digits")
    return int(text)


def load_config(path: str | PathLike) -> RoofConfig:
    """The configuration in a JSON file; a ``path`` that is not a ``str`` or ``os.PathLike``
    (an int would be opened as a file descriptor, and closed) is a ConfigError."""
    if not isinstance(path, (str, PathLike)):
        raise ConfigError(f"a configuration path must be a str or os.PathLike, got {type(path).__name__}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_int=_json_int)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return config_from_dict(data)


def resolve_config(name: str, path: Optional[str] = None) -> RoofConfig:
    """A named built-in, or any configuration from an explicit file."""
    if path is not None:
        cfg = load_config(path)
        if name and name != cfg.name:
            raise ConfigError(f"file {path} defines {cfg.name!r}, not {name!r}")
        return cfg
    return builtin_config(name)
