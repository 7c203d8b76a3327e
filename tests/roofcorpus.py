"""The roof configs that the tests share, and their builders.

A plain module, not collected by pytest: the test modules import their
corpus from here, and never from one another.

- ``DATA_CONFIGS``: the configs of the committed ``tests/data/*.json`` files,
  by file stem, in sorted order;
- ``CONFIGS``: the 26 query configs (both built-ins, their reordered copies,
  ``SWITCHED_RELATION`` and the 21 ``SYNTHETIC`` roofs on Q4-Q10);
- ``NON_UNIMODULAR``: a roof whose pullback sublattice has determinant 2;
- ``CORPUS``: the three above, every config the engine's oracles run on;
- ``PARTIAL``: synthetic roofs whose twin sides keep part of their middle
  basis, with or without the top monomial;
- ``SPLIT_TILDE_TOY``: a toy roof whose split tilde side breaks the sign law;
- ``STAGE_CASES``: a config failing in each stage of a query, with the
  public function that fails on it;
- ``SYNTHETIC_ROOFS``: the hypothesis strategy for synthetic Q4-Q10 roofs.
"""

import copy
import json
import pathlib
import random
from math import comb

from hypothesis import strategies as st

from roofpairs import roofcalc
from roofpairs.configs import BUILTIN_CONFIGS, builtin_config, config_from_dict, load_config
from roofpairs.gradedring import BasisElement, RingPresentation, make_quadric_ring

DATA_CONFIGS = {p.stem: load_config(p) for p in sorted((pathlib.Path(__file__).parent / "data").glob("*.json"))}


# ---------------------------------------------------------------------------
# synthetic roofs: identical sides on Q_n, rank n-2, c_i = a_i L^i
# ---------------------------------------------------------------------------

def _switch(b):
    """Coefficients of f(xi - L, xi) for f = sum_i b_i L^i xi^(r-i)."""
    out = [0] * len(b)
    for i, bi in enumerate(b):
        for k in range(i + 1):
            out[k] += bi * comb(i, k) * (-1) ** k
    return out


def roof_relation(rng, r, amp):
    """a_1..a_r with f(xi - L, xi) = (-1)^r f, f monic in xi and a_r > 0."""
    while True:
        g = [0] + [rng.randint(-amp, amp) for _ in range(r)]
        s = sum(g)
        if r % 2 == 0:
            if s % 2 == 0:
                continue
            g[0] = (1 - s) // 2
        elif s != -1:
            continue
        f = [x + (-1) ** r * y for x, y in zip(g, _switch(g))]
        a = [(-1) ** i * c for i, c in enumerate(f)]
        if a[r] > 0:
            return a[1:]


def synthetic_roof(n, a, name):
    """Config data with c_i = a_i L^i and every monomial of middle codimension as middle basis."""
    ring, r = make_quadric_ring(n), n - 2
    side = {
        "groth": [[[lbl, a[i - 1] * c] for lbl, c in ring.l_power(i).coeffs.items()]
                  for i in range(1, r + 1)],
        "middle_basis": [[b.label, r - b.degree] for b in ring.basis if 0 <= r - b.degree < r],
        "declared_locus_sign": 1,
    }
    return {"name": name, "rank": r, "base_dim": [n, n], "polarization_degree": 2 * a[-1],
            "sides": [side, json.loads(json.dumps(side))]}


# hypothesis draws of synthetic_roof data on Q4-Q10, each with a seeded relation
SYNTHETIC_ROOFS = st.builds(
    lambda n, seed, amp: synthetic_roof(n, roof_relation(random.Random(seed), n - 2, amp), "hyp"),
    st.integers(4, 10), st.integers(0, 2**32 - 1), st.integers(1, 4))


def switched_relation_roof(n, a, name):
    """``synthetic_roof`` with the tilde relation f(xi - L~, xi) of the side's f, made monic:
    the two sides share base, rank and middle basis and differ only in the relation.
    Needs sum_i (-1)^i a_i = (-1)^r (with a_0 = 1), so that both sides have degree 2 a_r."""
    r = n - 2
    b = [(-1) ** i * c for i, c in enumerate([1, *a])]
    at = [(-1) ** (i + r) * c for i, c in enumerate(_switch(b))]
    assert at[0] == 1 and at[r] == a[-1] and at[1:] != list(a)
    data = synthetic_roof(n, a, name)
    data["sides"][1] = synthetic_roof(n, at[1:], name)["sides"][0]
    return data


def _synthetic_configs():
    """Three distinct roofs on each base Q4..Q10; a repeated draw widens the range."""
    rng, seen, out = random.Random(17), set(), []
    for n in range(4, 11):
        for _ in range(3):
            amp = 2
            while (n, tuple(a := roof_relation(rng, n - 2, amp))) in seen:
                amp += 1
            seen.add((n, tuple(a)))
            out.append(synthetic_roof(n, a, f"syn-q{n}-{len(seen)}"))
    return out


def _reordered_tilde(name, sign):
    """A built-in with the tilde middle basis reversed and a tilde locus sign of ``sign``:
    the two sides then have different coordinates and declared conventions."""
    data = copy.deepcopy(BUILTIN_CONFIGS[name])
    tilde = data["sides"][1]
    tilde["middle_basis"].reverse()
    tilde["declared_locus_sign"] = sign
    data["name"] = f"{name}-reordered"
    return config_from_dict(data)


def non_unimodular_roof() -> roofcalc.RoofConfig:
    """A rank-2 roof over a fourfold with one class in each degree, H^2 = A, H*A = 2 H3, A^2 = 2 pt and
    H*H3 = pt.  S is spanned by A, with A.A = 2, so det S = 2: the Gram matrix [[2, 2], [2, 0]] has the
    discriminant group Z/2 x Z/2, not the Z/|j.j| = Z/2 of the closed form.  The relation
    f = xi^2 - H*xi + H^2 satisfies f(xi - H, xi) = f, so lemma7 can switch sides."""
    labels = (("1", 0), ("H", 1), ("A", 2), ("H3", 3), ("pt", 4))
    ring = RingPresentation("X4", 4, tuple(BasisElement(*b) for b in labels), "pt",
                            {("H", "H"): {"A": 1}, ("H", "A"): {"H3": 2}, ("A", "A"): {"pt": 2},
                             ("H", "H3"): {"pt": 1}}, hyperplane_form={"H": 1})
    coeffs, basis = (ring.l_power(1), ring.l_power(2)), (("A", 0), ("H", 1))
    return roofcalc.RoofConfig("non-unimodular", roofcalc.RoofSide("side", ring, 2, coeffs, basis),
                               roofcalc.RoofSide("side~", ring, 2, coeffs, basis), 2)


def _fresh(config):
    """``config`` rebuilt from its sides' data, with fresh xi-power tables and empty Segre data."""
    sides = [roofcalc.RoofSide(s.name, s.base, s.rank, s.groth_coeffs, s.middle_basis)
             for s in (config.side, config.tilde_side)]
    return roofcalc.RoofConfig(config.name, *sides, config.polarization_degree, config.declared_locus_signs)


SYNTHETIC = _synthetic_configs()
# a seeded search found this pair: f = xi^3 - 3L xi^2 + 2L^2 xi - L^3 and f(xi - L~, xi) on Q5
SWITCHED_RELATION = config_from_dict(switched_relation_roof(5, [3, 2, 1], "q5-switched-relation"))
CONFIGS = ([builtin_config("g2dagger"), builtin_config("d4")]
           + [_reordered_tilde("g2dagger", -1), _reordered_tilde("d4", 1), SWITCHED_RELATION]
           + [config_from_dict(d) for d in SYNTHETIC])
NON_UNIMODULAR = non_unimodular_roof()
CORPUS = [*DATA_CONFIGS.values(), *CONFIGS, NON_UNIMODULAR]


def _partial_bases(count=24, seed=42):
    """Synthetic Q4-Q8 roofs whose twin sides keep a seeded part of their middle basis, with or without the
    top monomial L*xi^(r-1); the degenerate bases are left out.  At most 2 * count are drawn (the defaults keep
    24 of 38), so that a ``middle_lattice`` that finds every basis degenerate cannot hang the import."""
    rng, out = random.Random(seed), []
    for _ in range(2 * count):
        n = rng.randint(4, 8)
        data = synthetic_roof(n, roof_relation(rng, n - 2, 2), f"partial-q{n}-{len(out)}")
        top, *rest = data["sides"][0]["middle_basis"]
        assert top == ["L", n - 3]
        kept = rng.sample(rest, rng.randint(1, len(rest) - 1))
        for side in data["sides"]:
            side["middle_basis"] = kept if len(out) % 4 == 3 else [top, *kept]
        config = config_from_dict(data)
        try:
            roofcalc.middle_lattice(config.side)
        except roofcalc.DegenerateBasisError:
            continue
        out.append(config)
        if len(out) == count:
            break
    return out


PARTIAL = _partial_bases()


# ---------------------------------------------------------------------------
# a config failing in each stage
# ---------------------------------------------------------------------------

TOY_SIDE = {"groth": [[["L", 1]], [["Pi1", 1], ["Pi2", 1]]],
            "middle_basis": [["Pi1", 0], ["Pi2", 0], ["L", 1]]}


def _toy_data(side=None, tilde=None):
    """A Q4 toy roof's data, with the given fields of its side or tilde side replaced."""
    return {"name": "toy-broken", "rank": 2, "base_dim": [4, 4], "polarization_degree": 2,
            "sides": [dict(TOY_SIDE, **(side or {})), dict(TOY_SIDE, **(tilde or {}))]}


# S = <Pi1> is unimodular, so the tilde side splits, but +-j = -L*xi + Pi1 has self-pairing -1, not -2
SPLIT_TILDE_TOY = _toy_data(tilde={"middle_basis": [["Pi1", 0], ["L", 1]]})


def _q6_partial_tilde():
    """A synthetic Q6 roof whose tilde middle basis lacks L^2*xi^2 and Pi1*L: describe reports both sides,
    whose locus classes keep the sign law, but the switched locus class has an L^2*xi^2 term (a seeded
    search found it)."""
    data = synthetic_roof(6, [0, 2, 4, 2], "q6-partial-tilde")
    data["sides"][1]["middle_basis"] = [["L", 3], ["Pi1", 1], ["Pi2", 1]]
    return data


def _d4_without_pi2():
    """d4 with Pi2 removed from both middle bases.  S's centre block is Pi1.Pi1 = 0 on Q6, so S is degenerate;
    the generator of S^perp, -Pi1*xi + 6*Pi1*L, lies in S itself, and its self-pairing is 0, where the sign
    law of a locus class needs (-1)^(r-1) d = -12."""
    data = copy.deepcopy(BUILTIN_CONFIGS["d4"])
    for side in data["sides"]:
        side["middle_basis"] = [m for m in side["middle_basis"] if m[0] != "Pi2"]
    return data


def _zero_degree():
    """``_d4_without_pi2`` with c_1 = c_4 = 0, c_2 = -4 L^2 and c_3 = -2 Pi1 on both sides: its zero-locus degree is
    0, so the config loads and describe reports it, but the residue scan has no residues mod 0 to take."""
    data = _d4_without_pi2()
    data["name"], data["polarization_degree"] = "d4-zero-degree", 0
    for side in data["sides"]:
        side["groth"] = [[], [["L^2", -4]], [["Pi1", -2]], []]
    return data


STAGE_CASES = [(stage, config_from_dict(data), public) for stage, data, public in [
    # a repeated monomial makes the side's Gram matrix singular
    ("middle lattice", _toy_data(side={"middle_basis": [["Pi1", 0], ["Pi1", 0], ["L", 1]]}),
     lambda cfg: roofcalc.middle_lattice(cfg.side)),
    # an xi exponent beyond rank - 1 on the tilde side
    ("middle lattice", _toy_data(tilde={"middle_basis": [["Pi1", 0], ["Pi2", 0], ["L", 2]]}),
     lambda cfg: roofcalc.middle_lattice(cfg.tilde_side)),
    # no top xi-monomial: the pullback complement is not rank one
    ("locus class", _toy_data(side={"middle_basis": [["Pi1", 0], ["Pi2", 0]]}),
     lambda cfg: roofcalc.locus_pushforward_class(cfg.side)),
    ("locus class", _toy_data(tilde={"middle_basis": [["Pi1", 0], ["Pi2", 0]]}),
     lambda cfg: roofcalc.locus_pushforward_class(cfg.tilde_side)),
    ("locus class", SPLIT_TILDE_TOY, lambda cfg: roofcalc.locus_pushforward_class(cfg.tilde_side)),
    # S is degenerate, so the side falls back, and S^perp's generator has self-pairing 0, not -12
    ("locus class", _d4_without_pi2(), lambda cfg: roofcalc.locus_pushforward_class(cfg.side)),
    # the tilde relation does not match the side's under L -> xi - L~
    ("side switch", _toy_data(tilde={"groth": [[["L", 3]], [["Pi1", 1], ["Pi2", 1]]]}),
     lambda cfg: roofcalc.switch_side(cfg, roofcalc.locus_pushforward_class(cfg.side))),
    # the switched class has an L^2*xi^2 term the tilde middle basis lacks
    ("residue scan", _q6_partial_tilde(), roofcalc.residue_scan),
    # a zero polarization degree
    ("residue scan", _zero_degree(), roofcalc.residue_scan),
]]
