"""The doubled-integer dictionary and the one-pass sequence solver against reference
implementations written directly in Fraction weights and in two passes."""

import itertools
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from roofpairs.bwbcoh import (
    BWBError,
    InconsistentSequenceError,
    SequenceSpec,
    Underdetermined,
    UnsupportedBundleError,
    bundle_cohomology,
    bundle_cohomology_of_weight,
    bundle_weights,
    dictionary_names,
    les_solve,
    named_bundle_table,
    quadric_root_system,
    weight,
)

H = Fraction(1, 2)


# ---------------------------------------------------------------------------
# reference dictionary: Fraction weights, one branch per name
# ---------------------------------------------------------------------------

REF_NAMES = {
    5: ("O", "S", "Sdual", "Sym2S", "Sym2Sdual", "Wedge2S", "Wedge2Sdual"),
    "odd": ("O", "S", "Sdual"),
    "even": ("O", "Splus", "Sminus", "Splusdual", "Sminusdual"),
}


def ref_names(n):
    return REF_NAMES[5] if n == 5 else REF_NAMES["odd" if n % 2 else "even"]


def ref_weights(n, name):
    m = quadric_root_system(n).rank
    if name == "O":
        return (weight([0] * m),)
    if n % 2:
        if name == "Sdual":
            return (weight([H] * m),)
        if name == "S":
            return (weight([-H] + [H] * (m - 1)),)
        if n == 5:
            if name == "Sym2Sdual":
                return (weight([1, 1, 1]),)
            if name == "Sym2S":
                return (weight([-1, 1, 1]),)
            if name == "Wedge2Sdual":
                return (weight([1, 1, 0]), weight([1, 0, 0]))
            if name == "Wedge2S":
                return (weight([-1, 1, 0]), weight([-1, 0, 0]))
    else:
        if name == "Splusdual":
            return (weight([H] * m),)
        if name == "Sminusdual":
            return (weight([H] * (m - 1) + [-H]),)
        if name == "Splus":
            return (weight([-H] + [H] * (m - 1)),)
        if name == "Sminus":
            return (weight([-H] + [H] * (m - 2) + [-H]),)
    raise UnsupportedBundleError(f"no weight dictionary entry for {name!r} on Q{n}")


def ref_bundle_cohomology(n, name, t):
    """The twist added in Fraction coordinates, summands through the public weight API."""
    table = {}
    for w in ref_weights(n, name):
        lam = (w[0] + t,) + tuple(w[1:])
        for length, dim in bundle_cohomology_of_weight(n, lam).items():
            table[length] = table.get(length, 0) + dim
    return {k: table[k] for k in sorted(table)}


ALL_NAMES = REF_NAMES[5] + REF_NAMES["even"][1:] + ("G", "Bogus")


@pytest.mark.parametrize("n", range(3, 16))
def test_dictionary_matches_fraction_reference(n):
    assert dictionary_names(n) == ref_names(n)
    for name in ALL_NAMES:
        if name not in ref_names(n):
            with pytest.raises(UnsupportedBundleError) as exc:
                bundle_weights(n, name)
            assert str(exc.value) == f"no weight dictionary entry for {name!r} on Q{n}"
            continue
        assert bundle_weights(n, name) == ref_weights(n, name)
        for t in range(-15, 16):
            table = bundle_cohomology(n, name, t)
            assert table == ref_bundle_cohomology(n, name, t)
            assert list(table) == sorted(table)


def test_small_quadrics_rejected_at_every_entry_point():
    # one rule for n < 3: the names are not listed either
    for n, name in itertools.product((1, 2), ("O", "Bogus")):
        calls = (lambda: dictionary_names(n), lambda: bundle_weights(n, name),
                 lambda: named_bundle_table(n, name), lambda: bundle_cohomology(n, name, 0))
        for call in calls:
            with pytest.raises(BWBError, match="quadric dimension must be at least 3") as exc:
                call()
            assert not isinstance(exc.value, UnsupportedBundleError)


def test_non_integral_twist_rejected():
    # a half twist would make the first coordinate's half-integrality differ from the rest
    for t in (H, Fraction(-7, 2), 0.5):
        with pytest.raises(BWBError):
            ref_bundle_cohomology(5, "Sdual", t)
        with pytest.raises(BWBError, match="twist must be an integer"):
            bundle_cohomology(5, "Sdual", t)
    assert bundle_cohomology(5, "O", Fraction(2)) == ref_bundle_cohomology(5, "O", 2) == {0: 27}


# ---------------------------------------------------------------------------
# reference solver: collect every zero-flanked run, then settle them in order
# ---------------------------------------------------------------------------

def ref_les_solve(seq):
    missing = [i for i, t in enumerate(seq.tables) if t is None]
    if len(missing) > 1:
        raise Underdetermined(f"{len(missing)} unknown terms in {seq.names}")
    unknown = missing[0] if missing else None
    entries, owner = [], []
    for k in range(seq.top_degree + 1):
        for pos in range(3):
            t = seq.tables[pos]
            entries.append(None if t is None else t.get(k, 0))
            owner.append(pos)
    runs, run = [], []
    for i, v in enumerate(entries):
        if v == 0:
            runs.append(run)
            run = []
        else:
            run.append(i)
    runs.append(run)
    solved = {}
    for run in runs:
        unknowns = [i for i in run if entries[i] is None]
        total = sum((-1) ** i * entries[i] for i in run if entries[i] is not None)
        if not unknowns:
            if total != 0:
                raise InconsistentSequenceError(
                    f"alternating sum {total} != 0 in a zero-flanked run of {seq.names}")
            continue
        if len(unknowns) > 1:
            raise Underdetermined(
                f"{len(unknowns)} unknown dimensions in one zero-flanked run of {seq.names}")
        i = unknowns[0]
        value = -total if i % 2 == 0 else total
        if value < 0:
            raise InconsistentSequenceError(f"forced negative dimension in {seq.names}")
        solved[i] = value
    if unknown is None:
        return dict(seq.tables[1])
    return {i // 3: v for i, v in solved.items() if owner[i] == unknown and v}


def _outcome(solve, seq):
    try:
        return "ok", solve(seq)
    except BWBError as exc:
        return type(exc), str(exc)


def _table(top):
    return st.dictionaries(st.integers(0, top), st.integers(0, 3), max_size=top + 1)


@st.composite
def specs(draw, unknowns: Optional[int] = None):
    top = draw(st.integers(1, 6))
    count = draw(st.integers(0, 1)) if unknowns is None else unknowns
    missing = set(draw(st.permutations(range(3)))[:count])
    tables = tuple(None if pos in missing else draw(_table(top)) for pos in range(3))
    return SequenceSpec(("A", "B", "C"), tables, top)


@settings(max_examples=400, deadline=None)
@given(specs())
def test_les_solve_matches_two_pass_reference(seq):
    new, ref = _outcome(les_solve, seq), _outcome(ref_les_solve, seq)
    assert new == ref
    if new[0] == "ok":
        assert list(new[1]) == list(ref[1])


@settings(max_examples=30, deadline=None)
@given(specs(unknowns=2))
def test_les_solve_two_unknowns_matches_reference(seq):
    assert _outcome(les_solve, seq) == _outcome(ref_les_solve, seq)


def test_les_solve_reference_covers_every_outcome():
    # one spec per outcome, so the random comparison is not only ever "ok"
    forced = SequenceSpec(("A", "B", "C"), ({0: 1}, {0: 3}, None), 2)
    bad_sum = SequenceSpec(("A", "B", "C"), ({0: 1}, {}, {}), 2)
    negative = SequenceSpec(("A", "B", "C"), ({0: 3}, {0: 1}, None), 2)
    loose = SequenceSpec(("A", "B", "C"), (None, {0: 1, 1: 1}, {1: 2}), 2)
    kinds = [_outcome(les_solve, s)[0] for s in (forced, bad_sum, negative, loose)]
    assert kinds == ["ok", InconsistentSequenceError, InconsistentSequenceError, Underdetermined]
    for s in (forced, bad_sum, negative, loose):
        assert _outcome(les_solve, s) == _outcome(ref_les_solve, s)
    assert les_solve(forced) == {0: 2}
