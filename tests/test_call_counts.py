from roofpairs import checks

# These numbers mirror perfbench/run.py::VERIFY_ALL_COUNTS: the traced benchmark
# run checks that one verify-all makes exactly these calls and reports
# "correct: false" otherwise.  Change them only together with a change to the
# benchmark.
VERIFY_ALL_COUNTS = {
    "roofcalc.reduce": 3794,
    "roofcalc.middle_lattice": 44,
    "latticecore.det": 4088,
    "latticecore.smith_normal_form": 1020,
    "latticecore.isotropic_pair_solve": 5,
}


def test_verify_all_call_counts(count_calls):
    counts = count_calls(*VERIFY_ALL_COUNTS)
    results = checks.run_all()
    assert all(c.passed for c in results)
    assert counts == VERIFY_ALL_COUNTS
