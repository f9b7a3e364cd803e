"""Committed mutants: each row names a deliberately wrong edit of a proof rule
and the tests that must kill it.

    python tests/mutants.py

For every row the runner copies ``src/`` to a temporary directory, checks
that the old text occurs exactly once in the named file, runs the named tests
on the unmutated copy (each must pass), applies the mutant and runs them again
(each must fail).  The tests run from this checkout's ``tests/`` with only the
copy on the import path.  The exit status is 0 when every row holds.  Each row
costs two interpreter starts and its tests, so this is not part of the tier-1
suite.  A file here not named ``test_*.py`` is not collected by pytest.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

Mutant = namedtuple("Mutant", "file old new tests reason")

MUTANTS = (
    Mutant(
        "primstab/markoff.py",
        "if inf > an >= a1 + a2 + _DELTA:",
        "if inf > an >= lox_floor:",
        ("tests/test_markoff.py::test_moved_elliptic_triples_stay_non_bq",
         "tests/test_markoff.py::test_bq_decide_matches_the_reference_search"),
        "an escape rule without its growth test prunes the branch toward an "
        "elliptic slope and certifies a non-BQ character",
    ),
    Mutant(
        "primstab/markoff.py",
        "if mod < abs(other):",
        "if False:",
        ("tests/test_markoff.py::"
         "test_fan_escape_ignores_the_sign_of_a_zero_imaginary_part",),
        "without the root swap a real r < -2 with a -0.0 imaginary part gets "
        "the root inside the unit circle, so the fan rule depends on the sign "
        "of a zero",
    ),
    Mutant(
        "primstab/moebius.py",
        "map(_orbit_distance, map(_check_entries, powers), repeat(base))",
        "map(_orbit_distance, powers, repeat(base))",
        ("tests/test_stability.py::test_probe_raises_as_the_reference_at_the_same_power",
         "tests/test_moebius.py::test_each_product_is_checked_once"),
        "an orbit probe whose powers skip the entry check measures a power "
        "with non-finite entries instead of raising NonFiniteValue",
    ),
    Mutant(
        "primstab/markoff.py",
        "math.inf > safe_abs(t_far) >= a1 + a2 + _DELTA",
        "math.inf > safe_abs(t_far) >= 2.0 + _DELTA",
        ("tests/test_markoff.py::test_escape_criterion_examples",
         "tests/test_markoff.py::test_bq_decide_matches_the_reference_search"),
        "the public escape rule without its growth test calls an edge escaping "
        "once its far trace passes 2 + 1e-6, so the reference search, which "
        "calls it, prunes edges that bq_decide visits",
    ),
    Mutant(
        "primstab/moebius.py",
        "IsometryClass.IDENTITY, 2.0 * _TOL",
        "IsometryClass.IDENTITY, 0.5 * _TOL",
        ("tests/test_moebius.py::test_kind_and_length_agrees_with_the_rule_without_its_shortcut",
         "tests/test_moebius.py::test_scan_entries_agree_with_the_classifier_at_its_edges",
         "tests/test_markoff.py::test_bq_witness_rule_is_the_classify_rule"),
        "a loxodromic shortcut at |Im t| > 5e-10 calls the parabolic trace "
        "2 + 7e-10i loxodromic",
    ),
    Mutant(
        "primstab/moebius.py",
        "stack = [table[0]]",
        "stack = [(1.0, 0.0, 0.0, 1.0)]",
        ("tests/test_moebius.py::test_walk_multiplies_an_integer_table_exactly",),
        "a walk that starts from the float identity turns an exact table into "
        "floats at the first product and rounds entries past 2^53",
    ),
    Mutant(
        "primstab/moebius.py",
        "if m.c == 0:\n        return UhsPoint(",
        "if abs(m.c) <= _TOL:\n        return UhsPoint(",
        ("tests/test_moebius.py::test_axis_point_is_translated_by_exactly_the_length",),
        "an axis point that takes |c| <= 1e-9 for c = 0 divides by d - a = 0, or "
        "returns a point off the axis that the map moves by 118.8, not 3.53",
    ),
    Mutant(
        "primstab/markoff.py",
        'return _number("slope trace", tm)',
        "return tm",
        ("tests/test_markoff.py::test_slope_trace_one_mediant_step",),
        "a slope trace past the float range comes back as (nan+nanj) instead of "
        "raising NonFiniteValue",
    ),
    Mutant(
        "primstab/markoff.py",
        "pn = p1 + p2",
        "pn = -(p1 + p2)",
        ("tests/test_markoff.py::test_bq_decide_matches_the_reference_search",),
        "a search that forms its slopes wrong records every witness and small "
        "trace under another slope; the reference forms and normalises its own",
    ),
    Mutant(
        "primstab/markoff.py",
        "an = inf",
        "an = 0.0",
        ("tests/test_markoff.py::test_saturated_traces_never_certify",),
        "a modulus past the float range read as 0 counts a saturated trace as "
        "small",
    ),
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def environment(src):
    return dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")


def outcomes(src, tests):
    """{test id: 'PASSED' or 'FAILED' ...} for the tests run against ``src``."""
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                          *tests], capture_output=True, text=True, env=environment(src),
                         cwd=ROOT, timeout=600)
    return {test: status for status, test in
            re.findall(r"^(PASSED|FAILED|ERROR) (\S+)", run.stdout, re.M)}


def check(mutant, src):
    """The reasons the row does not hold; empty when it does."""
    path = os.path.join(src, mutant.file)
    with open(path) as f:
        text = f.read()
    count = text.count(mutant.old)
    if count != 1:
        return ["the old text occurs %d times in %s" % (count, mutant.file)]
    got = outcomes(src, mutant.tests)
    problems = ["%s does not pass unmutated (%s)" % (test, got.get(test, "not run"))
                for test in mutant.tests if got.get(test) != "PASSED"]
    with open(path, "w") as f:
        f.write(text.replace(mutant.old, mutant.new))
    try:
        got = outcomes(src, mutant.tests)
    finally:
        with open(path, "w") as f:
            f.write(text)
    problems += ["%s survives the mutant (%s)" % (test, got.get(test, "not run"))
                 for test in mutant.tests if got.get(test) != "FAILED"]
    return problems


def main():
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        # an installed primstab must not shadow the copy
        where = subprocess.run([sys.executable, "-c", "import primstab; print(primstab.__file__)"],
                               capture_output=True, text=True, env=environment(src), check=True)
        if not where.stdout.startswith(src):
            raise SystemExit("primstab imports from %s, not from %s" % (where.stdout.strip(), src))
        for mutant in MUTANTS:
            problems = check(mutant, src)
            print("%s %s: %r -> %r" % ("ok  " if not problems else "FAIL", mutant.file,
                                       mutant.old, mutant.new))
            for problem in problems:
                print("     " + problem)
            failed += bool(problems)
    print("%d of %d mutants killed as the table says" % (len(MUTANTS) - failed, len(MUTANTS)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
