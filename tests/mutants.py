"""Committed mutants: each row names a deliberately wrong edit of a proof rule
and the tests that must kill it.

    python tests/mutants.py

The runner copies ``src/`` to a temporary directory and runs the tests of
every row together on the unmutated copy, once (each must pass).  Then, for
every row, it checks that the old text occurs exactly once in the named file,
applies the mutant and runs the row's tests again (each must fail).  The tests
run from this checkout's ``tests/`` with only the copy on the import path.
The exit status is 0 when every row holds.  Each row costs an interpreter
start and its tests, so this is not part of the tier-1 suite.  A file here
not named ``test_*.py`` is not collected by pytest.
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
        "calls it, prunes edges that bq_decide visits, and the escape walk "
        "finds a region of modulus below 4 past such an edge",
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
    Mutant(
        "primstab/whitehead.py",
        "        side ^= 1 << a\n",
        "",
        ("tests/test_whitehead.py::test_every_cut_vertex_move_shortens_the_core[3]",),
        "a disconnected graph's move that keeps a in its own side is the "
        "identity, so is_primitive takes it again and again",
    ),
    Mutant(
        "primstab/whitehead.py",
        "image.append(a ^ 1)",
        "image.append(a)",
        ("tests/test_whitehead.py::test_every_cut_vertex_move_shortens_the_core[2]",),
        "a move image with a where a^-1 belongs is no automorphic image, and "
        "need not be shorter",
    ),
    Mutant(
        "primstab/whitehead.py",
        "while j - i > 1 and core[i] == core[j - 1] ^ 1:",
        "while False:",
        ("tests/test_whitehead.py::test_every_cut_vertex_move_shortens_the_core[2]",),
        "a move image left without its cyclic reduction keeps a cancelling "
        "pair across its ends, so the core does not shorten",
    ),
    Mutant(
        "primstab/whitehead.py",
        "lone = side & ~((side & even) << 1 | (side >> 1) & even)",
        "lone = side",
        ("tests/test_whitehead.py::test_every_cut_vertex_move_shortens_the_core[3]",
         "tests/test_whitehead.py::test_automorphic_images_of_a_letter_are_primitive[3]"),
        "a disconnected graph's move on any letter of a side, even one whose "
        "inverse the side holds, need not shorten, and is_primitive answers "
        "wrong",
    ),
    Mutant(
        "primstab/whitehead.py",
        "support = letters if all(adjacent) else sum(",
        "support = letters if True else sum(",
        ("tests/test_whitehead.py::test_every_cut_vertex_move_shortens_the_core[3]",),
        "a graph taken on all 2n letters, not on the core's support, is "
        "disconnected by the unused letters, whose moves are the identity",
    ),
    Mutant(
        "primstab/whitehead.py",
        "side = rest ^ (side if side & inverse else _component(adjacent, inverse, rest))",
        "side = side if side & inverse else _component(adjacent, inverse, rest)",
        ("tests/test_whitehead.py::test_every_cut_vertex_move_shortens_the_core[2]",
         "tests/test_whitehead.py::test_is_primitive_agrees_with_the_pool_in_rank_4"),
        "a cut vertex's move on the side that holds a^-1 does not shorten the "
        "core, and is_primitive answers wrong",
    ),
    Mutant(
        "primstab/whitehead.py",
        "if move is None:\n            return False",
        "if move is None:\n            return True",
        ("tests/test_whitehead.py::test_every_cut_vertex_move_shortens_the_core[2]",
         "tests/test_whitehead.py::test_is_primitive_agrees_with_the_pool_in_rank_4"),
        "a core whose closed graph is connected with no cut vertex is called "
        "primitive",
    ),
    Mutant(
        "primstab/whitehead.py",
        "if 1 in counts:",
        "if min(counts) <= 1:",
        ("tests/test_whitehead.py::test_a_generator_occurring_once_answers_before_any_round",
         "tests/test_whitehead.py::test_is_primitive_agrees_with_the_pool_on_fewer_generators[3]"),
        "a generator that occurs at most once, not exactly once, lets a "
        "generator the core does not use make it primitive: abAB in rank 3",
    ),
    Mutant(
        "primstab/traces.py",
        "return t * 0.5, cmath.sqrt(t * 0.25 - 0.5) * cmath.sqrt(t + 2.0)",
        "return t * 0.5, cmath.sinh(cmath.acosh(t * 0.5))",
        ("tests/test_moebius.py::test_half_trace_split_is_within_4_ulps_of_a_decimal_oracle",),
        "k = sinh(acosh(t/2)) misses the eigenvalue split by up to 1e6 ulps "
        "near t = +-2",
    ),
    Mutant(
        "primstab/whitehead.py",
        "_INVERSE = bytes(b ^ 1 for b in range(256))",
        "_INVERSE = bytes(b for b in range(256))",
        ("tests/test_whitehead.py::test_orbit_matches_the_symmetries_one_by_one[1-words0]",),
        "an orbit whose inverse strings keep each letter pairs every class "
        "with its own reversal, not with its inverse",
    ),
    Mutant(
        "primstab/markoff.py",
        "root = roots[r] = _fan_root(r)",
        "root = roots[r] = _fan_root(y)",
        ("tests/test_markoff.py::test_bq_decide_matches_the_reference_search",
         "tests/test_markoff.py::test_each_distinct_small_trace_gets_one_fan_root_per_search"),
        "a fan root taken from the large side of the edge, not the small one, "
        "prunes by the wrong fan",
    ),
    Mutant(
        "primstab/moebius.py",
        "slack = _TOL * (img.radius + want.radius)",
        "slack = _TOL",
        ("tests/test_moebius.py::test_schottky_check_does_not_depend_on_the_scale",),
        "a pairing compared with an absolute slack of 1e-9 fails a valid "
        "ping-pong pairing once its disks are large",
    ),
    Mutant(
        "primstab/markoff.py",
        "math.isfinite(m) and m >= 2.0 + _DELTA and (m - 1.0) * (m - 1.0) >= floor",
        "math.isfinite(m) and (m - 1.0) * (m - 1.0) >= floor",
        ("tests/test_render.py::test_criterion_9_slice_is_decided_and_agrees_with_brute_force",
         "tests/test_bq_hypothesis.py::test_bq_verdicts_agree_with_brute_force",
         "tests/test_markoff.py::test_every_fan_prune_passes_the_fan_walk",
         "tests/test_markoff.py::test_bq_decide_matches_the_reference_search"),
        "a fan bound without m >= 2 + 1e-6 prunes fans that can hold traces "
        "of modulus below 2, so a certificate misses a small slope; the "
        "reference search calls the same bound, so of the verdict tests only "
        "the brute-force check and the fan walk, alone or asserted at each of "
        "the reference's fan prunes, see it",
    ),
    Mutant(
        "primstab/markoff.py",
        "math.isfinite(m) and m >= 2.0 + _DELTA and (m - 1.0) * (m - 1.0) >= floor",
        "math.isfinite(m) and m >= 2.0 + _DELTA",
        ("tests/test_markoff.py::test_fan_escape_forward_property",
         "tests/test_markoff.py::test_every_fan_prune_passes_the_fan_walk",
         "tests/test_markoff.py::test_bq_decide_matches_the_reference_search"),
        "a fan bound without (m - 1)^2 >= 1 + |r| + 1e-6 calls a fan escaping "
        "whose edges need not pass the escape test",
    ),
    Mutant(
        "primstab/whitehead.py",
        "return self.reason == CONNECTED_NO_CUTPOINT",
        "return self.reason != DISCONNECTED",
        ("tests/test_whitehead.py::test_blocking_certificate_examples",),
        "a certificate that asks only for a connected letter graph calls a word "
        "with a cutpoint, or the empty word, certified",
    ),
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def environment(src):
    return dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")


# seconds for one pytest run, the unmutated run of every row's tests included;
# the whole table takes under a minute, so a mutant that makes its tests loop
# reports TIMEOUT well within a 15-minute job
RUN_LIMIT = 60


def outcomes(src, tests):
    """{test id: 'PASSED' or 'FAILED' ...} for the tests run against ``src``,
    every one 'TIMEOUT' when the run passes ``RUN_LIMIT``."""
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p",
                              "no:cacheprovider", *tests], capture_output=True, text=True,
                             env=environment(src), cwd=ROOT, timeout=RUN_LIMIT)
    except subprocess.TimeoutExpired:
        return dict.fromkeys(tests, "TIMEOUT")
    return {test: status for status, test in
            re.findall(r"^(PASSED|FAILED|ERROR) (\S+)", run.stdout, re.M)}


def check(mutant, src, unmutated):
    """The reasons the row does not hold, given the ``outcomes`` of its tests on
    the unmutated copy; empty when it does."""
    problems = ["%s does not pass unmutated (%s)" % (test, unmutated.get(test, "not run"))
                for test in mutant.tests if unmutated.get(test) != "PASSED"]
    path = os.path.join(src, mutant.file)
    with open(path) as f:
        text = f.read()
    count = text.count(mutant.old)
    if count != 1:
        return problems + ["the old text occurs %d times in %s" % (count, mutant.file)]
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
        unmutated = outcomes(src, sorted({test for mutant in MUTANTS for test in mutant.tests}))
        for mutant in MUTANTS:
            problems = check(mutant, src, unmutated)
            print("%s %s: %r -> %r" % ("ok  " if not problems else "FAIL", mutant.file,
                                       mutant.old, mutant.new))
            for problem in problems:
                print("     " + problem)
            failed += bool(problems)
    print("%d of %d mutants killed as the table says" % (len(MUTANTS) - failed, len(MUTANTS)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
