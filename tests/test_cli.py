import json
import math
import os
import re
import shlex

import pytest

import primstab as ps
from primstab import cli
from primstab.errors import NonFiniteValue

from helpers import (REP, REP3, REP4, REP_ELLIPTIC, assert_cli_contract,
                     decimal_translation_length, run_cli, run_python, schottky_example)

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def write_rep(tmp_path, doc):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    return str(path)


SCHOTTKY = ps.representation_to_json(schottky_example()[0])


def test_primitive_subcommand():
    code, out, err = run_cli(["primitive", "abAB"])
    assert code == 0 and err == ""
    assert json.loads(out) == {"word": "abAB", "primitive": False}
    code, out, _ = run_cli(["primitive", "a"])
    assert code == 0
    assert json.loads(out) == {"word": "a", "primitive": True}
    # past the rank cap of the move search, primitivity is still decided
    code, out, err = run_cli(["primitive", "eeee"])
    assert code == 0 and err == ""
    assert json.loads(out) == {"word": "eeee", "primitive": False}
    code, out, err = run_cli(["primitive", "e"])
    assert code == 0 and err == ""
    assert json.loads(out) == {"word": "e", "primitive": True}


def test_blocking_subcommand():
    code, out, _ = run_cli(["blocking", "abABabAB"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is True
    assert doc["reason"] == "CONNECTED_NO_CUTPOINT"
    code, out, _ = run_cli(["blocking", "abAB"])
    doc = json.loads(out)
    assert doc["certified"] is False and doc["reason"] == "HAS_CUTPOINT"


def test_word_subcommand():
    code, out, _ = run_cli(["word", "aabAA"])
    assert code == 0
    doc = json.loads(out)
    assert doc["reduced"] == "aabAA"
    assert doc["cyclic"] == "b"
    assert doc["cyclic_length"] == 1
    assert doc["conjugator"] == "aa"


def test_enumerate_subcommand():
    code, out, _ = run_cli(["enumerate", "--rank", "2", "--max-len", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 8
    assert doc["classes"] == ["a", "ab", "aB", "A", "Ab", "AB", "b", "B"]


# near_elliptic: diag(e^u, e^-u) with u = 1e-6 + 1i, loxodromic with length
# 2e-6 next to the elliptic segment, where ln(1 + x) cancels.  near_parabolic:
# trace 2 + 5e-10, parabolic with length 0.0, though its trace alone gives
# 4.47e-5.  edge: trace 2 + 7e-10i (det exactly 1) is parabolic, though its
# |Im t| passes half the 2e-9 of the classifier's loxodromic shortcut
PARABOLIC = [[1, 0], [1, 0], [0, 0], [1, 0]]
NEAR_ELLIPTIC = {"rank": 2, "generators": [
    [[0.5403028461707158, 0.8414718262793021], [0, 0], [0, 0],
     [0.5403017655661041, -0.8414701433373325]], PARABOLIC]}
NEAR_PARABOLIC = {"rank": 2, "generators": [[[2.0000000005, 0], [-1, 0], [1, 0], [0, 0]],
                                            PARABOLIC]}
EDGE = {"rank": 1, "generators": [[[2, 7e-10], [-1, 0], [1, 0], [0, 0]]]}


def test_rep_info_subcommand(tmp_path):
    # each printed class and length is the library's, a non-loxodromic
    # length is 0.0, and a loxodromic one is within 4 ulps of the oracle
    lox, par = "LOXODROMIC", "PARABOLIC"
    for doc, classes in ((SCHOTTKY, [lox, lox]), (NEAR_ELLIPTIC, [lox, par]),
                         (NEAR_PARABOLIC, [par, par]), (EDGE, [par])):
        path = write_rep(tmp_path, doc)
        code, out, _ = run_cli(["rep-info", "--rep", path])
        assert code == 0
        info = json.loads(out)
        assert info["rank"] == doc["rank"]
        assert ("fricke" in info) == (doc["rank"] == 2)
        gens = info["generators"]
        assert [g["class"] for g in gens] == classes
        for m, g in zip(ps.representation_from_json(doc).images, gens):
            got = g["class"], g["translation_length"]
            assert got == (ps.classify(m).value, ps.translation_length(m))
            if g["class"] != "LOXODROMIC":
                assert got[1] == 0.0
            else:
                want = decimal_translation_length(complex(*g["trace"]))
                assert abs(got[1] - want) <= 4 * math.ulp(want)
    # the scan runs the same classifier: both one-letter classes fail
    code, out, _ = run_cli(["ps-scan", "--rep", write_rep(tmp_path, EDGE), "--max-len", "1"])
    assert code == 0
    scan = json.loads(out)
    assert (scan["verdict"], scan["failures"]) == ("FAILURE", ["a", "A"])


def test_ps_scan_subcommand_round_trips(tmp_path):
    for doc, max_len, verdict in ((SCHOTTKY, 4, ps.NO_OBSTRUCTION), (REP, 6, ps.FAILURE),
                                  (REP3, 5, ps.FAILURE), (REP4, 4, ps.FAILURE),
                                  (REP_ELLIPTIC, 4, ps.FAILURE)):
        path = write_rep(tmp_path, doc)
        code, out, _ = run_cli(["ps-scan", "--rep", path, "--max-len", str(max_len)])
        assert code == 0
        report = ps.ps_report_from_json(json.loads(out))
        assert report.verdict == verdict
        assert (report.min_ratio > 0) == (verdict == ps.NO_OBSTRUCTION)
        # writing what was read gives the printed line to the byte
        assert json.dumps(ps.ps_report_to_json(report, doc["rank"]), allow_nan=False) + "\n" == out


def test_probe_subcommand(tmp_path):
    path = write_rep(tmp_path, SCHOTTKY)
    code, out, _ = run_cli(["probe", "--rep", path, "--word", "a",
                            "--periods", "50"])
    assert code == 0
    doc = json.loads(out)
    assert doc["periods"] == 50
    assert doc["slope"] > 0
    assert len(doc["residuals"]) == 51


def test_bq_decide_subcommand():
    # --x -1e5: a negative number as its own argument
    for x, budget, kind, kappa, pruned in (
            ("3", "100000", ps.BqKind.BQ_CERTIFIED, [-2.0, 0.0], (6, 0)),
            ("1", "1000", ps.BqKind.NOT_BQ_WITNESS, [8.0, 0.0], (0, 0)),
            ("-1e5", "10", ps.BqKind.BQ_CERTIFIED, [10000900016.0, 0.0], (3, 0))):
        code, out, _ = run_cli(["bq-decide", "--x", x, "--y", "3", "--z", "3",
                                "--budget", budget])
        assert code == 0
        doc = json.loads(out)
        verdict = ps.bq_verdict_from_json(doc)
        assert verdict.kind == kind
        assert doc["kappa"] == kappa
        assert (doc["pruned_escape"], doc["pruned_fan"]) == pruned
        # writing what was read, with kappa put back last, gives the printed line
        rewritten = ps.bq_verdict_to_json(verdict)
        rewritten["kappa"] = doc["kappa"]
        assert json.dumps(rewritten, allow_nan=False) + "\n" == out


def test_bq_decide_complex_flags():
    code, out, _ = run_cli(["bq-decide", "--x", "0.5,1.2", "--y", "5", "--z", "5",
                            "--budget", "1000", "--small-trace-bound", "0"])
    assert code == 0
    assert json.loads(out)["kind"] == "NOT_BQ_WITNESS"


def test_bq_decide_overflowing_traces_are_domain_errors():
    code, out, err = run_cli(["bq-decide", "--x", "1e200", "--y", "1e200", "--z", "3",
                              "--budget", "100"])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "NonFiniteValue"


BQ_FLAGS = ["--x", "3", "--y", "3", "--z", "3", "--budget", "10"]


@pytest.mark.parametrize("argv", [
    ["bq-decide", "--x", "3", "--y", "3", "--z", "3", "--budget", "-1"],
    ["bq-decide", *BQ_FLAGS, "--small-trace-bound", "-1"],
    ["bq-decide", *BQ_FLAGS, "--tol", "nan"],
    ["bq-decide", *BQ_FLAGS, "--delta", "inf"],
    ["bq-decide", "--x", "nan", "--y", "3", "--z", "3", "--budget", "10"],
    ["bq-decide", "--x", "3", "--y", "3,-inf", "--z", "3", "--budget", "10"],
    ["enumerate", "--rank", "2", "--max-len", "-1"],
    ["enumerate", "--rank", "0", "--max-len", "2"],
    ["ps-scan", "--rep", "rep.json", "--max-len", "-1"],
    ["probe", "--rep", "rep.json", "--word", "a", "--periods", "5", "--basepoint", "0,0,nan"],
    ["probe", "--rep", "rep.json", "--word", "a", "--periods", "1"],
    ["enumerate", "--rank", "27", "--max-len", "1"],
    ["word", "a", "--rank", "27"],
    ["render", "--config", "c.json", "--out", "o.ppm", "--threads", "0"],
    ["enumerate", "--rank", "2", "--max-len", "2", "--rank-cap", "5"],
    ["bq-decide", "--x", "1,2,3", "--y", "3", "--z", "3", "--budget", "10"],
    ["probe", "--rep", "rep.json", "--word", "a", "--periods", "5", "--basepoint", "1,2"],
])
def test_out_of_range_flags_are_usage_errors(argv):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err


def test_every_finite_float_flag_parses():
    for value in (0.1, -0.0, 5e-324, 1.7976931348623157e308, 3.0000000000000004):
        args = cli.parse_args(["bq-decide", "--x", repr(value), "--y", "3",
                               "--z", repr(value), "--budget", "0"])
        assert args.x == complex(value, 0.0) and args.z == complex(value, 0.0)
    # a negative number in exponent form, given as its own argument, is a value
    for text in ("-1e5", "-5e-324", "-1.7976931348623157e308"):
        args = cli.parse_args(["bq-decide", "--x", text, "--y", "3",
                               "--z", "3", "--budget", "0"])
        assert args.x == complex(float(text), 0.0)
    args = cli.parse_args(["bq-decide", "--x", "-1,2", "--y", "3",
                           "--z", "3", "--budget", "0"])
    assert args.x == complex(-1.0, 2.0)
    args = cli.parse_args(["probe", "--rep", "rep.json", "--word", "a",
                           "--periods", "2", "--basepoint", "-1,0,1"])
    assert args.basepoint == ps.UhsPoint(-1, 1)


def test_python_dash_m_runs_the_cli():
    proc = run_python("-m", "primstab", "word", "ab")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["reduced"] == "ab"
    assert proc.stdout.count("\n") == 1


def test_render_subcommand_and_determinism(tmp_path):
    cfg = ps.SliceConfig(kappa=-2, fixed_x=3, window=(complex(0, -3), complex(6, 3)),
                         width=6, height=6, budget=2000)
    cfg_path = tmp_path / "slice.json"
    cfg_path.write_text(json.dumps(ps.slice_config_to_json(cfg)))
    out1 = tmp_path / "a.ppm"
    out2 = tmp_path / "b.ppm"
    code, out, _ = run_cli(["render", "--config", str(cfg_path),
                            "--out", str(out1), "--threads", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["width"] == 6 and doc["height"] == 6
    code, _, _ = run_cli(["render", "--config", str(cfg_path),
                          "--out", str(out2), "--threads", "3"])
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().startswith(b"P6\n6 6\n255\n")


def test_render_far_window_passes_the_fricke_check(tmp_path):
    # traces near 1e4 round the identity's residual past an absolute 1e-8
    cfg_path = tmp_path / "far.json"
    cfg_path.write_text(json.dumps({
        "kappa": [-2, 0], "fixed_x": [3, 0], "window": [[10000, -1], [10002, 1]],
        "width": 4, "height": 4, "budget": 200,
    }))
    code, out, err = run_cli(["render", "--config", str(cfg_path),
                              "--out", str(tmp_path / "far.ppm"), "--threads", "1"])
    assert code == 0 and err == ""
    assert json.loads(out)["bytes"] == len(b"P6\n4 4\n255\n") + 4 * 4 * 3


def test_render_malformed_config_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out_path = tmp_path / "x.ppm"
    code, _, err = run_cli(["render", "--config", str(bad), "--out", str(out_path)])
    assert code == 2
    assert json.loads(err)["error"] == "JSONDecodeError"
    # a document that is not UTF-8 (here a UTF-16 byte-order mark) is a
    # usage error too, for every command that reads one
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    for argv in (("render", "--config", str(not_utf8), "--out", str(out_path)),
                 ("rep-info", "--rep", str(not_utf8))):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "UnicodeDecodeError"
    assert not out_path.exists()


def test_render_config_with_a_retired_key_is_a_parse_error(tmp_path):
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps({
        "kappa": [-2, 0], "fixed_x": [3, 0], "window": [[0, -3], [6, 3]],
        "width": 2, "height": 2, "delta": "x",
    }))
    out_path = tmp_path / "old.ppm"
    code, out, err = run_cli(["render", "--config", str(cfg_path), "--out", str(out_path)])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ParseError"
    assert not out_path.exists()


def test_readme_examples_run(monkeypatch, tmp_path):
    # the README's representation and slice config are read by the library's
    # readers, and each of its command lines but the render, which criterion 9
    # covers, exits 0 with one JSON object
    with open(README, encoding="utf-8") as f:
        text = f.read()
    rep, config = re.findall(r"^```json\n(.*?)^```", text, re.M | re.S)
    ps.representation_from_json(json.loads(rep))
    ps.slice_config_from_json(json.loads(config))
    (tmp_path / "rep.json").write_text(rep)
    (tmp_path / "slice.json").write_text(config)
    monkeypatch.chdir(tmp_path)
    argvs = [shlex.split(line)[1:]
             for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
             for line in block.splitlines() if line.startswith("primstab ")]
    argvs = [argv for argv in argvs if argv[0] != "render"]
    assert len(argvs) == 9
    for argv in argvs:
        code, out, err = run_cli(argv)
        assert code == 0, (argv, err)
        assert_cli_contract(code, out, err)


def test_domain_errors_exit_one_with_error_json(tmp_path):
    bad_det = tmp_path / "bad_rep.json"
    bad_det.write_text(json.dumps({
        "rank": 1,
        "generators": [[[0.9, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
    }))
    code, out, err = run_cli(["rep-info", "--rep", str(bad_det)])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "DeterminantError"

    # the determinant's modulus overflows although every entry is finite
    huge_det = tmp_path / "huge_det.json"
    huge_det.write_text(json.dumps({
        "rank": 1,
        "generators": [[[-2, 0], [1, 0], [1.7e308, -1e308], [1, 0]]],
    }))
    code, out, err = run_cli(["rep-info", "--rep", str(huge_det)])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "DeterminantError"

    # json.loads reads Infinity, and the reader holds every [re, im] pair to
    # the constructors' number rule
    infinite = tmp_path / "infinite.json"
    infinite.write_text('{"rank": 1, "generators": [[[Infinity, 0], [0, 0], [0, 0], [1, 0]]]}')
    code, out, err = run_cli(["rep-info", "--rep", str(infinite)])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ParseError"

    identity = [[1, 0], [0, 0], [0, 0], [1, 0]]
    malformed = [{"generators": []},  # no rank
                 {"rank": "2", "generators": [identity, identity]},
                 {"rank": 2, "generators": [identity]},
                 {"rank": 1, "generators": identity},
                 {"rank": 1, "generators": [identity[:3]]}]
    for k, doc in enumerate(malformed):
        path = tmp_path / ("malformed_%d.json" % k)
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["rep-info", "--rep", str(path)])
        assert code == 1 and out == "", doc
        assert json.loads(err)["error"] == "ParseError", doc

    code, _, err = run_cli(["primitive", "ab1"])
    assert code == 1
    assert json.loads(err)["error"] == "WordParseError"

    # a raster of more bytes than a buffer can hold is turned away by the
    # reader, before any pixel buffer is allocated
    huge_raster = tmp_path / "huge_raster.json"
    huge_raster.write_text(json.dumps({
        "kappa": [-2, 0], "fixed_x": [3, 0], "window": [[6, -1], [7, 0]],
        "width": 10000000000, "height": 10000000000,
    }))
    out_path = tmp_path / "huge.ppm"
    code, out, err = run_cli(["render", "--config", str(huge_raster), "--out", str(out_path)])
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "ParseError"
    assert not out_path.exists()

    # tiny_d: the image of the basepoint leaves the floats, 1/1e-320.  huge_d:
    # its first image (0, 1e-320) is a float, and the second power's entries,
    # 1e-320 and 1e320, are not.  The orbit probe needs those; the scan's
    # displacement bound does not
    for name, gen, error in (
            ("tiny_d", [[1e160, 0], [0, 0], [0, 0], [1e-160, 0]], "DegenerateAction"),
            ("huge_d", [[1e-160, 0], [0, 0], [0, 0], [1e160, 0]], "NonFiniteValue")):
        path = tmp_path / (name + ".json")
        other = [[2, 0], [1, 0], [1, 0], [1, 0]]
        path.write_text(json.dumps({"rank": 2, "generators": [gen, other]}))
        code, out, err = run_cli(["probe", "--rep", str(path), "--word", "a",
                                  "--periods", "2"])
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == error
        code, out, err = run_cli(["ps-scan", "--rep", str(path), "--max-len", "2"])
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["verdict"] == "NO_OBSTRUCTION" and doc["entries"]
        assert all(math.isfinite(e["trans_len"]) for e in doc["entries"])

    # a trace of 1e308 has a finite translation length, 2 ln(1e308)
    huge = tmp_path / "huge_trace.json"
    gen = [[1e308, 0], [0, 0], [0, 0], [1e-308, 0]]
    huge.write_text(json.dumps({"rank": 1, "generators": [gen]}))
    code, out, err = run_cli(["rep-info", "--rep", str(huge)])
    assert code == 0 and err == ""
    length = json.loads(out)["generators"][0]["translation_length"]
    assert abs(length - 2 * math.log(1e308)) <= 1e-12 * 1418.4

    # a trace of 1.5e308 (1 + i): sqrt(t - 2) * sqrt(t + 2) overflows, the
    # length 2 ln|lam| = 1419.90 does not
    past = tmp_path / "past_trace.json"
    gen = [[1.5e308, 1.5e308], [0, 0], [0, 0], [3.333333333333336e-309, -3.333333333333336e-309]]
    past.write_text(json.dumps({"rank": 1, "generators": [gen]}))
    code, out, err = run_cli(["rep-info", "--rep", str(past)])
    assert code == 0 and err == ""
    length = json.loads(out)["generators"][0]["translation_length"]
    want = 2 * (math.log(1.5e308) + 0.5 * math.log(2))
    assert abs(length - want) <= 1e-12 * want and abs(length - 1419.90) < 0.01


def test_non_finite_results_are_refused_before_output():
    with pytest.raises(NonFiniteValue):
        cli._emit({"x": math.inf})


def test_usage_errors_exit_two():
    for argv in (["enumerate", "--rank", "2"], [], ["no-such-command"], ["--rank", "2"]):
        code, out, err = run_cli(argv)
        assert code == 2 and out == "", argv
        assert err.startswith("usage: primstab ")


# two values of each flag of the command table
VALUES = {"--rank": ("3", "2"), "--max-len": ("0", "2"), "--rep": ("a.json", "rep.json"),
          "--word": ("a", "ab"), "--periods": ("5", "2"), "--basepoint": ("-1,2,3", "0,0,1"),
          "--x": ("-1e5", "3"), "--y": ("0.5,1.2", "3"), "--z": ("-1,2", "3"),
          "--budget": ("0", "10"), "--small-trace-bound": ("1", "64"),
          "--config": ("c.json", "d.json"), "--out": ("o.ppm", "p.ppm"), "--threads": ("2", "1")}


def command_line(name, skip=None):
    """A command line of subcommand ``name``: the word ``ab`` if it takes one,
    and each flag but ``skip`` with its last value in VALUES."""
    _, _, word, flags = cli.COMMANDS[name]
    argv = [name] + (["ab"] if word else [])
    for flag, *_ in flags:
        if flag != skip:
            argv += [flag, VALUES[flag][1]]
    return argv


def test_help_names_every_subcommand_and_flag():
    argvs = [[h] for h in cli.HELP] + [
        argv + [h] for name in cli.COMMANDS for argv in ([name], command_line(name))
        for h in cli.HELP]
    for argv in argvs:
        code, out, err = run_cli(argv)
        assert code == 0 and err == "", argv
        names = cli.COMMANDS if len(argv) == 1 else [argv[0]]
        assert out.startswith("usage: primstab ")
        for name in names:
            assert "primstab " + name in out
            for flag, *_ in cli.COMMANDS[name][3]:
                assert flag in out


@pytest.mark.parametrize("name", cli.COMMANDS)
def test_malformed_command_lines_are_usage_errors(name):
    _, _, word, flags = cli.COMMANDS[name]
    argvs = [command_line(name) + ["--no-such-flag", "1"], command_line(name) + ["-1"]]
    if word:
        argvs += [command_line(name)[:1] + command_line(name)[2:],  # no word
                  command_line(name) + ["ba"]]  # two words
    for flag, _, default, _ in flags:
        others = command_line(name, skip=flag)
        argvs.append(others + [flag])  # no value
        if default is cli.REQUIRED:
            argvs.append(others)
        if len(flag) > len("--x"):
            argvs.append(others + [flag[:-1], VALUES[flag][1]])  # abbreviated
    for argv in argvs:
        code, out, err = run_cli(argv)
        assert code == 2 and out == "", argv
        assert err.startswith("usage: primstab %s" % (name,)), argv
        assert "Traceback" not in err


@pytest.mark.parametrize("name", cli.COMMANDS)
def test_flag_forms_and_the_last_value(name):
    # --flag value and --flag=value read the same; of a repeated flag the
    # last value counts, even one that begins with '-'
    func, _, _, flags = cli.COMMANDS[name]
    assert cli.parse_args(command_line(name)).func is func
    for flag, convert, _, _ in flags:
        first, last = VALUES[flag]
        others = command_line(name, skip=flag)
        want = convert(last)
        assert convert(first) != want
        for argv in (others + [flag, last], others + [flag + "=" + last],
                     [name, flag, first] + others[1:] + [flag, last],
                     [name, flag + "=" + first] + others[1:] + [flag + "=" + last]):
            assert getattr(cli.parse_args(argv), cli._dest(flag)) == want, argv


def test_missing_file_is_domain_error(tmp_path):
    code, _, err = run_cli(["rep-info", "--rep", str(tmp_path / "nope.json")])
    assert code == 1
    assert json.loads(err)["error"] == "OSError"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--rank", "3", "--max-len", "6"],
    ["enumerate", "--rank", "4", "--max-len", "5"],
    # the rank-3 scan walks the cached plan of those classes
    ["ps-scan", "--rep", "{rep3}", "--max-len", "5"]],
    ids=["enumerate-rank3", "enumerate-rank4", "ps-scan-rank3"])
def test_output_does_not_depend_on_the_hash_seed(monkeypatch, tmp_path, argv):
    # the enumeration keeps its classes in a dict of byte strings, whose
    # building order follows the per-process string hash; the printed
    # classes are sorted, so two hash seeds must print the same bytes
    argv = [a.format(rep3=write_rep(tmp_path, REP3)) for a in argv]
    outputs = []
    for seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        proc = run_python("-m", "primstab", *argv)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_identical_invocations_produce_identical_output(tmp_path):
    path = write_rep(tmp_path, SCHOTTKY)
    outputs = set()
    for _ in range(2):
        code, out, _ = run_cli(["ps-scan", "--rep", path, "--max-len", "3"])
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
