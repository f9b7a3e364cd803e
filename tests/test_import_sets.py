"""Each CLI subcommand, run in a fresh interpreter, loads only the primstab
modules it runs; the rest are never imported, so never compiled.  Nor does
any load ``dataclasses`` or, through it, ``inspect``, nor ``argparse``,
``gettext`` or ``locale``, and a render on forked workers loads no
``multiprocessing``.  Help loads ``cli`` and ``errors`` alone.  The installed
``primstab`` console script prints one JSON object for each of the same
calls, and the same help."""

import functools
import json
import os
import shutil
import sys

import pytest

from helpers import REP, REP4, REP_ELLIPTIC, run_cli, run_python

SLICE = {"kappa": [-2, 0], "fixed_x": [3, 0], "window": [[6, -1], [7, 0]],
         "width": 4, "height": 4, "root": "smaller", "budget": 20000,
         "small_trace_bound": 64}

CLI = ["cli", "errors"]
SCAN = CLI + ["moebius", "stability", "traces", "whitehead", "words"]
EXPECTED = {
    "word": (["word", "abAB"], CLI + ["words"]),
    "primitive": (["primitive", "abAB"], CLI + ["whitehead", "words"]),
    "blocking": (["blocking", "abABabAB"], CLI + ["whitehead", "words"]),
    "enumerate": (["enumerate", "--rank", "2", "--max-len", "3"], CLI + ["whitehead", "words"]),
    "rep-info": (["rep-info", "--rep", "{rep}"], CLI + ["moebius", "traces", "words"]),
    "ps-scan": (["ps-scan", "--rep", "{rep}", "--max-len", "4"], SCAN),
    "ps-scan-rank4": (["ps-scan", "--rep", "{rep4}", "--max-len", "4"], SCAN),
    "ps-scan-elliptic": (["ps-scan", "--rep", "{elliptic}", "--max-len", "4"], SCAN),
    "probe": (["probe", "--rep", "{rep}", "--word", "ab", "--periods", "5",
               "--basepoint", "0,0,1"],
              CLI + ["moebius", "traces", "words"]),
    "bq-decide": (["bq-decide", "--x", "3", "--y", "3", "--z", "3", "--budget", "100"],
                  CLI + ["markoff", "traces", "words"]),
    "render": (["render", "--config", "{slice}", "--out", "{out}", "--threads", "1"],
               CLI + ["markoff", "render", "traces", "words"]),
    "help": (["--help"], CLI),
    "word-help": (["word", "--help"], CLI),
}

# run the CLI, then print the loaded primstab modules and the loaded modules
# of SLOW, each on a line of its own
SLOW = ("dataclasses", "inspect", "argparse", "gettext", "locale")
SHIM = ("import json, sys; from primstab.cli import run; code = run(sys.argv[1:]); "
        "print(sorted(m for m in sys.modules if m.startswith('primstab.'))); "
        "print(json.dumps([m for m in %r if m in sys.modules])); sys.exit(code)" % (SLOW,))


@functools.lru_cache(maxsize=None)
def banned():
    """Every module of SLOW but those this interpreter loads for ``import
    json`` alone, before any package code runs."""
    proc = run_python("-c", "import json, sys; print(json.dumps([m for m in %r "
                      "if m not in sys.modules]))" % (SLOW,))
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def arguments(sub, tmp_path):
    """The command line of EXPECTED[sub], with its documents written to tmp_path."""
    files = {"out": tmp_path / "out.ppm"}
    for name, doc in (("rep", REP), ("rep4", REP4), ("elliptic", REP_ELLIPTIC), ("slice", SLICE)):
        files[name] = tmp_path / (name + ".json")
        files[name].write_text(json.dumps(doc))
    return [a.format(**files) for a in EXPECTED[sub][0]]


def assert_printed(argv, out):
    """One JSON object on one line; for ``--help``, the help ``cli.run`` prints."""
    if "--help" in argv:
        assert out == run_cli(argv)[1]
    else:
        result, = out.splitlines()
        assert isinstance(json.loads(result), dict)


@pytest.mark.parametrize("sub", EXPECTED)
def test_subcommand_loads_only_the_modules_it_runs(sub, tmp_path):
    modules = EXPECTED[sub][1]
    argv = arguments(sub, tmp_path)
    proc = run_python("-c", SHIM, *argv)
    assert proc.returncode == 0, proc.stderr
    out, loaded, slow = proc.stdout.rsplit("\n", 3)[:3]
    assert_printed(argv, out + "\n")
    assert loaded == str(["primstab." + m for m in sorted(modules)])
    assert not set(json.loads(slow)) & banned()


def test_forked_render_loads_no_multiprocessing(tmp_path):
    # two CPUs, so --threads 2 forks two workers whatever this host has
    config = tmp_path / "slice.json"
    config.write_text(json.dumps(SLICE))
    shim = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
            "from primstab.cli import run; "
            "code = run(sys.argv[1:]); print('multiprocessing' in sys.modules); sys.exit(code)")
    images = []
    for threads in ("1", "2"):
        out = tmp_path / ("threads%s.ppm" % threads)
        proc = run_python("-c", shim, "render", "--config", str(config), "--out", str(out),
                          "--threads", threads)
        assert proc.returncode == 0, proc.stderr
        result, loaded = proc.stdout.splitlines()
        assert isinstance(json.loads(result), dict) and loaded == "False"
        images.append(out.read_bytes())
    assert images[0] == images[1]


# the script pip writes for the package, looked up next to this interpreter
# only, so that an older install elsewhere on PATH is never what runs
SCRIPT = shutil.which("primstab", path=os.path.dirname(sys.executable))


@pytest.mark.skipif(SCRIPT is None, reason="no primstab console script is installed next to "
                    + sys.executable)
@pytest.mark.parametrize("sub", EXPECTED)
def test_console_script_prints_what_run_prints(sub, tmp_path):
    # the script is a Python file whose first line names this interpreter;
    # it reads the command line from sys.argv, through cli.main
    argv = arguments(sub, tmp_path)
    proc = run_python(SCRIPT, *argv)
    assert proc.returncode == 0, proc.stderr
    assert_printed(argv, proc.stdout)


def test_bare_import_loads_no_submodule():
    # a submodule attribute still works after the bare import, and loads it
    proc = run_python("-c", "import sys, primstab; loaded = lambda: "
                      "print(sorted(m for m in sys.modules if m.startswith('primstab'))); "
                      "loaded(); primstab.words.parse_word('ab'); loaded()")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['primstab']", "['primstab', 'primstab.errors', 'primstab.words']"]


def test_words_loads_neither_dataclasses_nor_inspect():
    proc = run_python("-c", "import sys, primstab.words; "
                      "print([m for m in %r if m in sys.modules])" % (SLOW,))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
