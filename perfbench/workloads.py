"""The four workloads.  Each builds its inputs from the seed, does a fixed
amount of work (``work``, the timed part), then checks what it got back
(``check``).  A traced round also runs ``layer_extras``, which adds the
per-layer numbers the spans alone do not give.

Library calls go through module attributes (``whitehead.is_primitive``,
not a name imported here) so that a traced round's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from primstab import cli, moebius, render, stability, whitehead, words

import checks
import cpus
import tracing


class Meter:
    """Operations attempted and failed in one round, and their latencies.

    A latency is keyed by the operation's place in the round, which names
    the same operation in every round of a run: the rounds of a run repeat
    the same work.  It leaves out the time the host probes took (cpus.py),
    and ``spans`` keeps when it ran, to scale it by the host's speed then.
    """

    MAX_REASONS = 5

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failures that were a wrong output rather than an exception
        self.op_s: dict[str, float] = {}
        self.spans: dict[str, tuple[float, float]] = {}
        self.reasons: list[str] = []

    def fail(self, count: int, reason: str, wrong: bool = False) -> None:
        self.failed += count
        if wrong:
            self.wrong += count
        if len(self.reasons) < self.MAX_REASONS:
            self.reasons.append(reason)

    def time(self, fn, *args):
        """One timed operation; an exception counts as a failed operation."""
        self.attempted += 1
        key = str(len(self.op_s))
        spent, start = cpus.spent_s, perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # the round goes on; the failure is counted
            self.fail(1, "%s: %s" % (type(exc).__name__, exc))
            return None
        finally:
            self.done(key, start, spent)

    def done(self, key: str, start: float, spent: float) -> None:
        """Record the operation that began at ``start``, when the host probes
        had taken ``spent`` seconds."""
        end = perf_counter()
        self.op_s[key] = end - start - (cpus.spent_s - spent)
        self.spans[key] = (start, end)


class Workload:
    """Defaults for what a workload reports besides its meter."""

    concurrency = 0  # children alive at once, for peak memory
    pool = False  # work forks a worker pool, so the host is probed only after it
    verdicts = 0  # operations that can end undecided
    undecided = 0

    def layer_extras(self, tracer, meter: Meter) -> dict:
        return {}


class BqSlice(Workload):
    """render_slice of the criterion-9 slice with 2 workers.

    Nearly all BQ work is spent on undecided interior pixels, so fan pruning
    in bq_decide and render scheduling show here while words, whitehead and
    moebius do nothing.  Every pixel is one operation; op latency is the
    per-pixel time of the serial check pass.
    """

    SIZE = 32
    WORKERS = 2
    LOWER, UPPER = complex(0.0, -3.0), complex(6.0, 3.0)
    JITTER = 0.1
    concurrency = WORKERS
    pool = True

    def __init__(self, seed: int, workdir: Path, tracer):
        rng = random.Random(seed)
        # shift the window by up to JITTER of a pixel: every pixel's trace
        # differs between seeds, while the undecided share moves by under 1%
        # (at half a pixel it moves by 3%, which swamps a 3% speed change)
        shift = complex(rng.uniform(-self.JITTER, self.JITTER) * (self.UPPER.real - self.LOWER.real),
                        rng.uniform(-self.JITTER, self.JITTER) * (self.UPPER.imag - self.LOWER.imag)
                        ) / self.SIZE
        self.cfg = render.SliceConfig(
            kappa=-2, fixed_x=3, window=(self.LOWER + shift, self.UPPER + shift),
            width=self.SIZE, height=self.SIZE, budget=20000, small_trace_bound=64)
        self.items = self.SIZE * self.SIZE
        self.tracer = tracer
        self.image = None

    def work(self, meter: Meter) -> None:
        meter.attempted += self.items
        try:
            self.image = render.render_slice(self.cfg, self.WORKERS)
        except Exception as exc:  # counted as every pixel failing
            meter.fail(self.items, "%s: %s" % (type(exc).__name__, exc))

    def check(self, meter: Meter) -> None:
        cfg = self.cfg
        header = b"P6\n%d %d\n255\n" % (cfg.width, cfg.height)
        if self.image is None:
            return
        if not self.image.startswith(header) or len(self.image) != len(header) + 3 * self.items:
            meter.fail(self.items, "render_slice returned a malformed PPM", wrong=True)
            return
        body = self.image[len(header):]
        differ = 0
        for y in range(cfg.height):
            for x in range(cfg.width):
                differ += self._serial_pixel(x, y, body, meter)
        if differ:
            meter.fail(differ, "%d pixels differ from the serial pass" % differ, wrong=True)

    def _serial_pixel(self, x: int, y: int, body: bytes, meter: Meter) -> bool:
        """Recompute one pixel; whether it differs from the rendered one."""
        k = y * self.cfg.width + x
        if self.tracer is not None:
            self.tracer.request = k
        spent, start = cpus.spent_s, perf_counter()
        try:
            verdict = render.pixel_verdict(self.cfg, render.pixel_trace(self.cfg, x, y))
            color = bytes(render.palette_color(verdict))
        except Exception as exc:  # this pixel fails; the pass goes on
            meter.fail(1, "serial pixel %d: %s: %s" % (k, type(exc).__name__, exc))
            return False
        finally:
            meter.done(str(k), start, spent)
        self.verdicts += 1
        self.undecided += verdict.kind == "INCONCLUSIVE"
        return body[3 * k:3 * k + 3] != color

    def layer_extras(self, tracer, meter: Meter) -> dict:
        rows = tracing.row_times(tracer, self.cfg.width)
        render_s = tracer.total("render.render_slice")
        if not rows or not render_s:  # the render layer was not reached by name
            return {}
        return {
            "render.slowest_row_s": max(rows),
            "render.row_imbalance": max(rows) / statistics.fmean(rows),
            "render.parallel_efficiency":
                tracer.total("render.pixel_verdict") / (self.WORKERS * render_s),
        }


def _blocking(text: str):
    return whitehead.blocking_certificate(words.parse_word(text, 2))


def _primitive(text: str):
    return whitehead.is_primitive(words.parse_word(text, 3))


class PrimitiveSweep(Workload):
    """Cold enumerations, then blocking certificates and primitivity queries.

    Whitehead moves and networkx do all the work; moebius and markoff none.
    The enumerations are memoised per process, so every round is a fresh
    interpreter and this round's calls are cold.
    """

    N_BLOCKING = 1000
    N_PRIMITIVE = 1000
    R2_MAX_LEN, R2_CLASSES = 12, 184
    R3_MAX_LEN, R3_CLASSES = 6, 2458

    def __init__(self, seed: int, workdir: Path, tracer):
        rng = random.Random(seed)
        self.blocking_letters = [checks.random_reduced_letters(rng, 2, 8)
                                 for _ in range(self.N_BLOCKING)]
        self.primitive_letters = [checks.random_reduced_letters(rng, 3, 10)
                                  for _ in range(self.N_PRIMITIVE)]
        self.blocking_text = [checks.ascii_word(w) for w in self.blocking_letters]
        self.primitive_text = [checks.ascii_word(w) for w in self.primitive_letters]
        self.items = 2 + self.N_BLOCKING + self.N_PRIMITIVE

    def work(self, meter: Meter) -> None:
        self.r2 = meter.time(whitehead.enumerate_primitive_classes, 2, self.R2_MAX_LEN)
        self.r3 = meter.time(whitehead.enumerate_primitive_classes, 3, self.R3_MAX_LEN)
        self.certificates = [meter.time(_blocking, text) for text in self.blocking_text]
        self.primitive = [meter.time(_primitive, text) for text in self.primitive_text]

    def check(self, meter: Meter) -> None:
        r2_ok = self.r2 is not None and len(self.r2) == self.R2_CLASSES and set(self.r2) == {
            whitehead.primitive_of_slope(p, q) for p, q in checks.coprime_slopes(self.R2_MAX_LEN)}
        if self.r2 is not None and not r2_ok:
            meter.fail(1, "rank-2 classes differ from the primitive_of_slope set", wrong=True)
        r3_ok = self.r3 is not None and len(self.r3) == self.R3_CLASSES
        if self.r3 is not None and not r3_ok:
            meter.fail(1, "rank-3 enumeration has %d classes" % len(self.r3), wrong=True)
        if r2_ok:
            # a certified word occurs in no cyclically reduced primitive word
            windows = checks.cyclic_windows([c.letters for c in self.r2], 8)
            for letters, cert in zip(self.blocking_letters, self.certificates):
                if cert is not None and cert.certified and letters in windows:
                    meter.fail(1, "certified %s occurs in a primitive class"
                               % checks.ascii_word(letters), wrong=True)
        if r3_ok:
            # words that shorten into the enumerated range must agree with it
            members = checks.rotations([c.letters for c in self.r3])
            for letters, answer in zip(self.primitive_letters, self.primitive):
                core = checks.cyclic_core(letters)
                if answer is not None and len(core) <= self.R3_MAX_LEN and answer != (core in members):
                    meter.fail(1, "is_primitive(%s) disagrees with the enumeration"
                               % checks.ascii_word(letters), wrong=True)

    def layer_extras(self, tracer, meter: Meter) -> dict:
        whitehead.enumerate_primitive_classes(2, self.R2_MAX_LEN)  # warm: a cache lookup
        for letters in self.primitive_letters:
            whitehead.whitehead_minimize(words.Word(3, letters))
        return {}


class SpectrumScan(Workload):
    """ps_scan over a seeded family of rank-2 representations, a few rank-3
    scans and short orbit probes.

    The enumeration is built cold once and then served from its cache, so
    word evaluation and classification do most of the work.  The rank-3
    scans keep evaluation in use even after a rank-2-only shortcut.
    """

    N_R2, R2_MAX_LEN, R2_CLASSES = 200, 10, 128
    N_R3, R3_MAX_LEN, R3_CLASSES = 3, 6, 2458
    N_PROBES, PERIODS = 20, 50
    N_CHECKED = 20

    def __init__(self, seed: int, workdir: Path, tracer):
        rng = random.Random(seed)
        self.r2_matrices = [[checks.random_sl2(rng) for _ in range(2)] for _ in range(self.N_R2)]
        self.r3_matrices = [[checks.random_sl2(rng) for _ in range(3)] for _ in range(self.N_R3)]
        self.r2 = [moebius.representation_from_json(checks.representation_doc(m))
                   for m in self.r2_matrices]
        self.r3 = [moebius.representation_from_json(checks.representation_doc(m))
                   for m in self.r3_matrices]
        self.probes = []
        for _ in range(self.N_PROBES):
            k = rng.randrange(self.N_R2)
            letters = checks.random_reduced_letters(rng, 2, rng.randint(1, 5))
            w = words.parse_word(checks.ascii_word(letters), 2)
            base = moebius.axis_point(moebius.evaluate(self.r2[k], w))
            self.probes.append((k, letters, w, base))
        self.checked = rng.sample(range(self.N_R2), self.N_CHECKED)
        self.items = self.N_R2 + self.N_R3 + self.N_PROBES

    def work(self, meter: Meter) -> None:
        self.r2_reports = [meter.time(stability.ps_scan, rep, self.R2_MAX_LEN) for rep in self.r2]
        self.r3_reports = [meter.time(stability.ps_scan, rep, self.R3_MAX_LEN) for rep in self.r3]
        self.slopes = [meter.time(stability.orbit_growth_probe, self.r2[k], w, self.PERIODS, base)
                       for k, _, w, base in self.probes]

    @staticmethod
    def _report_errors(matrices, report, classes: int) -> list[str]:
        """Compare each entry of a report with the product oracle's trace."""
        if len(report.entries) != classes:
            return ["%d entries, expected %d" % (len(report.entries), classes)]
        errors = []
        for e in report.entries:
            t, _ = checks.word_trace(matrices, e.cls.letters)
            if checks.is_loxodromic_trace(t) != (e.kind == "LOXODROMIC"):
                errors.append("%s is %s, trace %r" % (e.cls, e.kind.value, t))
                continue
            want = checks.translation_length_of_trace(t) if e.kind == "LOXODROMIC" else 0.0
            tol = checks.translation_length_tolerance(t)
            if abs(e.trans_len - want) > tol or abs(e.ratio - want / len(e.cls)) > tol / len(e.cls):
                errors.append("%s has translation length %r and ratio %r, the oracle %r"
                              % (e.cls, e.trans_len, e.ratio, want))
        return errors

    def check(self, meter: Meter) -> None:
        jobs = [(self.r2_matrices[k], self.r2_reports[k], self.R2_CLASSES) for k in self.checked]
        jobs += [(m, report, self.R3_CLASSES) for m, report in zip(self.r3_matrices, self.r3_reports)]
        for matrices, report, classes in jobs:
            if report is None:
                continue
            errors = self._report_errors(matrices, report, classes)
            if errors:
                meter.fail(1, "ps_scan: " + errors[0], wrong=True)
        for (k, letters, _, _), result in zip(self.probes, self.slopes):
            if result is None:
                continue
            want = checks.translation_length_of_trace(
                checks.word_trace(self.r2_matrices[k], letters)[0])
            if abs(result[0] - want) > 1e-3:
                meter.fail(1, "probe slope %r, translation length %r" % (result[0], want),
                           wrong=True)


SHIM = "import sys; from primstab.cli import run; sys.exit(run(sys.argv[1:]))"


def _importtime_us(stderr: str, module: str) -> int:
    """Cumulative import time of one module from ``python -X importtime`` output;
    0 when the module is not imported at all."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1])
    return 0


class CliOneshot(Workload):
    """Sequential fresh-interpreter CLI invocations, one client in a closed loop.

    Each invocation pays interpreter start and ``import primstab``; start-up
    changes show here and are lost in the noise of the other workloads.
    The CLI is launched through a ``python -c`` shim because the package has
    no ``__main__`` and the console script may not be installed.
    """

    PER_SUBCOMMAND = 4  # every round runs each subcommand this often, in seeded order
    REPS = 3
    concurrency = 1  # one CLI child at a time

    def __init__(self, seed: int, workdir: Path, tracer):
        rng = random.Random(seed)  # every round the same mix
        self.dir = workdir
        self.reps = []
        for k in range(self.REPS):
            path = workdir / ("rep%d.json" % k)
            doc = checks.representation_doc([checks.random_sl2(rng) for _ in range(2)])
            path.write_text(json.dumps(doc))
            self.reps.append(str(path))
        # far from the BQ boundary: every pixel certifies within a few nodes
        self.slice = workdir / "tiny_slice.json"
        self.slice.write_text(json.dumps({
            "kappa": [-2, 0], "fixed_x": [3, 0], "window": [[6, -1], [7, 0]],
            "width": 4, "height": 4, "root": "smaller", "budget": 20000,
            "small_trace_bound": 64}))
        self.argvs = [self._argv(rng, sub)
                      for sub in tracing.CLI_SUBCOMMANDS * self.PER_SUBCOMMAND]
        rng.shuffle(self.argvs)
        self.samples = {sub: self._argv(rng, sub) for sub in tracing.CLI_SUBCOMMANDS}
        self.items = len(self.argvs)

    def _argv(self, rng, sub: str) -> list[str]:
        def word(rank, lo, hi):
            return checks.ascii_word(checks.random_reduced_letters(rng, rank, rng.randint(lo, hi)))

        rep = rng.choice(self.reps)
        if sub == "word":
            return [sub, word(3, 4, 12)]
        if sub == "primitive":
            return [sub, word(3, 4, 10), "--rank", "3"]
        if sub == "blocking":
            return [sub, word(2, 8, 8), "--rank", "2"]
        if sub == "enumerate":
            return [sub, "--rank", "2", "--max-len", "6"]
        if sub == "rep-info":
            return [sub, "--rep", rep]
        if sub == "ps-scan":
            return [sub, "--rep", rep, "--max-len", "6"]
        if sub == "probe":
            return [sub, "--rep", rep, "--word", word(2, 1, 5), "--periods", "50"]
        if sub == "bq-decide":
            x, y, z = (repr(rng.uniform(3.0, 5.0)) for _ in range(3))
            return [sub, "--x", x, "--y", y, "--z", z, "--budget", "20000"]
        return [sub, "--config", str(self.slice), "--out", str(self.dir / "tiny.ppm"),
                "--threads", "1"]

    def _invoke(self, argv):
        return subprocess.run([sys.executable, "-c", SHIM, *argv], cwd=self.dir,
                              capture_output=True, text=True, timeout=60)

    def work(self, meter: Meter) -> None:
        self.results = [meter.time(self._invoke, argv) for argv in self.argvs]

    def check(self, meter: Meter) -> None:
        for argv, proc in zip(self.argvs, self.results):
            if proc is None:
                continue
            if proc.returncode != 0 or not checks.strict_json_object(proc.stdout):
                meter.fail(1, "%s exited %d: %s" % (" ".join(argv), proc.returncode,
                                                     (proc.stderr or proc.stdout)[-200:]),
                           wrong=True)

    def _median_ms(self, cmd, repeat: int = 3) -> float:
        times = []
        for _ in range(repeat):
            start = perf_counter()
            subprocess.run(cmd, cwd=self.dir, capture_output=True, check=True, timeout=60)
            times.append(perf_counter() - start)
        return statistics.median(times) * 1e3

    def layer_extras(self, tracer, meter: Meter) -> dict:
        out = {"cli.interp_start_ms": self._median_ms([sys.executable, "-c", "pass"])}
        imports, networkx = [], []
        for _ in range(3):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import primstab"],
                                  cwd=self.dir, capture_output=True, text=True, check=True,
                                  timeout=60)
            imports.append(_importtime_us(proc.stderr, "primstab") / 1e3)
            networkx.append(_importtime_us(proc.stderr, "networkx") / 1e3)
        out["cli.import_ms"] = statistics.median(imports)
        out["cli.import_networkx_ms"] = statistics.median(networkx)
        for sub, argv in self.samples.items():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = perf_counter()
                cli.run(argv)
                out["cli.run_ms." + sub] = (perf_counter() - start) * 1e3
        invoke_ms = statistics.median(meter.op_s.values()) * 1e3
        out["cli.startup_share"] = (out["cli.interp_start_ms"] + out["cli.import_ms"]) / invoke_ms
        return out


WORKLOADS = {
    "bq_slice": BqSlice,
    "primitive_sweep": PrimitiveSweep,
    "spectrum_scan": SpectrumScan,
    "cli_oneshot": CliOneshot,
}
