import cmath
import math
import os
import signal
import sys

import pytest

import primstab as ps
from primstab import render
from primstab.errors import ParseError

from helpers import assert_bq_verdict_agrees_with_slopes


def one_pixel_config(fixed_x, z_center=3.0, **kwargs):
    window = (complex(z_center - 0.5, -0.5), complex(z_center + 0.5, 0.5))
    return ps.SliceConfig(kappa=-2, fixed_x=fixed_x, window=window,
                          width=1, height=1, **kwargs)


def test_certified_pixel_color():
    # pixel center z=3 with fixed_x=3 and the smaller root picks (3,3,3)
    cfg = one_pixel_config(3.0)
    verdict = ps.pixel_verdict(cfg, ps.pixel_trace(cfg, 0, 0))
    assert verdict.kind == ps.BqKind.BQ_CERTIFIED
    image = ps.render_slice(cfg)
    assert image == b"P6\n1 1\n255\n" + bytes((255, 255, 255))


def test_not_bq_pixel_color():
    cfg = one_pixel_config(1.0)
    image = ps.render_slice(cfg)
    assert image == b"P6\n1 1\n255\n" + bytes((80, 0, 0))


def test_inconclusive_pixel_color():
    cfg = one_pixel_config(3.0, budget=2)  # too little budget to decide
    image = ps.render_slice(cfg)
    assert image == b"P6\n1 1\n255\n" + bytes((0, 0, 96))


def test_palette_shading_follows_node_count():
    assert ps.palette_color(ps.BqVerdict(ps.BqKind.BQ_CERTIFIED, 6, (), 1)) == (255, 255, 255)
    assert ps.palette_color(ps.BqVerdict(ps.BqKind.BQ_CERTIFIED, 64, (), 3)) == (253, 253, 253)
    assert ps.palette_color(ps.BqVerdict(ps.BqKind.BQ_CERTIFIED, 10 ** 6, (), 3)) == (64, 64, 64)
    witness = (((0, 1), 1 + 0j),)
    assert ps.palette_color(
        ps.BqVerdict(ps.BqKind.NOT_BQ_WITNESS, 1, witness, 0, witness)
    ) == (80, 0, 0)
    assert ps.palette_color(ps.BqVerdict(ps.BqKind.INCONCLUSIVE, 5, (), 2)) == (0, 0, 96)


def test_pixel_grid_geometry():
    cfg = ps.SliceConfig(kappa=-2, fixed_x=3, window=(complex(0, -3), complex(6, 3)),
                         width=4, height=4)
    # top-left pixel center
    assert ps.pixel_trace(cfg, 0, 0) == complex(0.75, 2.25)
    # bottom-right pixel center
    assert ps.pixel_trace(cfg, 3, 3) == complex(5.25, -2.25)


def test_a_gray_pixel_certifies_its_centre_not_its_box():
    # two certified pixels of the criterion-9 slice whose closed boxes hold a
    # Gaussian-integer character with a parabolic primitive: a verdict is the
    # centre's alone
    cfg = ps.SliceConfig(kappa=-2, fixed_x=3, window=(complex(0, -3), complex(6, 3)),
                         width=64, height=64)
    step = 6 / 64
    for (i, j), centre, nodes, z, y, witness in (
            ((21, 32), 2.015625 - 0.046875j, 9, 2, 3 + 2j, ((1, 1), 2)),  # ab parabolic
            ((32, 53), 3.046875 - 2.015625j, 10, 3 - 2j, 2, ((1, 0), 2))):  # b parabolic
        assert ps.pixel_trace(cfg, i, j) == centre
        verdict = ps.pixel_verdict(cfg, centre)
        assert (verdict.kind, verdict.nodes_explored) == (ps.BqKind.BQ_CERTIFIED, nodes)
        assert ps.palette_color(verdict) == (255, 255, 255)
        assert abs(z.real - centre.real) <= step / 2 and abs(z.imag - centre.imag) <= step / 2
        exact = ps.bq_decide(ps.MarkoffTriple(3, y, z), cfg.budget)
        assert ps.pixel_verdict(cfg, z) == exact
        assert exact.kind == ps.BqKind.NOT_BQ_WITNESS and exact.witnesses == (witness,)
    # the seam of the one root rule: at z = 2 both roots have modulus sqrt(13),
    # the other one is witnessed too, and the slice takes the plus root
    plus, minus = ps.solve_y_from_fricke(3, 2, -2)
    assert (plus, minus) == (3 + 2j, 3 - 2j) and abs(plus) == abs(minus)
    other = ps.bq_decide(ps.MarkoffTriple(3, minus, 2), 20000)
    assert other.kind == ps.BqKind.NOT_BQ_WITNESS and other.witnesses == (((1, 1), 2),)


def test_render_is_deterministic_and_thread_independent():
    cfg = ps.SliceConfig(kappa=-2, fixed_x=3, window=(complex(0, -3), complex(6, 3)),
                         width=8, height=8, budget=3000)
    first = ps.render_slice(cfg, 1)
    second = ps.render_slice(cfg, 1)
    parallel = ps.render_slice(cfg, 4)
    assert first == second == parallel
    assert first.startswith(b"P6\n8 8\n255\n")
    assert len(first) == len(b"P6\n8 8\n255\n") + 3 * 64


def with_cpus(monkeypatch, cpus):
    """Make ``os.sched_getaffinity`` name the CPU set ``cpus``, here or where
    the OS has no affinity calls."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


class InProcessForks:
    """A stand-in for ``render._forked_draw``: records worker counts, draws in process."""

    def __init__(self):
        self.pools = []

    def __call__(self, cfg, cpus, buf):
        self.pools.append(len(cpus))
        render._draw(cfg, range(cfg.height), buf)


def forked_draws(monkeypatch):
    """Record the CPU list of each call of the real ``render._forked_draw``."""
    calls = []
    forked_draw = render._forked_draw

    def spy(cfg, cpus, buf):
        calls.append(list(cpus))
        forked_draw(cfg, cpus, buf)

    monkeypatch.setattr(render, "_forked_draw", spy)
    return calls


@pytest.mark.parametrize("cpus, threads, pools", [
    (3, 100000, [3]),
    (3, None, [3]),
    (3, 2, [2]),
    (16, 100000, [4]),  # one worker per row
    (1, 100000, []),  # serial
    (3, 1, []),
    (1, None, []),  # one CPU: no fork at all
])
def test_render_pool_is_capped_at_the_cpu_count(monkeypatch, cpus, threads, pools):
    cfg = ps.SliceConfig(kappa=-2, fixed_x=3, window=(complex(0, -3), complex(6, 3)),
                         width=3, height=4, budget=300)
    serial = ps.render_slice(cfg, 1)
    forks = InProcessForks()
    monkeypatch.setattr(render, "_forked_draw", forks)
    with_cpus(monkeypatch, range(cpus))
    assert ps.render_slice(cfg, threads) == serial
    assert forks.pools == pools


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_workers_are_capped_by_the_real_cpu_set(monkeypatch):
    # on a one-CPU set, as under taskset -c 0, nothing forks
    cfg = ps.SliceConfig(kappa=-2, fixed_x=3, window=(complex(0, -3), complex(6, 3)),
                         width=3, height=4, budget=300)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus, cfg.height)
    forks = InProcessForks()
    monkeypatch.setattr(render, "_forked_draw", forks)
    ps.render_slice(cfg, None)
    assert forks.pools == ([workers] if workers > 1 else [])


class PixelFailure(Exception):
    pass


def failing_in(monkeypatch, fail):
    """Patch ``pixel_verdict`` to call ``fail(z)`` first on the pixel of row 1, column 0."""
    cfg = ps.SliceConfig(kappa=-2, fixed_x=3, window=(complex(0, -3), complex(6, 3)),
                         width=3, height=4, budget=300)
    original = render.pixel_verdict
    target = ps.pixel_trace(cfg, 0, 1)

    def pixel(cfg, z):
        if z == target:
            fail(z)
        return original(cfg, z)

    serial = ps.render_slice(cfg, 1)
    monkeypatch.setattr(render, "pixel_verdict", pixel)
    with_cpus(monkeypatch, range(2))
    return cfg, serial


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failing_pixel_raises_its_own_exception_and_leaves_no_child(monkeypatch):
    def fail(z):
        raise PixelFailure("no verdict at %r" % (z,))

    cfg, _ = failing_in(monkeypatch, fail)
    with pytest.raises(PixelFailure, match=r"^no verdict at \(1\+0\.75j\)$"):
        ps.render_slice(cfg, 2)
    assert_no_child_left()


def test_a_pixel_failing_in_a_child_only_is_drawn_again_in_the_caller(monkeypatch):
    parent = os.getpid()

    def fail(z):
        if os.getpid() != parent:
            raise PixelFailure("in a child")

    cfg, serial = failing_in(monkeypatch, fail)
    assert ps.render_slice(cfg, 2) == serial
    assert_no_child_left()


def test_a_killed_child_does_not_change_the_bytes(monkeypatch):
    parent = os.getpid()

    def fail(z):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    cfg, serial = failing_in(monkeypatch, fail)
    assert ps.render_slice(cfg, 2) == serial
    assert_no_child_left()


def test_render_rejects_fewer_than_one_thread():
    cfg = ps.SliceConfig(kappa=-2, fixed_x=3, window=(0j, complex(6, 3)), width=1, height=1)
    for threads in (0, -3, 1.5, 2.0, True, "2"):
        with pytest.raises(ValueError):
            ps.render_slice(cfg, threads)


@pytest.mark.parametrize("cpus, height", [(2, 5), (3, 7)])
def test_unequal_row_shares_give_the_serial_bytes(monkeypatch, cpus, height):
    cfg = ps.SliceConfig(kappa=-2, fixed_x=3, window=(complex(0, -3), complex(6, 3)),
                         width=3, height=height, budget=300)
    serial = ps.render_slice(cfg, 1)
    forks = forked_draws(monkeypatch)
    with_cpus(monkeypatch, range(cpus))
    assert ps.render_slice(cfg, cpus) == serial
    assert forks == [list(range(cpus))]
    assert_no_child_left()


def test_a_failing_second_fork_raises_and_leaves_no_child(monkeypatch):
    cfg = ps.SliceConfig(kappa=-2, fixed_x=3, window=(complex(0, -3), complex(6, 3)),
                         width=3, height=4, budget=300)
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise OSError("no second child")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    with_cpus(monkeypatch, range(2))
    with pytest.raises(OSError, match="^no second child$"):
        ps.render_slice(cfg, 2)
    assert len(forks) == 2
    assert_no_child_left()


def caller_draws(monkeypatch):
    """Count the rows the calling process draws itself: a spy on ``render._draw``
    whose list a forked child's calls never reach."""
    rows = []
    draw = render._draw

    def spy(cfg, share, buf):
        rows.extend(share)
        draw(cfg, share, buf)

    monkeypatch.setattr(render, "_draw", spy)
    return rows


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_each_child_asks_for_its_own_cpu(monkeypatch, tmp_path):
    cfg = ps.SliceConfig(kappa=-2, fixed_x=3, window=(complex(0, -3), complex(6, 3)),
                         width=3, height=4, budget=300)
    serial = ps.render_slice(cfg, 1)
    log = tmp_path / "calls"
    draw = render._draw

    def note(line):
        with open(log, "a") as out:
            out.write("%d %s\n" % (os.getpid(), line))

    def place(pid, cpus):
        note("cpu %s" % sorted(cpus))

    def first_row(cfg, share, buf):
        note("row %d" % share[0])
        draw(cfg, share, buf)

    with_cpus(monkeypatch, (7, 3, 5))
    monkeypatch.setattr(os, "sched_setaffinity", place, raising=False)
    monkeypatch.setattr(render, "_draw", first_row)
    assert ps.render_slice(cfg, None) == serial
    assert_no_child_left()
    calls = {}
    for line in log.read_text().splitlines():
        pid, what = line.split(" ", 1)
        calls.setdefault(pid, []).append(what)
    # child k draws from row k, and first asks for the k-th CPU of the sorted set
    assert sorted(calls.values()) == [["cpu [3]", "row 0"], ["cpu [5]", "row 1"],
                                      ["cpu [7]", "row 2"]]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or not hasattr(os, "fork"),
                    reason="no CPU placement or no os.fork")
def test_a_child_that_cannot_be_placed_still_draws_its_rows(monkeypatch, tmp_path):
    cfg = ps.SliceConfig(kappa=-2, fixed_x=3, window=(complex(0, -3), complex(6, 3)),
                         width=3, height=4, budget=300)
    serial = ps.render_slice(cfg, 1)
    log = tmp_path / "refused"
    place = os.sched_setaffinity

    def refused(pid, cpus):
        try:
            place(pid, cpus)
        except OSError:
            with open(log, "a") as out:
                out.write("%s\n" % sorted(cpus))
            raise

    # the second CPU is one no host has, so the real call refuses it
    with_cpus(monkeypatch, (min(os.sched_getaffinity(0)), 1 << 20))
    monkeypatch.setattr(os, "sched_setaffinity", refused)
    drawn = caller_draws(monkeypatch)
    assert ps.render_slice(cfg, 2) == serial
    assert log.read_text() == "[%d]\n" % (1 << 20)
    assert drawn == []
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_without_affinity_calls_workers_follow_the_cpu_count(monkeypatch):
    cfg = ps.SliceConfig(kappa=-2, fixed_x=3, window=(complex(0, -3), complex(6, 3)),
                         width=3, height=4, budget=300)
    serial = ps.render_slice(cfg, 1)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    forks = forked_draws(monkeypatch)
    drawn = caller_draws(monkeypatch)
    assert ps.render_slice(cfg, None) == serial
    assert forks == [[0, 1, 2]]
    assert drawn == []  # each unplaced child still drew its rows and exited 0
    assert_no_child_left()


def test_render_has_multiple_colors_on_a_mixed_window():
    cfg = ps.SliceConfig(kappa=-2, fixed_x=3, window=(complex(0, -3), complex(6, 3)),
                         width=8, height=8, budget=3000)
    data = ps.render_slice(cfg, 2)
    body = data[len(b"P6\n8 8\n255\n"):]
    colors = {tuple(body[3 * k:3 * k + 3]) for k in range(64)}
    assert len(colors) >= 2


def test_config_json_round_trip():
    cfg = ps.SliceConfig(kappa=complex(-2, 0.5), fixed_x=complex(3, -1),
                         window=(complex(0, -3), complex(6, 3)),
                         width=32, height=16, budget=1234, small_trace_bound=7)
    back = ps.slice_config_from_json(ps.slice_config_to_json(cfg))
    assert back == cfg


def test_config_json_errors():
    good = ps.slice_config_to_json(
        ps.SliceConfig(kappa=-2, fixed_x=3, window=(0j, complex(6, 3)), width=2, height=2)
    )
    for key in ("kappa", "fixed_x", "window", "width", "height"):
        bad = dict(good)
        del bad[key]
        with pytest.raises(ParseError):
            ps.slice_config_from_json(bad)
    assert "root" not in good
    assert ps.slice_config_from_json(dict(good, root="smaller")) == ps.slice_config_from_json(good)
    for root in ("larger", "other", None):
        with pytest.raises(ParseError, match="smaller"):
            ps.slice_config_from_json(dict(good, root=root))
    bad = dict(good)
    bad["width"] = 1.5
    with pytest.raises(ParseError):
        ps.slice_config_from_json(bad)
    # the reader turns away a raster of more than sys.maxsize bytes, 3 per
    # pixel, and reads one at that edge; the value type takes any grid, and
    # its pixel traces stay finite (nothing here is rendered)
    edge = dict(good, width=sys.maxsize // 3, height=1)
    assert ps.slice_config_from_json(edge).width == sys.maxsize // 3
    for width, height in ((sys.maxsize // 3 + 1, 1), (10 ** 10, 10 ** 10)):
        with pytest.raises(ParseError, match="raster"):
            ps.slice_config_from_json(dict(good, width=width, height=height))
        cfg = ps.SliceConfig(kappa=-2, fixed_x=3, window=(0j, complex(6, 3)),
                             width=width, height=height)
        assert cmath.isfinite(ps.pixel_trace(cfg, width - 1, height - 1))


def test_config_rejects_unknown_keys():
    good = ps.slice_config_to_json(
        ps.SliceConfig(kappa=-2, fixed_x=3, window=(0j, complex(6, 3)), width=2, height=2)
    )
    for key, value in (("delta", 1e-4), ("tol", 1e-7), ("colour", "red")):
        with pytest.raises(ParseError, match=key):
            ps.slice_config_from_json({**good, key: value})


def test_config_rejects_negative_small_trace_bound():
    with pytest.raises(ValueError):
        ps.SliceConfig(kappa=-2, fixed_x=3, window=(0j, 1j), width=1, height=1,
                       small_trace_bound=-1)
    good = ps.slice_config_to_json(
        ps.SliceConfig(kappa=-2, fixed_x=3, window=(0j, complex(6, 3)), width=2, height=2)
    )
    with pytest.raises(ParseError):
        ps.slice_config_from_json({**good, "small_trace_bound": -1})


def test_config_rejects_non_finite_values():
    good = ps.slice_config_to_json(
        ps.SliceConfig(kappa=-2, fixed_x=3, window=(0j, complex(6, 3)), width=2, height=2)
    )
    # the last window has finite corners but an extent past the float range
    for key, value in (("fixed_x", [math.nan, 0]), ("kappa", [math.inf, 0]),
                       ("window", [[-1.7e308, 0], [1.7e308, 0]])):
        with pytest.raises(ParseError, match="not finite"):
            ps.slice_config_from_json({**good, key: value})


def test_config_validation():
    for bad in ({"width": 0}, {"budget": -1}, {"width": 2.5}, {"width": True},
                {"budget": 1.5}, {"small_trace_bound": False}):
        with pytest.raises(ValueError):
            ps.SliceConfig(**{"kappa": -2, "fixed_x": 3, "window": (0j, 1j), "width": 1,
                              "height": 1, **bad})


def test_criterion_9_slice_is_decided_and_agrees_with_brute_force():
    # a 16x16 grid over the criterion-9 window; the fans around small
    # regions are pruned, so no pixel runs out of budget
    cfg = ps.SliceConfig(kappa=-2, fixed_x=3, window=(complex(0, -3), complex(6, 3)),
                         width=16, height=16, budget=20000)
    kinds = {kind: 0 for kind in ps.BqKind}
    for j in range(cfg.height):
        for i in range(cfg.width):
            z = ps.pixel_trace(cfg, i, j)
            verdict = ps.pixel_verdict(cfg, z)
            kinds[verdict.kind] += 1
            plus, minus = ps.solve_y_from_fricke(cfg.fixed_x, z, cfg.kappa)
            y = plus if abs(plus) <= abs(minus) else minus
            t = ps.MarkoffTriple(cfg.fixed_x, y, z)
            assert_bq_verdict_agrees_with_slopes(t, verdict, 25)
    assert kinds[ps.BqKind.INCONCLUSIVE] == 0
    assert kinds[ps.BqKind.BQ_CERTIFIED] > 0
