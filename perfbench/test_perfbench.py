"""Self-tests of the benchmark.

Run from the root of a checkout:
``python3 -m pytest -q perfbench/test_perfbench.py``.
"""

import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import pytest  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import SpanTracer, install_layers  # noqa: E402

TINY = wl.BoardWorkload(name="tiny", targets=("pokos",),
                        budget_cycles=150_000, session_s=1.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _wrapped_attributes():
    """Every class/module attribute a traced run may have replaced."""
    found = []
    modules = [m for name, m in sys.modules.items()
               if name.startswith("repro") and m is not None]
    for module in modules:
        for owner in [module] + [v for v in vars(module).values()
                                 if isinstance(v, type)]:
            for attr, value in list(vars(owner).items()):
                if getattr(value, "__wrapped_by_perfbench__", False):
                    found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found


def test_wrappers_are_removed_after_a_traced_pass(tmp_path):
    from repro.fuzz import engine as engine_mod
    from repro.hw.memory import Flash, MemoryRegion
    from repro.instrument.sancov import SancovTracer
    before = (MemoryRegion.__dict__["read"], Flash.__dict__["write"],
              SancovTracer.__dict__["hit"],
              engine_mod.decode_coverage_buffer)
    tracer = SpanTracer("self-test")
    install_layers(tracer)
    assert tracer.installed > 0
    assert MemoryRegion.__dict__["read"] is not before[0]
    try:
        wl.run_pass(TINY, 3, 1, str(tmp_path), tracer=tracer)
    finally:
        tracer.uninstall()
    after = (MemoryRegion.__dict__["read"], Flash.__dict__["write"],
             SancovTracer.__dict__["hit"],
             engine_mod.decode_coverage_buffer)
    assert after == before
    assert tracer.installed == 0
    assert _wrapped_attributes() == []
    assert tracer.self_s["hw.memory"] > 0
    assert tracer.counts["instrument.tracer.hits"] > 0


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = SpanTracer("tree", clock=clock)
    # a [0, 10] > b [1, 4] > c [2, 3];  a > d [5, 9]
    with tracer.span("a"):
        clock.now = 1.0
        with tracer.span("b"):
            clock.now = 2.0
            with tracer.span("c"):
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 5.0
        with tracer.span("d"):
            clock.now = 9.0
        clock.now = 10.0
    assert tracer.self_s == pytest.approx({"a": 3.0, "b": 2.0, "c": 1.0,
                                           "d": 4.0})
    assert tracer.span_s["a"] == pytest.approx(10.0)
    by_name = {span[2]: span for span in tracer.spans}
    assert by_name["a"][1] == 0
    assert by_name["b"][1] == by_name["a"][0]
    assert by_name["c"][1] == by_name["b"][0]
    assert by_name["d"][1] == by_name["a"][0]


def test_same_layer_reentry_is_one_span():
    clock = FakeClock()
    tracer = SpanTracer("reentry", clock=clock)

    class Box:
        def outer(self):
            clock.now += 1.0
            return self.inner() + 1

        def inner(self):
            clock.now += 2.0
            return 1

    tracer.wrap(Box, "outer", "layer", lambda _o, _r: {"layer.calls": 1})
    tracer.wrap(Box, "inner", "layer", lambda _o, _r: {"layer.calls": 1})
    try:
        assert Box().outer() == 2
    finally:
        tracer.uninstall()
    assert tracer.counts["layer.calls"] == 1
    assert tracer.self_s["layer"] == pytest.approx(3.0)
    assert len(tracer.spans) == 1


def test_digest_check_fails_on_a_different_seed(tmp_path):
    m = wl.run_pass(TINY, 5, 1, str(tmp_path))
    assert wl.check_replay(TINY, 5, str(tmp_path), m,
                           wl.Measurements()) == []
    problems = wl.check_replay(TINY, 6, str(tmp_path), m, wl.Measurements())
    assert len(problems) == len(TINY.targets)
    assert "digest" in problems[0]


def test_pooled_pass_leaves_no_child_process(tmp_path):
    m = wl.run_pass(TINY, 3, 2, str(tmp_path), processes=2)
    assert len(m.digests) == 2 and m.failures == []
    wl.stop_resource_tracker()
    # No child left, running or unreaped: pool workers and the resource
    # tracker the spawn pool started have all been waited for.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz-5os",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
