"""The benchmark's workloads and the measurements taken while they run.

A run fuzzes a fixed list of independent *sessions*.  Session ``i`` of a
run at ``--seed s`` uses the engine seed ``session_seed(workload, s, i)``,
so the same seed always gives the same inputs.  A single-board session
builds, boots and fuzzes each of the workload's targets once, one after
another, at a fixed virtual-cycle budget; a campaign session is one
multi-board campaign.  One fuzzing trajectory is a poor sample of host
speed (its program mix, crash count and corpus drift with the seed), so a
run pools many short sessions.

Each attempted program is timed on its own: the loop steps the engine
with ``run_until(min(cycles + 1, budget))``, which runs exactly one
program per call.  The first session of every run is executed a second
time with one ``run_until(budget)`` call (single-board) or replayed
(campaign), and the two semantic digests must match.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Dict, List, Optional, Set

OSES = ("pokos", "freertos", "rt-thread", "zephyr", "nuttx")

#: Virtual cycles per "epoch".  A campaign syncs every EPOCH_CYCLES per
#: worker; a single-board run has no barriers, so its epoch samples are
#: the host time to fuzz through each EPOCH_CYCLES slice of the budget.
EPOCH_CYCLES = 40_000


@dataclass(frozen=True)
class BoardWorkload:
    """Single-board EOF sessions over a list of targets."""

    name: str
    targets: tuple
    budget_cycles: int
    #: Host seconds one session takes on a 2-core x86 container; sets
    #: how many sessions fit in ``--seconds``.
    session_s: float
    restore_every: int = 0
    telemetry: bool = False


@dataclass(frozen=True)
class CampaignWorkload:
    """Multi-board campaigns with a durable store."""

    name: str
    target: str
    workers: int
    total_budget_cycles: int
    sync_interval: int
    session_s: float
    backend: str = "process"


#: Why each workload exists, and its budget: ``perfbench/README.md``.
WORKLOADS = {
    w.name: w for w in (
        BoardWorkload(
            name="fuzz-5os",
            targets=OSES, budget_cycles=500_000, session_s=1.6),
        BoardWorkload(
            name="stateless-restore",
            targets=OSES, budget_cycles=300_000, session_s=1.8,
            restore_every=1),
        CampaignWorkload(
            name="campaign",
            target="freertos", workers=2, total_budget_cycles=8_000_000,
            sync_interval=EPOCH_CYCLES, session_s=3.2),
        BoardWorkload(
            name="fuzz-telemetry",
            targets=("pokos", "rt-thread"), budget_cycles=500_000,
            session_s=0.9, telemetry=True),
    )
}


def session_seed(workload: str, seed: int, index: int) -> int:
    """Engine seed of session ``index`` in a run at ``seed``."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def session_count(workload, seconds: float, processes: int) -> int:
    """Sessions in one run: as many as ``processes`` busy processes fit
    in ``seconds``, at least 2."""
    return max(2, round(processes * seconds / workload.session_s))


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    rank = (len(data) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def digest_of(payload: object) -> str:
    """SHA-256 of a canonical JSON encoding."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Measurements:
    """Everything one pass over a run's sessions measured."""

    setup_s: List[float] = field(default_factory=list)
    #: Set-up seconds of sessions that started in a fresh process.
    cold_setup_s: List[float] = field(default_factory=list)
    session_rss_mb: List[float] = field(default_factory=list)
    program_s: List[float] = field(default_factory=list)
    epoch_s: List[float] = field(default_factory=list)
    session_edges: List[int] = field(default_factory=list)
    crashes: Dict[str, Set[str]] = field(default_factory=dict)
    os_programs: Dict[str, int] = field(default_factory=dict)
    os_wall: Dict[str, float] = field(default_factory=dict)
    digests: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    programs: int = 0
    loop_cycles: int = 0
    link_transactions: int = 0
    link_bytes: int = 0
    snapshot_restores: int = 0
    snapshot_fallbacks: int = 0
    snapshot_pages: int = 0
    seeds_shared: int = 0
    seeds_imported: int = 0
    journal_bytes: int = 0
    #: Host seconds spent fuzzing (set-up excluded), over all sessions.
    fuzz_s: float = 0.0

    @property
    def digest(self) -> str:
        """Digest over every session of the pass, in session order."""
        return digest_of(self.digests)

    def merge(self, other: "Measurements") -> None:
        """Append another pass's sessions after this one's."""
        for name, value in vars(other).items():
            mine = getattr(self, name)
            if isinstance(value, list):
                mine.extend(value)
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, set):
                        mine.setdefault(key, set()).update(item)
                    else:
                        mine[key] = mine.get(key, 0) + item
            else:
                setattr(self, name, mine + value)

    def add_stats(self, stats) -> None:
        self.programs += stats.programs_executed
        self.link_transactions += stats.link_transactions
        self.link_bytes += stats.link_bytes
        self.snapshot_restores += stats.snapshot_restores
        self.snapshot_fallbacks += stats.snapshot_fallbacks
        self.snapshot_pages += stats.snapshot_pages_written
        if stats.series:
            self.loop_cycles += stats.series[-1][0] - stats.start_cycles


def _spanner(tracer):
    """``tracer.span``, or a no-op span when the pass is untraced."""
    if tracer is None:
        return lambda _layer: nullcontext()
    return tracer.span


# -- single-board sessions ----------------------------------------------------

def _telemetry_bundle(directory: str, run_id: str, budget: int):
    """The observability bundle ``eof-fuzz run --trace-dir`` attaches."""
    from repro.obs import (FlightRecorder, JsonlSink, Observability,
                           TimeSeriesSampler)
    from repro.obs.report import EVENTS_FILE
    from repro.obs.timeseries import TIMESERIES_FILE
    os.makedirs(directory, exist_ok=True)
    obs = Observability(run_id=run_id)
    obs.attach(JsonlSink(os.path.join(directory, EVENTS_FILE)))
    obs.sampler = TimeSeriesSampler(
        max(budget // 50, 1), path=os.path.join(directory, TIMESERIES_FILE))
    obs.attach_flight(FlightRecorder(directory))
    return obs


def _set_up_board(workload: BoardWorkload, os_name: str, seed: int,
                  scratch: str, telemetry: bool):
    """Build, generate the spec, construct (reachability analysis) and
    start (attach, boot, snapshot capture) one engine."""
    from repro.firmware import builder
    from repro.fuzz.engine import EngineOptions, EofEngine
    from repro.fuzz.targets import get_target
    from repro.spec import llmgen
    build = builder.build_firmware(get_target(os_name).build_config())
    spec = llmgen.generate_validated_specs(build)
    obs = None
    if telemetry:
        obs = _telemetry_bundle(
            os.path.join(scratch, f"trace-{os_name}-{seed}"),
            f"eof-{os_name}-seed{seed}", workload.budget_cycles)
    engine = EofEngine(build, spec, EngineOptions(
        seed=seed, budget_cycles=workload.budget_cycles,
        restore_every=workload.restore_every), obs=obs)
    engine.start()
    return engine, obs


def board_job(workload: BoardWorkload, os_name: str, seed: int,
              scratch: str, m: Measurements, tracer=None,
              stepped: bool = True, telemetry: Optional[bool] = None):
    """Set up and fuzz one target at one seed; returns its digest, edge
    count and resident memory at the end of the run (engine, corpus and
    board still alive).  Timings and results are added to ``m``."""
    from repro.errors import RecoveryExhausted
    from repro.obs import report
    if telemetry is None:
        telemetry = workload.telemetry
    span = _spanner(tracer)
    started = time.perf_counter()
    with span("setup"):
        engine, obs = _set_up_board(workload, os_name, seed, scratch,
                                    telemetry)
    fuzz_started = time.perf_counter()
    m.setup_s.append(fuzz_started - started)
    budget = workload.budget_cycles
    machine = engine.session.board.machine
    next_mark = machine.cycles + EPOCH_CYCLES
    busy = mark_busy = 0.0
    attempts = 0
    try:
        if not stepped:
            attempts = 1
            with span("fuzz.engine"):
                engine.run_until(budget)
        else:
            more = True
            while more:
                before = time.perf_counter()
                if tracer is None:
                    more = engine.run_until(min(machine.cycles + 1, budget))
                else:
                    with span("fuzz.engine"):
                        more = engine.run_until(
                            min(machine.cycles + 1, budget))
                elapsed = time.perf_counter() - before
                m.program_s.append(elapsed)
                attempts += 1
                busy += elapsed
                if machine.cycles >= next_mark:
                    m.epoch_s.append(busy - mark_busy)
                    mark_busy = busy
                    while next_mark <= machine.cycles:
                        next_mark += EPOCH_CYCLES
    except RecoveryExhausted as exc:
        m.failures.append(f"{os_name} seed {seed}: quarantined ({exc})")
    with span("fuzz.engine"):
        result = engine.finish()
    rss = resident_mb()
    if obs is not None:
        obs.close()
        data = report.collect_run_data(obs, stats=result.stats, meta={
            "target": os_name, "fuzzer": "eof", "seed": seed,
            "budget_cycles": budget})
        report.write_run_artifacts(
            os.path.join(scratch, f"trace-{os_name}-{seed}"), data)
    wall = time.perf_counter() - fuzz_started
    if obs is not None:
        shutil.rmtree(os.path.join(scratch, f"trace-{os_name}-{seed}"),
                      ignore_errors=True)
    signatures = [report.signature()
                  for report in result.crash_db.unique_crashes()]
    digest = digest_of({
        "semantic": result.stats.semantic_dict(),
        "frontier": sorted(result.coverage.edges),
        "crashes": sorted(signatures),
        "corpus": engine.corpus.digests()})
    m.attempted += attempts
    m.add_stats(result.stats)
    m.crashes.setdefault(os_name, set()).update(signatures)
    m.os_programs[os_name] = m.os_programs.get(os_name, 0) \
        + result.stats.programs_executed
    m.os_wall[os_name] = m.os_wall.get(os_name, 0.0) + wall
    m.fuzz_s += wall
    return digest, result.edges, rss


def board_session(workload: BoardWorkload, seed: int, scratch: str,
                  m: Measurements, tracer=None) -> None:
    """One session: every target of the workload, one after another."""
    edges = 0
    rss = []
    for os_name in workload.targets:
        try:
            digest, job_edges, job_rss = board_job(
                workload, os_name, seed, scratch, m, tracer=tracer)
        except Exception as exc:  # a failed board; the run goes on
            traceback.print_exc()
            m.failures.append(f"{os_name} seed {seed}: uncaught "
                              f"{type(exc).__name__}: {exc}")
            m.digests.append(f"error:{os_name}")
            continue
        m.digests.append(digest)
        edges += job_edges
        rss.append(job_rss)
    m.session_edges.append(edges)
    m.session_rss_mb.append(max(rss, default=0.0))


def board_replay(workload: BoardWorkload, seed: int, scratch: str,
                 expected: List[str], m: Measurements) -> List[str]:
    """Re-run one session into ``m`` with a single ``run_until(budget)``
    call per target and no telemetry; returns mismatch descriptions."""
    problems = []
    for os_name, want in zip(workload.targets, expected):
        try:
            got, *_ = board_job(workload, os_name, seed, scratch, m,
                                stepped=False, telemetry=False)
        except Exception as exc:  # reported; the replay goes on
            traceback.print_exc()
            got = f"error:{os_name}"
            m.failures.append(f"{os_name} seed {seed} (replay): uncaught "
                              f"{type(exc).__name__}: {exc}")
        if got != want:
            problems.append(f"{os_name} seed {seed}: stepped digest "
                            f"{want[:12]} != single-call digest {got[:12]}")
    return m.failures + problems


# -- campaigns ----------------------------------------------------------------

def _make_campaign(workload: CampaignWorkload, seed: int, state_dir: str):
    from repro.bench import runner
    from repro.fuzz.targets import get_target
    return runner.make_campaign(
        get_target(workload.target), workers=workload.workers,
        total_budget_cycles=workload.total_budget_cycles,
        campaign_seed=seed, sync_interval=workload.sync_interval,
        backend=workload.backend, state_dir=state_dir)


def campaign_session(workload: CampaignWorkload, seed: int, scratch: str,
                     m: Measurements, tracer=None) -> str:
    """One campaign; returns its digest (also appended to ``m``)."""
    span = _spanner(tracer)
    state_dir = os.path.join(scratch, f"campaign-{seed}-{len(m.digests)}")
    started = time.perf_counter()
    with span("farm.campaign"):
        orchestrator = _make_campaign(workload, seed, state_dir)
        first_epoch: List[float] = []
        barriers: List[tuple] = []
        for handle in orchestrator.handles:
            def begin_epoch(epoch, target, _begin=handle.begin_epoch):
                if not first_epoch:
                    first_epoch.append(time.perf_counter())
                return _begin(epoch, target)
            handle.begin_epoch = begin_epoch
        orchestrator.epoch_hook = lambda summary: barriers.append(
            (time.perf_counter(),
             [worker["execs"] for worker in summary["workers"]]))
        result = orchestrator.run()
    ended = time.perf_counter()
    journal = orchestrator.store.journal_path
    m.journal_bytes += os.path.getsize(journal) if os.path.exists(journal) \
        else 0
    shutil.rmtree(state_dir, ignore_errors=True)
    stats = result.stats
    if stats.aborted_workers:
        m.failures.append(f"campaign seed {seed}: "
                          f"{stats.aborted_workers} worker(s) lost")
    if not first_epoch or not barriers:
        m.failures.append(f"campaign seed {seed}: no epoch ran")
        return ""
    m.setup_s.append(first_epoch[0] - started)
    previous_time, previous_execs = first_epoch[0], [0] * workload.workers
    for when, execs in barriers:
        epoch = when - previous_time
        m.epoch_s.append(epoch)
        for before, after in zip(previous_execs, execs):
            if after > before:
                m.program_s.append(epoch / (after - before))
        previous_time, previous_execs = when, execs
    for worker in result.worker_results:
        m.add_stats(worker.stats)
        m.attempted += worker.stats.programs_executed \
            + worker.stats.rejected_programs
    m.fuzz_s += ended - first_epoch[0]
    m.session_edges.append(result.merged_edges)
    m.crashes.setdefault(workload.target, set()).update(
        result.crash_signatures())
    m.seeds_shared += stats.seeds_shared
    m.seeds_imported += stats.seeds_imported
    digest = digest_of({
        "frontier": sorted(result.edges),
        "crashes": result.crash_signatures(),
        "corpus": result.corpus_digests,
        "workers": [worker.stats.semantic_dict()
                    for worker in result.worker_results]})
    m.digests.append(digest)
    return digest


# -- passes -------------------------------------------------------------------

def run_session(workload, seed: int, index: int, scratch: str,
                m: Measurements, tracer=None) -> None:
    """Run session ``index`` of a run at ``seed`` into ``m``."""
    sub_seed = session_seed(workload.name, seed, index)
    if isinstance(workload, CampaignWorkload):
        campaign_session(workload, sub_seed, scratch, m, tracer=tracer)
    else:
        board_session(workload, sub_seed, scratch, m, tracer=tracer)


def _pooled_session(workload, seed: int, index: int, scratch: str):
    m = Measurements()
    run_session(workload, seed, index, scratch, m)
    return os.getpid(), m


def run_pass(workload, seed: int, sessions: int, scratch: str,
             tracer=None, processes: int = 1) -> Measurements:
    """Run ``sessions`` sessions of a workload and collect measurements.

    With ``processes > 1`` the sessions run in that many fresh worker
    processes; the first session each worker runs starts cold (imports,
    first builds, reachability analysis) and its set-up time is kept in
    ``cold_setup_s``.
    """
    m = Measurements()
    if processes <= 1:
        for index in range(sessions):
            run_session(workload, seed, index, scratch, m, tracer=tracer)
        return m
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=processes,
                             mp_context=context) as pool:
        futures = [pool.submit(_pooled_session, workload, seed, index,
                               scratch) for index in range(sessions)]
        parts = [future.result() for future in futures]
    seen = set()
    for pid, part in parts:
        if pid not in seen:
            seen.add(pid)
            m.cold_setup_s.append(sum(part.setup_s))
        m.merge(part)
    return m


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, if running.

    A spawn pool's semaphores start the tracker as a child process that
    would otherwise outlive the benchmark (and stay a zombie once it
    exits).  Collect first, so no pool semaphore is left to restart it.
    """
    gc.collect()
    resource_tracker._resource_tracker._stop()


def prefix_digest(workload, m: Measurements, sessions: int) -> str:
    """Digest over a pass's first ``sessions`` sessions."""
    per_session = 1 if isinstance(workload, CampaignWorkload) \
        else len(workload.targets)
    return digest_of(m.digests[:sessions * per_session])


def check_replay(workload, seed: int, scratch: str, m: Measurements,
                 replay: Measurements) -> List[str]:
    """Replay the first session of a pass into ``replay`` and compare
    digests; returns the mismatches and failures found."""
    sub_seed = session_seed(workload.name, seed, 0)
    if isinstance(workload, CampaignWorkload):
        got = campaign_session(workload, sub_seed, scratch, replay)
        want = m.digests[0] if m.digests else ""
        if got != want:
            return replay.failures + [
                f"campaign seed {sub_seed}: digest {want[:12]} != "
                f"replayed digest {got[:12]}"]
        return replay.failures
    expected = m.digests[:len(workload.targets)]
    return board_replay(workload, sub_seed, scratch, expected, replay)


def resident_mb() -> float:
    """This process's resident set now (Linux ``/proc/self/statm``)."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    """Peak resident set of the benchmark process and of the largest
    child it waited for (campaign workers)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def end_to_end(m: Measurements, setup_samples: List[float],
               rss_mb: float) -> Dict[str, tuple]:
    """The end-to-end metrics of one untraced pass: name -> (value, unit)."""
    unique = sum(len(signatures) for signatures in m.crashes.values())
    return {
        "programs_per_s": (m.programs / m.fuzz_s, "1/s"),
        "program_ms_p50": (percentile(m.program_s, 50) * 1e3, "ms"),
        "program_ms_p95": (percentile(m.program_s, 95) * 1e3, "ms"),
        "epoch_ms_p50": (percentile(m.epoch_s, 50) * 1e3, "ms"),
        "epoch_ms_p90": (percentile(m.epoch_s, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "rss_mb": (rss_mb, "MB"),
        "edges": (float(statistics.mean(m.session_edges)), "count"),
        "unique_crashes": (float(unique), "count"),
        "execs_per_mcycle": (m.programs / (m.loop_cycles / 1e6), "1/Mcycle"),
    }
