"""FLOC benchmark: mining sessions timed end to end, with per-layer
attribution from a separate traced pass.

Run from the repository root::

    python3 perfbench/run.py --workload planted_exact --seed 1 \
        --seconds 55 --trace 0

Every workload mines the recoverable Table 4/5 regime: a 300 x 60
matrix with 10 planted 30 x 20 delta-clusters (noise 3), k = 12,
p = 0.2, 10 reseed rounds, residue target = 2 x the embedded residue,
clusters of at least 3 x 3.  ``--seed`` generates a fixed list of such
matrices; the timed loop cycles through it with one client, starting
the next session when the previous one returns (a closed loop).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of an untimed traced pass (see ``README.md``).  The
last line of standard output is one JSON object; everything before it
is a human-readable log.  Any error exits nonzero without that line.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools stay single-threaded in this process and, through
# the environment, in every process it starts: FLOC's lanes are too
# narrow to gain from threads, and threads would contend with the
# process-pool workers for the same cores.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

import numpy as np  # noqa: E402

import benchmath  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# -- the regime (Tables 4/5) ---------------------------------------------
N_ROWS, N_COLS = 300, 60
N_PLANTED = 10
PLANTED_SHAPE = (30, 20)
NOISE = 3.0
K = 12
P = 0.2
RESEED_ROUNDS = 10
TARGET_FACTOR = 2.0
MIN_ROWS = MIN_COLS = 3
MIN_VOLUME = 25  # mine's pooling floor on specified cells
MISSING = 0.2
ALPHA = 0.5
#: Matrices generated per run.  Every run mines each of them once, so
#: recall and precision depend on the seed alone; the loop then cycles
#: through them again while time remains, re-mining inputs to check
#: that their outputs repeat.
N_MATRICES = 5
#: Fresh-process repetitions behind ``setup_s`` and ``cli.import_s``.
SETUP_REPS = 5
#: A child still running after this long is killed and its session fails.
CHILD_TIMEOUT_S = 60.0
#: Rounds of the host-speed probe (about 0.5 s on a 2.1 GHz Xeon vCPU).
PROBE_ROUNDS = 10000
#: The probe's time on the host the benchmark was defined on.  A run's
#: geometric-mean session time over its geometric-mean probe time, times
#: this constant, is its session time on that host (``session_s_norm``).
PROBE_REF_S = 0.6

WORKLOADS: Dict[str, Dict[str, object]] = {
    "planted_exact": {
        "call": "floc()",
        "loads": ["core.gain_engine (exact lanes)", "core.floc",
                  "core.ordering", "core.seeding"],
        "bypasses": ["cli", "core.mining", "runtime"],
        "missing": 0.0,
        "pool": False,
    },
    "missing_workers2": {
        "call": "repro mine --workers 2 --alpha 0.5 --restarts 4 "
                "(subprocess)",
        "loads": ["cli", "runtime", "core.gain_engine (estimate lanes)",
                  "core.floc", "core.ordering", "core.seeding",
                  "core.mining"],
        "bypasses": ["exact lanes"],
        "missing": MISSING,
        "pool": True,
    },
}
for _spec in WORKLOADS.values():
    _spec["loop"] = "closed loop, 1 client"

#: Checkpoint-record keys that hold measurements rather than output.
TIMING_KEYS = ("elapsed_seconds", "iteration_times", "telemetry", "digest")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


# ----------------------------------------------------------------------
# Environment and child processes
# ----------------------------------------------------------------------
def n_workers() -> int:
    """Two pool workers, never more than the cores this process may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def child_env(workdir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    return env


@dataclass
class Child:
    wall_s: float
    returncode: int
    max_rss_kb: int


def run_child(cmd: List[str], log: Path, env: Dict[str, str]) -> Child:
    """Run ``cmd`` to completion; wall time and the child's own peak RSS.

    ``os.wait4`` reports the rusage of this one child (including the
    descendants it reaped, such as pool workers), where
    ``RUSAGE_CHILDREN`` would mix every child this process ever had.
    """
    with open(log, "wb") as handle:
        started = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=handle, stderr=subprocess.STDOUT, env=env,
            cwd=str(ROOT), start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # leftover pool workers, if the child left any
    return Child(wall, proc.returncode, int(usage.ru_maxrss))


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, 9)
    except (ProcessLookupError, PermissionError):
        pass


def host_probe(rounds: int = PROBE_ROUNDS) -> float:
    """Wall time of a fixed piece of work that does not use ``repro``.

    The host's speed drifts by 25-100% over seconds to minutes, on both
    vCPUs and in CPU time as much as in wall time.  The probe mixes the
    operations FLOC's sweeps are made of (fancy-indexed submatrices,
    small reductions, sorts, Python loops over dicts), so over a run it
    slows down with the host as the sessions do; the program under test
    cannot change it.
    """
    rng = np.random.default_rng(12345)
    values = rng.standard_normal((N_ROWS, N_COLS))
    rows = [np.sort(rng.choice(N_ROWS, 30, replace=False)) for _ in range(16)]
    cols = [np.sort(rng.choice(N_COLS, 20, replace=False)) for _ in range(16)]
    acc = 0.0
    started = time.perf_counter()
    for i in range(rounds):
        r, c = rows[i % 16], cols[(i * 7) % 16]
        sub = values[np.ix_(r, c)]
        res = sub - sub.mean(axis=1)[:, None] - sub.mean(axis=0)[None, :] + sub.mean()
        acc += float(np.abs(res).sum())
        acc += float(np.sort(values[:, c[i % 20]])[::7].sum())
        table = {j: j * 0.5 for j in range(40)}
        acc += sum(v for k, v in table.items() if k % 3)
    elapsed = time.perf_counter() - started
    if not np.isfinite(acc):
        raise BenchError("host probe produced a non-finite checksum")
    return elapsed


def parallel_probe(n: int) -> float:
    """Wall time of ``n`` host probes run at once in forked processes.

    A session that keeps ``n`` pool workers busy waits for the slower
    core, so its probe does too.
    """
    if n == 1:
        return host_probe()
    ctx = multiprocessing.get_context("fork")
    procs = [ctx.Process(target=host_probe) for _ in range(n)]
    started = time.perf_counter()
    try:
        for proc in procs:
            proc.start()
    finally:
        for proc in procs:
            if proc.pid is not None:
                proc.join()
    elapsed = time.perf_counter() - started
    if any(proc.exitcode != 0 for proc in procs):
        raise BenchError("a parallel host probe failed")
    return elapsed


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def make_inputs(workdir: Path, seed: int, missing: float) -> None:
    """Generate and write the run's matrices (runs in a fresh process).

    Writes ``m<i>.npz`` plus ``inputs.json`` holding, per matrix, the
    residue target, the mining seed and the planted clusters.
    """
    from repro import generate_embedded
    from repro.data.io import save_matrix_npz

    entries = []
    for index in range(N_MATRICES):
        dataset = generate_embedded(
            N_ROWS, N_COLS, N_PLANTED, cluster_shape=PLANTED_SHAPE,
            noise=NOISE, missing_fraction=missing,
            rng=np.random.default_rng([seed, index]),
        )
        mine_seed = np.random.SeedSequence([seed, index, 1]).generate_state(1)[0]
        name = f"m{index}.npz"
        save_matrix_npz(workdir / name, dataset.matrix)
        entries.append({
            "npz": name,
            "target": TARGET_FACTOR * dataset.embedded_average_residue(),
            "mine_seed": int(mine_seed),
            "truth": [[list(c.rows), list(c.cols)] for c in dataset.embedded],
        })
    (workdir / "inputs.json").write_text(json.dumps(entries))


def timed_setup(workload: str, seed: int, workdir: Path) -> float:
    """Host-normalised wall time of fresh processes that import
    ``repro`` and generate and write the inputs, each preceded by a host
    probe (see ``benchmath.host_normalised``); the last one's files are
    used."""
    walls, probes = [], []
    for rep in range(SETUP_REPS):
        probes.append(host_probe())
        child = run_child(
            [sys.executable, str(Path(__file__).resolve()), "--make-inputs",
             str(workdir), "--workload", workload, "--seed", str(seed)],
            workdir / f"setup{rep}.log", child_env(workdir),
        )
        if child.returncode != 0:
            log = (workdir / f"setup{rep}.log").read_text(errors="replace")
            raise BenchError(f"input generation failed:\n{log}")
        walls.append(child.wall_s)
    print(f"setup_s (raw wall): median {statistics.median(walls):.4f} s; "
          f"host probe p50: {statistics.median(probes):.4f} s")
    return benchmath.host_normalised(walls, probes, PROBE_REF_S)


def cli_import_s(workdir: Path) -> float:
    """Median time a fresh interpreter spends in ``import repro.cli``."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for rep in range(SETUP_REPS):
        log = workdir / f"import{rep}.log"
        child = run_child([sys.executable, "-c", code], log, child_env(workdir))
        if child.returncode != 0:
            raise BenchError(f"import repro.cli failed:\n{log.read_text()}")
        times.append(float(log.read_text().split()[-1]))
    return statistics.median(times)


@dataclass
class Input:
    index: int
    path: Path
    matrix: object  # repro.DataMatrix
    target: float
    mine_seed: int
    truth: list


def load_inputs(workdir: Path) -> Tuple[List[Input], float]:
    """The generated inputs, and the median ``load_matrix_npz`` time."""
    from repro.core.cluster import DeltaCluster
    from repro.data.io import load_matrix_npz

    entries = json.loads((workdir / "inputs.json").read_text())
    inputs, loads = [], []
    for index, entry in enumerate(entries):
        path = workdir / entry["npz"]
        started = time.perf_counter()
        matrix = load_matrix_npz(path)
        loads.append(time.perf_counter() - started)
        truth = [DeltaCluster(rows, cols) for rows, cols in entry["truth"]]
        inputs.append(Input(index, path, matrix, float(entry["target"]),
                            int(entry["mine_seed"]), truth))
    return inputs, statistics.median(loads)


# ----------------------------------------------------------------------
# Output checks (independent of the program's own residue code)
# ----------------------------------------------------------------------
def residue_and_volume(values: np.ndarray, rows, cols) -> Tuple[float, int]:
    """Mean absolute residue (paper Def. 3.5) over specified cells."""
    sub = values[np.ix_(np.asarray(rows, dtype=int), np.asarray(cols, dtype=int))]
    mask = ~np.isnan(sub)
    volume = int(mask.sum())
    if volume == 0:
        return 0.0, 0
    filled = np.where(mask, sub, 0.0)
    row_n, col_n = mask.sum(axis=1), mask.sum(axis=0)
    row_base = np.where(row_n > 0, filled.sum(axis=1) / np.maximum(row_n, 1), 0.0)
    col_base = np.where(col_n > 0, filled.sum(axis=0) / np.maximum(col_n, 1), 0.0)
    grand = filled.sum() / volume
    raw = sub - row_base[:, None] - col_base[None, :] + grand
    return float(np.abs(np.where(mask, raw, 0.0)).sum() / volume), volume


def check_delta_clusters(values: np.ndarray, clusters, target: float) -> List[str]:
    """Problems with clusters claimed to be r-residue delta-clusters."""
    problems = []
    for number, (rows, cols) in enumerate(clusters):
        residue, volume = residue_and_volume(values, rows, cols)
        if residue > target * (1 + 1e-9):
            problems.append(f"cluster {number}: residue {residue:.6g} > "
                            f"target {target:.6g}")
        if len(rows) < MIN_ROWS or len(cols) < MIN_COLS or volume < MIN_VOLUME:
            problems.append(f"cluster {number}: {len(rows)}x{len(cols)} "
                            f"volume {volume} below the minimum")
    return problems


def locked_slots(values: np.ndarray, clusters, target: float) -> list:
    """The r-residue delta-clusters among floc's k slots.

    ``floc`` returns all k slots; a slot still above the target (or at
    the structural floor) after the last reseed round is a dead slot,
    not a discovered cluster.
    """
    kept = []
    for rows, cols in clusters:
        residue, volume = residue_and_volume(values, rows, cols)
        if residue <= target and volume >= MIN_VOLUME:
            kept.append((rows, cols))
    return kept


def clusters_of(items) -> List[Tuple[List[int], List[int]]]:
    return [([int(r) for r in c.rows], [int(c_) for c_ in c.cols]) for c in items]


def digest(obj: object) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def deterministic_record(record: Dict[str, object]) -> Dict[str, object]:
    return {k: v for k, v in record.items() if k not in TIMING_KEYS}


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
@dataclass
class Session:
    index: int
    wall_s: float
    rss_kb: int
    clusters: list  # the delta-clusters the session delivered
    output: object  # everything that must repeat bit-identically
    problems: List[str] = field(default_factory=list)
    records: List[Dict[str, object]] = field(default_factory=list)
    probe_s: float = 0.0  # host probe run just before the session


def floc_kwargs(inp: Input) -> Dict[str, object]:
    from repro import Constraints

    return dict(p=P, residue_target=inp.target, reseed_rounds=RESEED_ROUNDS,
                constraints=Constraints(min_rows=MIN_ROWS, min_cols=MIN_COLS),
                rng=inp.mine_seed)


def floc_output(result) -> Dict[str, object]:
    return {"slots": clusters_of(result.clustering),
            "history": [float(x) for x in result.history],
            "n_actions": int(result.n_actions),
            "n_iterations": int(result.n_iterations)}


def session_planted_exact(inp: Input) -> Session:
    from repro import floc

    kwargs = floc_kwargs(inp)
    started = time.perf_counter()
    result = floc(inp.matrix, K, **kwargs)
    wall = time.perf_counter() - started
    output = floc_output(result)
    values = inp.matrix.values
    problems = []
    for number, (rows, cols) in enumerate(output["slots"]):
        if len(rows) < MIN_ROWS or len(cols) < MIN_COLS:
            problems.append(f"slot {number}: {len(rows)}x{len(cols)} "
                            "breaks the 3x3 constraint")
    # floc's incremental residue ledger must agree with a recomputation.
    recomputed = float(np.mean([residue_and_volume(values, r, c)[0]
                                for r, c in output["slots"]]))
    if not np.isclose(recomputed, output["history"][-1], rtol=1e-6, atol=1e-9):
        problems.append(f"final residue {output['history'][-1]!r} != "
                        f"recomputed {recomputed!r}")
    clusters = locked_slots(values, output["slots"], inp.target)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return Session(inp.index, wall, rss, clusters, output, problems)


def mine_command(inp: Input, out: Path, run_dir: Path) -> List[str]:
    return [sys.executable, "-m", "repro", "mine", str(inp.path),
            "--target", repr(inp.target), "--k", str(K),
            "--seed", str(inp.mine_seed), "--out", str(out),
            "--restarts", "4", "--workers", str(n_workers()),
            "--alpha", str(ALPHA), "--run-dir", str(run_dir)]


def session_cli(inp: Input, workdir: Path, number: int) -> Session:
    from repro.data.io import load_clusters

    out = workdir / f"out{number}.txt"
    run_dir = workdir / f"run{number}"
    log = workdir / f"mine{number}.log"
    child = run_child(mine_command(inp, out, run_dir), log,
                      child_env(workdir))
    problems: List[str] = []
    clusters: list = []
    records: List[Dict[str, object]] = []
    rss = child.max_rss_kb
    if child.returncode != 0:
        problems.append(f"exit code {child.returncode}: "
                        f"{log.read_text(errors='replace')[-2000:]}")
    else:
        clusters = clusters_of(load_clusters(out))
        problems += check_delta_clusters(inp.matrix.values, clusters, inp.target)
        for path in sorted((run_dir / "restarts").glob("restart-*.json")):
            record = json.loads(path.read_text())
            records.append(record)
            rss = max(rss, int(record.get("telemetry", {}).get("max_rss_kb", 0)))
    output = {"clusters": clusters,
              "records": [deterministic_record(r) for r in records]}
    shutil.rmtree(run_dir, ignore_errors=True)
    for path in (out, log):
        path.unlink(missing_ok=True)
    return Session(inp.index, child.wall_s, rss, clusters, output, problems,
                   records)


def run_session(workload: str, inp: Input, workdir: Path, number: int) -> Session:
    if workload == "planted_exact":
        return session_planted_exact(inp)
    return session_cli(inp, workdir, number)


def check_repeat(session: Session, first: Dict[int, Session]) -> None:
    """Outputs on one input must repeat bit-identically within a run."""
    earlier = first.setdefault(session.index, session)
    if earlier is not session and digest(earlier.output) != digest(session.output):
        session.problems.append(
            f"output differs from the earlier session on matrix {session.index}")


# ----------------------------------------------------------------------
# Timed run (--trace 0)
# ----------------------------------------------------------------------
def probe_procs(workload: str) -> int:
    """Probes run at once before a session: one per core it keeps busy."""
    return n_workers() if WORKLOADS[workload]["pool"] else 1


def timed_run(workload: str, inputs: List[Input], workdir: Path,
              seconds: float) -> List[Session]:
    """Closed loop, one client: sessions back to back over the inputs.

    Each session is preceded by a host probe.  After the first pass
    over every input, a session starts only when the median session and
    probe so far still fit in the remaining time, so a run measures
    close to ``seconds``.
    """
    sessions: List[Session] = []
    first: Dict[int, Session] = {}
    started = time.perf_counter()
    while True:
        inp = inputs[len(sessions) % len(inputs)]
        probe_s = parallel_probe(probe_procs(workload))
        session = run_session(workload, inp, workdir, len(sessions))
        session.probe_s = probe_s
        check_repeat(session, first)
        sessions.append(session)
        elapsed = time.perf_counter() - started
        if (len(sessions) >= len(inputs) and elapsed + statistics.median(
                s.wall_s + s.probe_s for s in sessions) > seconds):
            return sessions


def quality(sessions: List[Session], inputs: List[Input]) -> Tuple[float, float]:
    """Mean recall and precision over the distinct inputs mined."""
    from repro import recall_precision
    from repro.core.cluster import DeltaCluster

    recalls, precisions = [], []
    for index in sorted({s.index for s in sessions}):
        session = next(s for s in sessions if s.index == index)
        inp = inputs[index]
        found = [DeltaCluster(r, c) for r, c in session.clusters]
        score = recall_precision(inp.truth, found, inp.matrix.shape)
        recalls.append(score.recall)
        precisions.append(score.precision)
    return float(np.mean(recalls)), float(np.mean(precisions))


def log_sessions(sessions: List[Session]) -> None:
    for number, s in enumerate(sessions):
        status = "ok" if not s.problems else "FAIL " + "; ".join(s.problems)
        print(f"session {number:3d} matrix m{s.index} {s.wall_s:8.3f} s "
              f"probe {s.probe_s:6.3f} s rss {s.rss_kb / 1024:7.1f} MB digest {digest(s.output)} {status}")


def end_to_end(workload: str, sessions: List[Session], inputs: List[Input],
               setup_s: float) -> Dict[str, float]:
    walls = [s.wall_s for s in sessions]
    recall, precision = quality(sessions, inputs)
    failed = sum(bool(s.problems) for s in sessions)
    tail = benchmath.tail_percentile(walls)
    tail_text = (f"p{tail[0]:.1f} = {tail[1]:.4f} s over {tail[2]} sessions"
                 if tail else f"n/a: {len(walls)} sessions, a tail needs "
                              f"more than {benchmath.TAIL_BEYOND}")
    print(f"session_s_tail: {tail_text}")
    print(f"fail_ratio: {failed}/{len(sessions)}")
    probes = [s.probe_s for s in sessions]
    print(f"session_s_p50 (raw wall): {statistics.median(walls):.4f} s; "
          f"host probe p50: {statistics.median(probes):.4f} s")
    if workload == "missing_workers2":
        effs = [benchmath.scaleout_eff(
                    [float(r["elapsed_seconds"]) for r in s.records],
                    n_workers(), s.wall_s)
                for s in sessions if s.records]
        if effs:
            print(f"scaleout_eff (median over sessions): "
                  f"{statistics.median(effs):.4f}")
    return {
        "session_s_norm": benchmath.host_normalised(walls, probes, PROBE_REF_S),
        "setup_s": setup_s,
        "peak_rss_mb": max(s.rss_kb for s in sessions) / 1024.0,
        "recall": recall,
        "precision": precision,
    }


# ----------------------------------------------------------------------
# Traced pass (--trace 1)
# ----------------------------------------------------------------------
class MemorySink:
    """Keeps every record a tracer dispatches; read when the pass ends."""

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []

    def write(self, record: Dict[str, object]) -> None:
        self.records.append(record)


def new_tracer():
    from repro import Tracer

    sink = MemorySink()
    return Tracer(sinks=[sink], emit_spans=True, stamp=True), sink


def span_layers(sink: MemorySink) -> Dict[str, float]:
    spans = [(str(r["name"]), float(r["ts"]), float(r["elapsed_s"]))
             for r in sink.records if r.get("type") == "span"]
    agg = benchmath.self_times(spans)

    def self_s(name: str) -> float:
        return agg.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return float(agg.get(name, {}).get("calls", 0))

    return {
        "phase1.self_s": self_s("phase1"),
        "seed_draw.self_s": self_s("seed_draw"),
        "reseed.self_s": self_s("reseed"),
        "reseed.calls": calls("reseed"),
        "ordering.self_s": self_s("ordering"),
        "gain_eval.self_s": self_s("gain_eval"),
        "gain_eval.calls": calls("gain_eval"),
        "perform_action.self_s": self_s("perform_action"),
        "perform_action.calls": calls("perform_action"),
        "floc.self_s": self_s("restart"),
        "mining.pool_s": self_s("mining"),
    }


def work_layers(work, actions: float, consults: float) -> Dict[str, float]:
    out = {f"work.{name}": float(value) for name, value in work}
    out["gain_eval.hit_ratio"] = benchmath.hit_ratio(actions, consults)
    out["floc.kept_ratio"] = benchmath.kept_ratio(work.toggles, actions)
    return out


def traced_planted_exact(inp: Input, ref: Session) -> Tuple[Dict[str, float], List[str]]:
    from repro import floc
    from repro.obs import WorkCounters

    tracer, sink = new_tracer()
    work = WorkCounters()
    started = time.perf_counter()
    with tracer.span("restart"):
        result = floc(inp.matrix, K, tracer=tracer, work=work, **floc_kwargs(inp))
    wall = time.perf_counter() - started
    problems = []
    if digest(floc_output(result)) != digest(ref.output):
        problems.append("traced floc differs from the untraced session")
    layers = span_layers(sink)
    layers.update(work_layers(work, layers["perform_action.calls"],
                              layers["gain_eval.calls"]))
    layers["obs.trace_overhead"] = wall / ref.wall_s - 1.0
    return layers, problems


def run_config(inp: Input):
    from repro import RunConfig

    return RunConfig(residue_target=inp.target, n_restarts=4,
                     root_seed=inp.mine_seed, k=K, min_rows=MIN_ROWS,
                     min_cols=MIN_COLS, alpha=ALPHA, p=P,
                     reseed_rounds=RESEED_ROUNDS, workers=n_workers())


def traced_missing_workers2(
    inp: Input, ref: Session, workdir: Path
) -> Tuple[Dict[str, float], List[str]]:
    """Supervised run with a tracer for the runtime layer, then the
    restarts replayed through ``run_restart`` for the core layers."""
    from repro import pool_mining_results, run_restart, run_supervised
    from repro.obs import WorkCounters
    from repro.runtime.checkpoint import result_to_record

    config = run_config(inp)
    workers = config.workers
    problems = []
    ref_records = [deterministic_record(r) for r in ref.records]

    tracer, sink = new_tracer()
    run_dir = workdir / "traced-run"
    started = time.perf_counter()
    outcome = run_supervised(inp.matrix, config, run_dir=run_dir, tracer=tracer)
    supervised_wall = time.perf_counter() - started
    records = [json.loads(p.read_text())
               for p in sorted((run_dir / "restarts").glob("restart-*.json"))]
    shutil.rmtree(run_dir, ignore_errors=True)
    if [deterministic_record(r) for r in records] != ref_records:
        problems.append("run_supervised records differ from repro mine's")
    if outcome.result is None or clusters_of(outcome.result.clustering) != ref.clusters:
        problems.append("run_supervised output differs from repro mine's")
    tasks = [r for r in sink.records if r.get("type") == "task"]
    done = [float(r["elapsed_s"]) for r in tasks if r.get("status") == "completed"]
    compute = sum(float(r["elapsed_seconds"]) for r in records)
    runtime_layers = {
        "runtime.task_s_p50": statistics.median(done) if done else 0.0,
        "runtime.compute_s": compute,
        "runtime.worker_cpu_s": sum(
            float(r["telemetry"]["user_cpu_s"]) + float(r["telemetry"]["sys_cpu_s"])
            for r in records if "telemetry" in r),
        "runtime.idle_frac": benchmath.idle_frac(compute, workers, supervised_wall),
        "runtime.scaleout_eff": benchmath.scaleout_eff(
            [float(r["elapsed_seconds"]) for r in ref.records], workers,
            ref.wall_s),
        "runtime.retries": float(sum(r.get("type") == "retry" for r in sink.records)),
        "runtime.tasks_failed": float(sum(r.get("status") == "failed" for r in tasks)),
    }

    def replay(tracer_=None):
        runs, works = [], []
        for restart in range(config.n_restarts):
            work = WorkCounters()
            span = tracer_.span("restart") if tracer_ else nullcontext()
            with span:
                runs.append(run_restart(
                    inp.matrix, restart, residue_target=config.residue_target,
                    root_seed=config.root_seed, k=K, min_rows=MIN_ROWS,
                    min_cols=MIN_COLS, alpha=ALPHA, p=P,
                    reseed_rounds=RESEED_ROUNDS, tracer=tracer_, work=work))
            works.append(work)
        pooled = pool_mining_results(inp.matrix, runs,
                                     residue_target=config.residue_target,
                                     min_rows=MIN_ROWS, min_cols=MIN_COLS)
        return runs, works, pooled

    started = time.perf_counter()
    replay()
    plain_wall = time.perf_counter() - started
    tracer, sink = new_tracer()
    started = time.perf_counter()
    with tracer.span("mining"):
        runs, works, pooled = replay(tracer)
    wall = time.perf_counter() - started
    replayed = [deterministic_record(result_to_record(i, run))
                for i, run in enumerate(runs)]
    if replayed != ref_records:
        problems.append("run_restart replay records differ from repro mine's")
    if clusters_of(pooled.clustering) != ref.clusters:
        problems.append("replayed pool differs from repro mine's output")

    total = WorkCounters()
    for work in works:
        total.merge(work)
    layers = span_layers(sink)
    layers.update(work_layers(total, layers["perform_action.calls"],
                              layers["gain_eval.calls"]))
    layers["mining.dedup_ratio"] = benchmath.dedup_ratio(
        pooled.n_deduplicated, pooled.n_pooled)
    layers["obs.trace_overhead"] = wall / plain_wall - 1.0
    layers.update(runtime_layers)
    return layers, problems


def traced_run(workload: str, inputs: List[Input], workdir: Path,
               load_s: float) -> Tuple[Dict[str, float], Session, List[str]]:
    """Per-layer numbers from the first input: one untraced session as
    the reference, then the traced replay, which must match it.  Returns
    the metrics, the reference session and the replay's problems."""
    inp = inputs[0]
    ref = run_session(workload, inp, workdir, 0)
    if workload == "planted_exact":
        layers, problems = traced_planted_exact(inp, ref)
    else:
        layers, problems = traced_missing_workers2(inp, ref, workdir)
    # A layer the workload does not run (runtime.* outside
    # missing_workers2, mining.* on planted_exact) reads 0.
    metrics = {name: 0.0 for name in declared_units(trace=True)}
    metrics.update(layers)
    metrics["cli.import_s"] = cli_import_s(workdir)
    metrics["io.load_npz_s"] = load_s
    return metrics, ref, problems


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def provenance() -> Dict[str, object]:
    sha = "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__}


def declared_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = config["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-inputs", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]

    if args.make_inputs:
        sys.path.insert(0, str(SRC))
        make_inputs(Path(args.make_inputs), args.seed, float(spec["missing"]))
        return 0

    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        info = dict(provenance(), workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=args.trace,
                    workers=n_workers(), **spec)
        print("provenance: " + json.dumps(info, sort_keys=True))
        setup_s = timed_setup(args.workload, args.seed, workdir)
        inputs, load_s = load_inputs(workdir)
        replay_problems: List[str] = []
        if args.trace:
            metrics, ref, replay_problems = traced_run(
                args.workload, inputs, workdir, load_s)
            sessions = [ref]
        else:
            sessions = timed_run(args.workload, inputs, workdir, args.seconds)
            metrics = end_to_end(args.workload, sessions, inputs, setup_s)
        units = declared_units(bool(args.trace))
        if set(metrics) != set(units):
            raise BenchError(f"metrics {sorted(metrics)} do not match "
                             f"BENCHMARK.json's {sorted(units)}")
        log_sessions(sessions)
        for problem in replay_problems:
            print(f"problem: traced replay: {problem}")
        # The traced replay is one more attempt that can fail.
        attempted = len(sessions) + args.trace
        failed = sum(bool(s.problems) for s in sessions) + bool(replay_problems)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                        for name in units},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        sys.exit(2)
