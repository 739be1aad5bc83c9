"""Benchmark harness for hsbubble.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The harness imports hsbubble from the
checkout's `src/` and times calls into its public functions from outside.
`--workload all` runs every workload in turn and prints a summary.

With `--trace 0` it measures ceil(S / nominal pass time) whole passes of the
workload's operations (the same number on any machine), checks every output
against reference.json and prints the end-to-end metrics.  Its times are
CPU times (user + system, of this process and of the children an operation
starts), so the time the shared host keeps the VM's CPU from running, which
the kernel books as steal, is left out; the program and its BLAS run on one
thread, so on a quiet machine CPU time and wall time agree.  After each
operation and each set-up probe it also times a fixed calibration task
(`Calibration`), and reports every time scaled by the task's nominal time
over its median time in the same stretch of the run: on a shared host the
CPU's speed drifts by up to ~2x within minutes, and the scaled times cancel
most of that drift.  The unscaled CPU times and the wall times are in the
info line.  With `--trace 1` it runs one untraced and one traced pass and
prints the per-layer metrics (see layers.json for which metric should move
where).
The last line of standard output is the result as one JSON object; a line
before it holds the seed, sample counts and the machine.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, here and in every child
# One CPU for this process and its children: on a small shared VM the CPUs
# can differ in speed by 1.5x, and a run should not depend on where it lands.
PINNED_CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {PINNED_CPU})

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spans as tracing  # noqa: E402
import workloads as wl  # noqa: E402

sys.path.insert(0, str(wl.SRC))  # the program under test, from this checkout

SETUP_PROBES = 5
# Each calibration task's median CPU time on a 2-CPU Xeon VM; constants, so
# scaled times stay comparable between commits.
CAL_NOMINAL_S = {"solve": 0.035, "dispatch": 0.035}
CAL_SHARE = 0.1  # calibrate for this share of the measured time
INTERPRETER_PROBES = 3
HARD_LIMIT_S = 150.0  # stop starting passes; the run must end within 180 s
TAIL_BEYOND = 10
MAX_REPORTED_FAILURES = 5


# ------------------------------------------------------------------ probes


def _probe_argv(workload: str, seed: int, importtime: bool = False) -> list:
    flags = ["-X", "importtime"] if importtime else []
    return [sys.executable, *flags, str(Path(__file__).resolve()),
            "--probe", workload, "--seed", str(seed)]


def timed_setup(workload: str, seed: int, importtime: bool = False):
    """Spawn a fresh interpreter that sets the workload up; time to ready.

    Returns (wall seconds, the probe's CPU seconds up to ready, its stderr);
    stderr goes to a file so that a long -X importtime listing cannot fill a
    pipe and stall the probe.
    """
    with tempfile.TemporaryFile("w+", dir=wl.ROOT) as err_file:
        t0 = time.perf_counter()
        proc = subprocess.Popen(_probe_argv(workload, seed, importtime),
                                cwd=wl.ROOT, env=wl.child_env(), text=True,
                                stdout=subprocess.PIPE, stderr=err_file)
        timer = threading.Timer(wl.CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate()
        finally:
            timer.cancel()
        err_file.seek(0)
        err = err_file.read()
    word, _, cpu = line.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up failed (exit {proc.returncode}): "
                           f"{err.strip()[-2000:]}")
    return elapsed, float(cpu), err


def interpreter_time() -> float:
    """Median wall time of a bare interpreter start and exit."""
    times = []
    for _ in range(INTERPRETER_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True,
                       env=wl.child_env(), cwd=wl.ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def parse_importtime(text: str) -> dict:
    """Split `-X importtime` output into the cli.import.* layer times (s).

    Each module's time is its cumulative import time where it was first
    imported, so nested modules (scipy.linalg under scipy.special) overlap.
    """
    pending: dict = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        head, cum_us, raw = line.split("|", 2)
        self_us, cum_us, raw = int(head.split(":")[1]), int(cum_us), raw[1:]
        level = (len(raw) - len(raw.lstrip())) // 2
        node = {"name": raw.strip(), "self": self_us, "cum": cum_us,
                "children": pending.pop(level + 1, [])}
        pending.setdefault(level, []).append(node)
    nodes = [n for level in sorted(pending) for n in pending[level]]

    found: dict = {}
    top_hs, hs_self = 0, 0

    def walk(node, inside_hs):
        nonlocal top_hs, hs_self
        is_hs = node["name"].split(".")[0] == "hsbubble"
        if is_hs:
            hs_self += node["self"]
            if not inside_hs:
                top_hs += node["cum"]
        found.setdefault(node["name"], node["cum"])
        for child in node["children"]:
            walk(child, inside_hs or is_hs)

    for node in nodes:
        walk(node, False)
    out = {"cli.import_s": top_hs * 1e-6,
           "cli.import.hsbubble_self_s": hs_self * 1e-6}
    for mod in ("numpy", "scipy.special", "scipy.linalg", "scipy.sparse"):
        out[f"cli.import.{mod.replace('.', '_')}_s"] = found.get(mod, 0) * 1e-6
    return out


# ------------------------------------------------------------- measuring


class Calibration:
    """Times fixed tasks whose speed follows the host's, not the program's.

    On a shared host, code of different kinds speeds up and slows down by
    different amounts: Python loops over small numpy arrays swing by up to
    2x, sparse LU, large sorts and process start-up by ~1.4x, vectorised
    numpy over thousands of points least.  So each operation names the task
    most like its own work (`Op.calibration`), and its time is scaled by
    that task's samples:

      solve     ten numpy sorts of 120k floats and a sparse LU of a bordered
                tridiagonal matrix of 20k rows (like the ell = 0 solve);
      dispatch  an adaptive-quadrature-like loop: numpy calls on 15-point
                arrays and a heap, as in quadrature.integrate_radial.

    `after(task, busy_s)` owes the task CAL_SHARE of the time just measured
    and samples it until that is paid, so the samples spread over a run the
    way the measured time does.  Times are scaled by samples taken over the
    same stretch (the set-up probes, or one pass), since the host's speed
    can change between the start of a run and its end.
    """

    SORT_N = 120_000
    SORT_REPEAT = 10
    LU_N = 20_000
    PANELS = 3500

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu
        rng = np.random.default_rng(0)
        n = self.LU_N
        mat = sp.diags([-np.ones(n - 1), np.full(n, 4.0), -np.ones(n - 1)],
                       [-1, 0, 1], format="lil")
        mat[n - 1, :] = rng.random(n)
        mat[:, n - 1] = rng.random((n, 1))
        mat[n - 1, n - 1] = float(n)
        self._mat, self._rhs = mat.tocsc(), np.ones(n)
        self._array = rng.random(self.SORT_N)
        self._nodes = np.linspace(0.01, 1.0, 15)
        self._weights = rng.random(15)
        self._np, self._splu = np, splu
        self.times = {task: [] for task in CAL_NOMINAL_S}
        self._owed = {task: 0.0 for task in CAL_NOMINAL_S}

    def _solve(self):
        for _ in range(self.SORT_REPEAT):
            self._np.sort(self._array)
        self._splu(self._mat).solve(self._rhs)

    def _dispatch(self):
        np, x, heap = self._np, self._nodes, []
        for k in range(self.PANELS):
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                y = np.asarray(np.exp(-x * (1.0 + 1e-3 * k)) * x * x)
            y = np.where(np.isfinite(y), y, 0.0)
            heapq.heappush(heap, (-float(self._weights @ np.abs(y)), k))
            if len(heap) > 50:
                heapq.heappop(heap)

    def sample(self, task: str) -> float:
        t0 = time.process_time()
        getattr(self, "_" + task)()
        dt = time.process_time() - t0
        self.times[task].append(dt)
        return dt

    def after(self, task: str, busy_s: float):
        self._owed[task] += CAL_SHARE * busy_s
        while self._owed[task] > 0.0:
            self._owed[task] -= self.sample(task)

    def mark(self) -> dict:
        return {task: len(t) for task, t in self.times.items()}

    def scale_since(self, task: str, start: int) -> float:
        """Factor that turns times measured since the task's sample `start`
        was due into nominal time (a sample is taken now if none was)."""
        if len(self.times[task]) == start:
            self.sample(task)
        return CAL_NOMINAL_S[task] / statistics.median(
            self.times[task][start:])


class Tally:
    """Per-op wall and CPU times and outcomes of one pass or one run."""

    def __init__(self):
        self.times: list = []
        self.cpu_times: list = []
        self.scaled: list = []  # CPU times at nominal host speed
        self.labels: list = []
        self.kinds: list = []
        self.tasks: list = []  # each op's calibration task
        self.attempted = 0
        self.failed = 0
        self.answered = 0
        self.failures: list = []
        self.child_rss_kb = 0
        self.results: list = []

    def run(self, op: wl.Op, tracer: tracing.Tracer = None,
            calib: Calibration = None):
        span = tracer.begin("op") if tracer else None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            res, err = op.call(), None
        except Exception as exc:  # an op that raises is counted, not fatal
            res, err = None, exc
        dt = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if tracer:
            tracer.end(span)
        if isinstance(res, wl.ChildResult):
            cpu += res.cpu_s
        if calib:
            calib.after(op.calibration, cpu)
        self.times.append(dt)
        self.cpu_times.append(cpu)
        self.labels.append(op.label)
        self.kinds.append(op.kind or op.label)
        self.tasks.append(op.calibration)
        self.attempted += 1
        if isinstance(res, wl.ChildResult):
            self.child_rss_kb = max(self.child_rss_kb, res.maxrss_kb)
        # keep child reports (their stderr holds -X importtime output), not
        # the in-process results, which would inflate the measured RSS
        self.results.append(res if isinstance(res, wl.ChildResult) else None)
        if err is not None:
            if type(err).__name__ == op.expect_error:
                return  # the reference commit raised the same typed error
            msg = "".join(traceback.format_exception_only(err)).strip()
        else:
            msg = op.check(res)
        if msg:
            self.failed += 1
            self.failures.append(f"{op.label}: {msg}")
        else:
            self.answered += 1

    def merge(self, other: "Tally"):
        for key in ("times", "cpu_times", "scaled", "labels", "kinds",
                    "tasks", "failures", "results"):
            getattr(self, key).extend(getattr(other, key))
        for key in ("attempted", "failed", "answered"):
            setattr(self, key, getattr(self, key) + getattr(other, key))
        self.child_rss_kb = max(self.child_rss_kb, other.child_rss_kb)


def run_pass(ops: list, tracer=None, calib: Calibration = None) -> Tally:
    tally = Tally()
    for op in ops:
        tally.run(op, tracer, calib)
    return tally


def tail(times: list):
    """Time at the highest percentile with enough samples beyond it.

    "Enough" is TAIL_BEYOND samples, or a quarter of the samples when there
    are fewer than 4 * TAIL_BEYOND, so the tail is never below the 75th
    percentile and never a lone maximum.  Returns (time, percentile).
    """
    ordered = sorted(times)
    k = len(ordered)
    beyond = min(TAIL_BEYOND, k // 4)
    return ordered[k - beyond - 1], 100.0 * (k - beyond) / k


def typical_op(kinds: list, times: list) -> float:
    """Geometric mean over operation kinds of each kind's median time.

    A workload mixes kinds whose times differ by up to 100x (quad-sweep:
    ~8 ms remainders next to ~0.13 s fits), so the median of all its ops
    would sit in a gap between kinds and jump across it from run to run.
    This weighs every kind alike; with a single kind it is its median.
    """
    by_kind: dict = {}
    for kind, t in zip(kinds, times):
        by_kind.setdefault(kind, []).append(t)
    logs = [math.log(statistics.median(v)) for v in by_kind.values()]
    return math.exp(sum(logs) / len(logs))


def measure(work: wl.Workload, seconds: float, calib: Calibration):
    """A fixed number of whole passes, so every run has the same op mix.

    Returns the tally and each pass's calibration scales.
    """
    total, scales = Tally(), []
    start = time.perf_counter()
    for i in range(work.passes(seconds)):
        if time.perf_counter() - start > HARD_LIMIT_S:
            break
        mark = calib.mark()
        part = run_pass(work.pass_ops(i), calib=calib)
        scale = {task: calib.scale_since(task, mark[task])
                 for task in sorted(set(part.tasks))}
        part.scaled = [t * scale[task]
                       for t, task in zip(part.cpu_times, part.tasks)]
        scales.append(scale)
        total.merge(part)
    return total, scales


def peak_rss_mb(work: wl.Workload, tally: Tally) -> float:
    if isinstance(work, wl.CliCold):
        return tally.child_rss_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(args, work: wl.Workload, setup_times: list,
               setup_scale: float, calib: Calibration):
    tally, pass_scales = measure(work, args.seconds, calib)
    setup_cpu = statistics.median(cpu for _, cpu in setup_times)
    tail_s, tail_pct = tail(tally.scaled)
    metrics = {"setup_s": setup_cpu * setup_scale,
               "op_p50_s": typical_op(tally.kinds, tally.scaled),
               "op_tail_s": tail_s,
               "ok_ratio": tally.answered / tally.attempted,
               "peak_rss_mb": peak_rss_mb(work, tally)}
    raw = {"setup_s": setup_cpu,
           "op_p50_s": typical_op(tally.kinds, tally.cpu_times),
           "op_tail_s": tail(tally.cpu_times)[0]}
    wall = {"setup_s": statistics.median(w for w, _ in setup_times),
            "op_p50_s": typical_op(tally.kinds, tally.times),
            "op_tail_s": tail(tally.times)[0]}
    per_label: dict = {}
    for label, t in zip(tally.labels, tally.cpu_times):
        per_label.setdefault(label, []).append(t)
    info = {"samples": len(tally.times), "tail_percentile": tail_pct,
            "unscaled": raw, "wall": wall,
            "scale": {"setup": setup_scale, "passes": pass_scales},
            "calibration": {task: {"samples": len(t),
                                   "median_s": statistics.median(t)}
                            for task, t in calib.times.items() if t},
            "setup_samples": [{"wall_s": w, "cpu_s": c}
                              for w, c in setup_times],
            "op_median_cpu_s": {k: statistics.median(v)
                                for k, v in sorted(per_label.items())}}
    return tally, metrics, info


def traced(args, work: wl.Workload):
    """One untraced and one traced pass; per-layer metrics from the spans."""
    layers: dict = {"cli.interpreter_s": interpreter_time()}
    plain = run_pass(work.trace_pass())
    if isinstance(work, wl.CliCold):
        with_imports = run_pass(work.importtime_pass())
        splits = [parse_importtime(res.stderr) for res in with_imports.results]
        for key in splits[0]:
            layers[key] = statistics.median(s[key] for s in splits)
        import_of = dict(zip(with_imports.labels,
                             (s["cli.import_s"] for s in splits)))
        layers["cli.run_s"] = statistics.median(
            t - layers["cli.interpreter_s"] - import_of[label]
            for t, label in zip(plain.times, plain.labels))
        spans, traced_tally = [], with_imports
    else:
        _, _, err = timed_setup(args.workload, args.seed, importtime=True)
        layers.update(parse_importtime(err))
        layers["cli.run_s"] = 0.0
        tracer = tracing.Tracer()
        tracing.install(tracer, {m: getattr(work.H, m) for m in
                                 ("bubble", "geometry", "linearized",
                                  "moments", "energy", "reduction")})
        tracer.enabled = True
        traced_tally = run_pass(work.trace_pass(), tracer)
        tracer.enabled = False
        spans = tracer.spans
    layers.update(tracing.layer_metrics(spans))
    p50_plain = typical_op(plain.kinds, plain.times)
    p50_traced = typical_op(traced_tally.kinds, traced_tally.times)
    layers["trace.op_p50_s"] = p50_traced
    layers["trace.overhead_s"] = p50_traced - p50_plain
    layers["trace.ops"] = len(traced_tally.times)
    plain.merge(traced_tally)
    return plain, layers, {"samples": len(plain.times)}


# ------------------------------------------------------------------ output


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    for mod in (numpy, scipy):
        try:
            blas[mod.__name__] = mod.__config__.CONFIG[
                "Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError):
            blas[mod.__name__] = "unknown"
    return {"nproc": os.cpu_count(), "pinned_cpu": PINNED_CPU,
            "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas,
            "threads_env": {v: os.environ[v] for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}}


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def result_line(tally: Tally, values: dict, units: dict) -> dict:
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"declared metrics not measured: {missing}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def run_one(args) -> int:
    units = declared_metrics(bool(args.trace))
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=wl.ROOT))
    try:
        if args.trace:
            timed_setup(args.workload, args.seed)  # fail fast, untimed
            work = wl.build(args.workload, args.seed, tmp)
            tally, values, info = traced(args, work)
        else:
            calib = Calibration()
            setup_times = []
            for _ in range(SETUP_PROBES):
                wall, cpu, _ = timed_setup(args.workload, args.seed)
                setup_times.append((wall, cpu))
                calib.after("solve", cpu)
            setup_scale = calib.scale_since("solve", 0)
            work = wl.build(args.workload, args.seed, tmp)
            tally, values, info = end_to_end(args, work, setup_times,
                                             setup_scale, calib)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    info.update({"workload": args.workload, "seed": args.seed,
                 "trace": args.trace, "seconds": args.seconds,
                 "failures": tally.failures[:MAX_REPORTED_FAILURES],
                 "environment": environment()})
    print(json.dumps({"info": info}))
    print(json.dumps(result_line(tally, values, units)))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=wl.ROOT, text=True,
                              stdout=subprocess.PIPE)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            print(f"{name:12s} {metric:44s} {val['value']:.6g} {val['unit']}")
            combined["metrics"][f"{name}/{metric}"] = val
    print(json.dumps(combined))
    return 0


def probe(args) -> int:
    """Set the workload up in this fresh interpreter, then report ready."""
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=wl.ROOT))
    try:
        wl.build(args.probe, args.seed, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("ready", time.process_time(), flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*wl.WORKLOADS, "all"),
                    default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=wl.WORKLOADS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.probe:
            return probe(args)
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except Exception:  # report and exit non-zero without a result line
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
