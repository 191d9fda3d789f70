"""keysets benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload validate-bulk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The benchmark is one single-threaded closed loop: it asks the library one
question (an op), waits for the answer, checks it, and asks the next. A
pass runs the workload's whole batch of ops once; passes repeat and stop
at the pass boundary nearest to ``--seconds`` (at least one pass runs).

``--trace 0`` prints the end-to-end metrics. Op times are also divided by
the mean of the calibration samples (``spans.calibrate``) taken just
before and after the op, at most a second away, which cancels much of
the phases in which a shared machine runs everything slower;
``batch_cal`` and ``kind_geomean_cal`` are in those units, and the raw
seconds are printed beside them. Set-up samples are taken between ops
all through the run. ``--trace 1`` alternates untraced
and traced passes over the same inputs and prints the per-layer metrics,
taken from the traced passes' spans, plus the tracing overhead. Report
lines start with ``#``; the last line is the JSON result.
"""

import os

# Pin native thread pools before numpy is imported, here and in probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from inputs import WORKLOADS, digests
from spans import Stopwatch, Tracer, calibrate, plain

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_EVERY_S = 2.0
SETUP_PROBES_MIN = 9
CALIBRATE_EVERY_S = 1.0
MAX_FAILURES_SHOWN = 5

# Throughput per op kind, printed as report lines: (name, unit, op kind).
KIND_RATES = (
    ("validate_rows_per_s", "rows/s", "validate"),
    ("satisfies_rows_per_s", "rows/s", "satisfies"),
    ("naive_rows_per_s", "rows/s", "naive"),
    ("implies_per_s", "questions/s", "implies"),
    ("derive_per_s", "proofs/s", "derive"),
    ("check_per_s", "proofs/s", "check"),
    ("armstrong_per_s", "families/s", "armstrong"),
)

PER_LAYER_TIMES = {
    # metric: span keys ("layer.name") summed
    "ingest.load_csv_s": ("ingest.load_csv",),
    "core.parse_keysets_s": ("core.parse_keyset_lines", "core.parse_schema", "core.parse_keyset"),
    "implication.load_s": ("implication.parse_dimacs", "implication.from_3sat"),
    "validation.violating_blocks_s": ("validation.violating_blocks",),
    "validation.satisfies_s": ("validation.satisfies",),
    "validation.naive_s": ("validation.naive",),
    "validation.block_trace_s": ("validation.block_trace",),
    "implication.implies_s": ("implication.implies",),
    "inference.derive_keyset_s": ("inference.derive_keyset",),
    "inference.format_derivation_s": ("inference.format_derivation",),
    "inference.parse_derivation_s": ("inference.parse_derivation",),
    "inference.check_derivation_s": ("inference.check_derivation",),
    "armstrong.anti_keys_s": ("armstrong.anti_keys",),
    "armstrong.generate_armstrong_s": ("armstrong.generate_armstrong",),
}

# Per-layer counts summed over one pass (peaks take the maximum).
PER_LAYER_COUNTS = {
    "validation.violating_rows": "violating_rows",
    "validation.raw_blocks": "raw_blocks",
    "validation.maximal_blocks": "maximal_blocks",
    "implication.choice_product": "choice_product",
    "inference.steps": "steps",
    "inference.proof_bytes": "proof_bytes",
    "armstrong.transversals": "transversals",
    "armstrong.rows": "armstrong_rows",
}
PER_LAYER_PEAKS = {
    "validation.peak_blocks_per_key": "peak_blocks_per_key",
    "validation.peak_block_rows": "peak_block_rows",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny is for the self-test")
    return p.parse_args(argv)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def setup_sample(workload: str, indir: Path) -> float:
    """Set-up time of one fresh process (see ``probe.py``)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(indir)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


class Loop:
    """Runs passes over the ops, checking answers and work counts.

    With a ``probe``, a set-up sample is also taken between ops every
    ``SETUP_EVERY_S`` seconds, so the samples spread over the whole run
    rather than landing in one slow phase of a shared machine.
    """

    def __init__(self, ops, probe=None):
        self.ops = ops
        self.probe = probe
        self.setup: list[float] = []
        self.probed_at = float("-inf")
        self.latency = [[] for _ in ops]  # per op, one entry per pass
        self.cal_index = [[] for _ in ops]  # the calibration sample just before
        self.calibration: list[float] = []
        self.calibrated_at = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.reference: list[dict] = [{} for _ in ops]
        self.check_s: list[float] = []

    def fail(self, op, message: str) -> None:
        self.failed += 1
        self.failures.append(f"{op.kind} {op.label}: {message}")

    def calibrate(self) -> None:
        self.calibration.append(calibrate())
        self.calibrated_at = perf_counter()

    def run_pass(self, call, tracer=None) -> tuple[list[float], list[dict]]:
        """One pass; returns each op's latency and work counts.

        Between ops, a calibration sample is taken once a second.
        """
        traced = tracer is not None
        lat, counts, check_s, before = [], [], 0.0, []
        if not self.calibration:
            self.calibrate()
        for i, op in enumerate(self.ops):
            if self.probe and perf_counter() - self.probed_at >= SETUP_EVERY_S:
                self.setup.append(self.probe())
                self.probed_at = perf_counter()
            if perf_counter() - self.calibrated_at >= CALIBRATE_EVERY_S:
                self.calibrate()
            before.append(len(self.calibration) - 1)
            gc.collect()
            if traced:
                tracer.op_id = len(self.latency[0]) * len(self.ops) + i
            self.attempted += 1
            error = None
            watch = Stopwatch()
            try:
                answer = op.run(call, traced)
            except Exception as exc:  # a failing op is counted, not fatal
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = watch.elapsed()
            if traced:
                tracer.spans.append((tracer.op_id, "bench", op.kind, watch.wall, elapsed))
                tracer.op_id = None
            lat.append(elapsed)
            c0 = perf_counter()
            got: dict = {}
            if error is None:
                try:
                    error = op.check(answer)
                    got = op.counts(answer)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            ref = self.reference[i]
            changed = [k for k in got if k in ref and ref[k] != got[k]]
            if error is None and changed:
                error = "work counts changed between passes: " + ", ".join(
                    f"{k} {ref[k]} -> {got[k]}" for k in changed
                )
            ref.update(got)
            if error is not None:
                self.fail(op, error)
            counts.append(got)
            check_s += perf_counter() - c0
        self.calibrate()
        for i, (t, k) in enumerate(zip(lat, before)):
            self.latency[i].append(t)
            self.cal_index[i].append(k)
        self.check_s.append(check_s)
        return lat, counts

    def scaled(self) -> list[list[float]]:
        """Latencies in calibration units: each op divides by the mean of
        the samples just before and just after it."""
        cal = self.calibration
        return [
            [2 * t / (cal[k] + cal[k + 1]) for t, k in zip(lat, idx)]
            for lat, idx in zip(self.latency, self.cal_index)
        ]

    def counts_digest(self) -> str:
        return hashlib.sha256(json.dumps(self.reference, sort_keys=True).encode()).hexdigest()


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 values beyond it, and that
    percentile; the maximum (p100) when there are 10 values or fewer."""
    s = sorted(values)
    if len(s) <= 10:
        return s[-1], 100.0
    idx = len(s) - 11
    return s[idx], 100.0 * (idx + 1) / len(s)


def kind_rates(loop: Loop) -> dict[str, float | None]:
    """Rows (validation kinds) or answers per second of busy time."""
    out = {}
    for name, _, kind in KIND_RATES:
        work = busy = 0.0
        for op, lat in zip(loop.ops, loop.latency):
            if op.kind == kind:
                work += op.rows * len(lat)
                busy += sum(lat)
        out[name] = work / busy if busy > 0 else None
    return out


def batch_and_kinds(loop: Loop, latency: list[list[float]]) -> tuple[float, float]:
    """The batch total and the geometric mean over op kinds of the mean op
    latency, from per-op medians over the passes, so every op of the batch
    counts once however many passes fit in the run."""
    medians = [statistics.median(lat) for lat in latency]
    by_kind: dict[str, list[float]] = {}
    for op, m in zip(loop.ops, medians):
        by_kind.setdefault(op.kind, []).append(m)
    return sum(medians), statistics.geometric_mean(statistics.fmean(v) for v in by_kind.values())


def end_to_end(loop: Loop, setup: list[float]) -> dict[str, tuple[float, str]]:
    batch, kinds = batch_and_kinds(loop, loop.scaled())
    return {
        "setup_s": (statistics.median(setup), "s"),
        "batch_cal": (batch, "cal"),
        "kind_geomean_cal": (kinds, "cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, load_spans: int, passes: list, csv_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced passes (medians over passes for
    times, counts from the first traced pass, which later passes repeat)."""
    load = tracer.busy(0, load_spans)
    out: dict[str, tuple[float, str]] = {}
    for metric in ("ingest.load_csv_s", "core.parse_keysets_s", "implication.load_s"):
        out[metric] = (sum(load.get(k, 0.0) for k in PER_LAYER_TIMES[metric]), "s")
    load_csv = out["ingest.load_csv_s"][0]
    out["ingest.mb_per_s"] = (csv_bytes / 1e6 / load_csv if load_csv > 0 else 0.0, "MB/s")

    busy_by_pass = [tracer.busy(first, last) for first, last, _ in passes]
    for metric, keys in PER_LAYER_TIMES.items():
        if metric not in out:
            out[metric] = (statistics.median(sum(b.get(k, 0.0) for k in keys) for b in busy_by_pass), "s")
    out["validation.filter_s"] = (
        out["validation.violating_blocks_s"][0] - out["validation.block_trace_s"][0],
        "s",
    )

    counts = passes[0][2]
    for metric, key in PER_LAYER_COUNTS.items():
        out[metric] = (sum(c.get(key, 0) for c in counts), "count")
    for metric, key in PER_LAYER_PEAKS.items():
        out[metric] = (max((c.get(key, 0) for c in counts), default=0), "count")
    raw = out["validation.raw_blocks"][0]
    out["validation.maximal_ratio"] = (out["validation.maximal_blocks"][0] / raw if raw else 0.0, "ratio")
    questions = [c["implied"] for c in counts if "implied" in c]
    out["implication.implied_share"] = (sum(questions) / len(questions) if questions else 0.0, "ratio")
    return out


def run(args, indir: Path) -> int:
    import numpy as np

    indir.mkdir()
    subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), args.workload, str(args.seed), str(indir), args.scale],
        cwd=ROOT,
        check=True,
        timeout=120,
    )
    inputs = digests(indir)

    import keysets

    if not Path(keysets.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported keysets from {keysets.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from load import CSV_NAMES, load_inputs
    from ops import build_ops

    tracer = Tracer() if args.trace else None
    loaded = load_inputs(args.workload, indir, tracer or plain)
    load_spans = len(tracer.spans) if tracer else 0
    c0 = perf_counter()
    ops = build_ops(args.workload, loaded, indir)
    oracle_s = perf_counter() - c0

    probe = None if args.trace else lambda: setup_sample(args.workload, indir)
    loop = Loop(ops, probe)
    walls = {False: [], True: []}
    traced_passes = []  # (first span, last span, counts)
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        first = len(tracer.spans) if tracer else 0
        lat, counts = loop.run_pass(tracer if traced else plain, tracer if traced else None)
        wall = sum(lat)
        if traced:
            wall -= tracer.busy(first).get("validation.block_trace", 0.0)
            traced_passes.append((first, len(tracer.spans), counts))
        walls[traced].append(wall)
        # Stop at the pass boundary nearest to --seconds.
        done = len(walls[False]) + len(walls[True])
        elapsed = perf_counter() - start
        need_traced = bool(args.trace) and not walls[True]
        if not need_traced and elapsed + elapsed / done / 2 > args.seconds:
            break

    while probe and len(loop.setup) < (1 if args.scale == "tiny" else SETUP_PROBES_MIN):
        loop.setup.append(probe())
    setup = loop.setup

    if args.trace:
        metrics = per_layer(tracer, load_spans, traced_passes, sum(
            d["bytes"] for name, d in inputs.items() if name in CSV_NAMES.values()
        ))
        metrics["bench.check_s"] = (statistics.median(loop.check_s), "s")
        metrics["trace.overhead_ratio"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1,
            "ratio",
        )
        trace_file = RUN_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.dump(trace_file)
    else:
        metrics = end_to_end(loop, setup)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "passes": len(walls[False]) + len(walls[True]),
        "ops_per_pass": len(ops),
        "inputs_sha256": hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest(),
        "counts_sha256": loop.counts_digest(),
        "inputs": inputs,
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    if setup:
        print("# setup_s samples: " + " ".join(f"{s:.4f}" for s in setup))
    print(f"# oracle precompute: {oracle_s:.3f} s (benchmark's own checks, excluded)")
    for line in loop.failures[:MAX_FAILURES_SHOWN]:
        print(f"# FAILED {line}")
    print(f"# failed_ratio {loop.failed / loop.attempted:.6f} ratio ({loop.failed} of {loop.attempted} ops)")
    if not args.trace:
        rates = kind_rates(loop)
        for name, unit, _ in KIND_RATES:
            value = rates[name]
            print(f"# {name} " + ("n/a (op kind not in this workload)" if value is None else f"{value:.6g} {unit}"))
        medians = [statistics.median(lat) for lat in loop.latency]
        tail_s, tail_pct = tail(medians)
        batch, kinds = batch_and_kinds(loop, loop.latency)
        print(f"# op_p50_ms {1000 * statistics.median(medians):.6g} ms")
        print(f"# op_tail_ms {1000 * tail_s:.6g} ms (p{tail_pct:.1f} of {len(ops)} per-op medians)")
        print(f"# batch_s {batch:.6g} s")
        print(f"# kind_geomean_ms {1000 * kinds:.6g} ms")
        print(f"# calibration_ms {1000 * statistics.median(loop.calibration):.6g} ms (median of {len(loop.calibration)})")
    else:
        print(f"# spans written to {trace_file.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value if isinstance(value, int) else format(value, '.6g')} {unit}")

    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "keysets" / "__init__.py").is_file():
        print(f"error: no keysets package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RUN_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=RUN_DIR))
    try:
        return run(args, tmp / "inputs")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
