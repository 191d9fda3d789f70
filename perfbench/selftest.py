"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

Runs every workload untraced and traced, each in a fresh process, and
asserts that every metric named in BENCHMARK.json is printed with its
unit, that no op failed, that the report names every op-kind throughput
and ``failed_ratio``, that the same seed repeats inputs and work counts
exactly, and that the benchmark refuses to run without the library.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPORT_NAMES = (
    "failed_ratio",
    "op_p50_ms",
    "op_tail_ms",
    "validate_rows_per_s",
    "satisfies_rows_per_s",
    "naive_rows_per_s",
    "implies_per_s",
    "derive_per_s",
    "check_per_s",
    "armstrong_per_s",
)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def parse(out: subprocess.CompletedProcess, what: str) -> tuple[dict, dict, list[str]]:
    if out.returncode != 0:
        raise AssertionError(f"{what}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(next(ln for ln in lines if ln.startswith("# meta "))[len("# meta "):])
    return result, meta, lines[:-1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    for wl in spec["workloads"]:
        name = wl["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{name} trace={trace}"
            result, meta, report = parse(bench(name, 7, trace), what)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{what}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{what}: correct={result['correct']} failed={result['failed']}")
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{what}: metrics {got} differ from BENCHMARK.json {wanted}")
            if trace == 0:
                for rname in REPORT_NAMES:
                    if not any(ln.startswith(f"# {rname} ") for ln in report):
                        problems.append(f"{what}: report lacks {rname}")
                if not any(ln.startswith("# failed_ratio 0.000000 ") for ln in report):
                    problems.append(f"{what}: failed_ratio is not 0")
            else:
                again, meta2, _ = parse(bench(name, 7, trace), what + " (repeat)")
                counts = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "ratio")}
                counts.pop("trace.overhead_ratio")
                counts2 = {k: again["metrics"][k]["value"] for k in counts}
                if counts != counts2:
                    problems.append(f"{what}: per-layer counts differ between runs of one seed")
                if (meta["inputs_sha256"], meta["counts_sha256"]) != (meta2["inputs_sha256"], meta2["counts_sha256"]):
                    problems.append(f"{what}: inputs or work counts differ between runs of one seed")
                other = parse(bench(name, 8, trace), what + " (seed 8)")[1]
                if other["inputs_sha256"] == meta["inputs_sha256"]:
                    problems.append(f"{what}: seeds 7 and 8 gave the same inputs")

    # Without src/ next to it the benchmark must fail and print no result.
    (ROOT / ".perfbench_run").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_run"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = bench(spec["workloads"][0]["name"], 7, 0, cwd=bare)
        if out.returncode == 0 or '"metrics"' in out.stdout:
            problems.append("runs without the library next to it")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
