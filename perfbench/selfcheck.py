"""Self-check of the benchmark on tiny inputs.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It checks that one seed gives identical inputs twice and another seed
different inputs; that two traced passes over the same inputs give
identical counters; that run.py emits every metric of BENCHMARK.json with
its unit, in both modes, on every workload; and that run.py fails without
printing a result where the eprgeo sources are missing.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def keys(workload: str, seed: int) -> list[str]:
    return [item.key for rnd in bw.generate(workload, seed, 2, tiny=True) for item in rnd]


def traced_counts(workload: str, seed: int) -> dict:
    rounds = bw.generate(workload, seed, 1, tiny=True)
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        for item in rounds[0]:
            tracer.run_item(item.index, bw.run_item, item)
    finally:
        tracer.uninstall()
    metrics = bench_trace.layer_metrics(tracer, 1.0, 1.0)
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for w in names:
        expect(keys(w, 1) == keys(w, 1), f"{w}: one seed gives identical inputs")
        expect(keys(w, 1) != keys(w, 2), f"{w}: another seed gives different inputs")
        expect(traced_counts(w, 1) == traced_counts(w, 1), f"{w}: one seed gives identical counters")

    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in names:
        for trace in (0, 1):
            done = run(["--workload", w, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"])
            why = done.stderr[-300:] if done.returncode else ""
            expect(done.returncode == 0, f"{w} --trace {trace}: exit code 0 {why}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace], f"{w} --trace {trace}: every metric emitted with its unit")
            expect(result["correct"] is True and result["attempted"] >= 1, f"{w} --trace {trace}: outputs correct")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run(["--workload", "pairs", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    expect(done.returncode != 0 and not done.stdout.strip(), "fails without a result when src/ is missing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
