"""eprgeo benchmark: seeded closed-loop workloads, end-to-end and per-layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pairs|dephasing|orbits \\
        --seed N --seconds S --trace 0|1

One client in one process and one thread runs items back to back (a closed
loop).  ``--trace 0`` measures the end-to-end metrics over ``--seconds`` of
rounds, with the times scaled to a reference host speed (see PROBE_REF_S);
``--trace 1`` runs a fixed number of rounds untraced, then the same rounds
traced (see bench_trace.py), and reports the per-layer metrics.  The last
line of standard output is the result object; the line before it holds
metadata and the figures that are not gated (error rate, tail latency, the
unscaled times).  Both, and the spans of a traced run, are also written
under ``.perfbench_out/`` in the checkout.

The program is imported from ``src/`` of the checkout; without it the run
fails before printing a result.
"""

from __future__ import annotations

import os

# pinned before numpy is first imported, here and in the set-up probes
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("pairs", "dephasing", "orbits")
SETUP_PROBES = 4
# the tail is the highest percentile with this many items beyond it, and is
# reported only from runs with at least TAIL_MIN_ITEMS items
TAIL_BEYOND = 10
TAIL_MIN_ITEMS = 50
TRACE_PASS_FACTOR = 2.3  # untraced plus traced pass, in nominal round times
# A shared host's speed can drift by half over seconds to minutes, so the
# gated times are scaled to a reference speed: each item's latency is
# multiplied by PROBE_REF_S over the median time of the speed probes run
# from PROBE_WINDOW_S before the item starts to PROBE_WINDOW_S after it
# ends.  One probe is noisy; a window of seconds still follows the drift.
# The unscaled figures are reported beside them.
PROBE_REF_S = 0.0025
PROBE_WINDOW_S = 8.0
SETUP_SPEED_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small inputs, for the self-check")
    p.add_argument("--setup-only", action="store_true", help="time the set-up and exit")
    return p.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter loops and small numpy calls."""
    import numpy as np

    t0 = perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += i * 0.5
    a = np.linspace(-1.0, 1.0, 1024).reshape(32, 32)
    for _ in range(100):
        a = np.tanh(a @ a.T / 32.0)
    return perf_counter() - t0


def scaled_setup(raw_s: float) -> float:
    """A set-up time scaled to the reference speed, probed right after it."""
    return raw_s * PROBE_REF_S / statistics.median(speed_probe() for _ in range(SETUP_SPEED_PROBES))


def setup(args):
    """Import eprgeo, generate and parse the inputs; returns (module, rounds, s)."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import bench_workloads as bw

    import eprgeo

    if Path(eprgeo.__file__).resolve().parent != SRC / "eprgeo":
        raise RuntimeError(f"eprgeo imported from {eprgeo.__file__}, not from {SRC}")
    rate = bw.ROUNDS_PER_S[args.workload]
    if args.trace:
        n_rounds = max(1, round(args.seconds * rate / TRACE_PASS_FACTOR))
    else:
        n_rounds = math.ceil(args.seconds * rate * 1.25) + 1
    rounds = bw.generate(args.workload, args.seed, n_rounds, tiny=args.tiny)
    bw.validate(rounds)
    return bw, rounds, perf_counter() - t0


class Tally:
    """Attempted items, their latencies, and what went wrong with them."""

    def __init__(self, bw, reference_csv: str | None, probe: bool = False):
        self.bw = bw
        self.reference_csv = reference_csv
        # speed probe times, one before the first item and one after each,
        # and when each probe and each item ran
        self.probes: list[float] = []
        self.probe_at: list[float] = []
        self.latencies: list[float] = []
        self.spans: list[tuple[float, float]] = []
        if probe:
            self.probe()
        self.failed_items = 0
        self.wrong = False
        self.problems: list[str] = []

    def run(self, item, tracer=None) -> None:
        t0 = perf_counter()
        try:
            if tracer:
                out = tracer.run_item(item.index, self.bw.run_item, item)
            else:
                out = self.bw.run_item(item)
        except Exception as exc:  # an item that raises is a failed item, not a crash
            out = None
            found = [("failed", f"{type(exc).__name__}: {exc}")]
        t1 = perf_counter()
        self.latencies.append(t1 - t0)
        self.spans.append((t0, t1))
        if self.probes:
            self.probe()
        if out is not None:
            found = self.bw.check(item, out)
        if item.index == 0 and out != self.reference_csv:
            found.append(("wrong", "re-run of the first item is not byte-identical"))
        if found:
            self.failed_items += 1
            self.wrong |= any(kind == "wrong" for kind, _ in found)
            self.problems += [f"{item.workload}[{item.index}] {kind}: {msg}" for kind, msg in found]

    def probe(self) -> None:
        t = speed_probe()
        self.probes.append(t)
        self.probe_at.append(perf_counter() - 0.5 * t)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled_latencies(self) -> list[float]:
        out = []
        for d, (t0, t1) in zip(self.latencies, self.spans):
            lo, hi = t0 - PROBE_WINDOW_S, t1 + PROBE_WINDOW_S
            near = [p for p, at in zip(self.probes, self.probe_at) if lo <= at <= hi]
            out.append(d * PROBE_REF_S / statistics.median(near))
        return out


def timed_loop(rounds, seconds: float, tally: Tally) -> float:
    """Run rounds in order, cycling, until `seconds` have passed; returns wall time."""
    start = perf_counter()
    k = 0
    while True:
        for item in rounds[k % len(rounds)]:
            tally.run(item)
        k += 1
        if perf_counter() - start >= seconds:
            return perf_counter() - start


def run_once(rounds, tally: Tally, tracer=None) -> float:
    """Run every round once; returns wall time."""
    start = perf_counter()
    for rnd in rounds:
        for item in rnd:
            tally.run(item, tracer)
    return perf_counter() - start


def setup_probes(args) -> list[dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        out.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return out


def tail(latencies: list[float]):
    n = len(latencies)
    if n < TAIL_MIN_ITEMS:
        return None
    k = n - 1 - TAIL_BEYOND
    return {"value_s": sorted(latencies)[k], "percentile": 100.0 * (k + 1) / n, "items": n}


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def metadata() -> dict:
    import numpy

    import eprgeo

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "eprgeo": eprgeo.__version__,
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eprgeo" / "__init__.py").is_file():
        return fail(f"no eprgeo sources under {SRC}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    bw, rounds, setup_s = setup(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "scaled_setup_s": scaled_setup(setup_s)}))
        return 0

    # warm-up, untimed; its report is the reference for the re-run check
    try:
        warm = bw.run_item(rounds[0][0])
    except Exception:  # the timed run of the same item records the failure
        warm = None
    tally = Tally(bw, warm, probe=not args.trace)
    extra = {}
    if args.trace:
        import bench_trace

        untraced = run_once(rounds, tally)
        tracer = bench_trace.Tracer()
        tracer.install()
        try:
            traced = run_once(rounds, tally, tracer)
        finally:
            tracer.uninstall()
        metrics = bench_trace.layer_metrics(tracer, untraced, traced)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json.gz"
        tracer.write_spans(spans_path)
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
        extra["counters"] = dict(sorted(tracer.counters.items()))
    else:
        elapsed = timed_loop(rounds, args.seconds, tally)
        samples = [{"setup_s": setup_s, "scaled_setup_s": scaled_setup(setup_s)}] + setup_probes(args)
        scaled = tally.scaled_latencies()
        # every round has the same number of items, and the loop stops only
        # between rounds; the median round outlasts slow spells of the host
        per_round = len(rounds[0])
        round_s = [sum(scaled[i : i + per_round]) for i in range(0, len(scaled), per_round)]
        metrics = {
            "setup_s": (statistics.median(x["scaled_setup_s"] for x in samples), "s"),
            "items_per_s": (per_round / statistics.median(round_s), "1/s"),
            "item_p50_s": (statistics.median(scaled), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        extra["unscaled"] = {
            "setup_s": statistics.median(x["setup_s"] for x in samples),
            "items_per_s": tally.attempted / elapsed,
            "item_p50_s": statistics.median(tally.latencies),
            "item_tail_s": tail(tally.latencies),
        }
        extra["item_tail_s"] = tail(scaled)
        extra["setup_samples"] = samples
        extra["elapsed_s"] = elapsed

    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed_items,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    side = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "meta": metadata(),
        "error_rate": tally.failed_items / tally.attempted,
        **extra,
        "problems": tally.problems[:50],
    }
    OUT.mkdir(exist_ok=True)
    record = {**side, "latencies_s": tally.latencies, "probes_s": tally.probes, "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    side.pop("counters", None)
    print(json.dumps(side))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
