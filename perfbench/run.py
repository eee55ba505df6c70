"""Benchmark of the sedtk toolkit over three seeded workloads.

    python3 perfbench/run.py --workload feature-path|tune|score --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Generates the workload's inputs from the
seed, measures set-up in several fresh processes, then runs the timed
rounds in one worker process: one caller, closed loop. The last stdout line
is the JSON result; the lines before it name every figure with its unit,
plus the environment. With ``--trace 0`` the result holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of the traced rounds.
Exits 2 without a result when the checkout has no ``src/sedtk``.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Cap native thread pools at the CPUs this process may use; children inherit.
for _var in THREAD_VARS:
    _have = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_have), NPROC) if _have.isdigit() and int(_have) > 0 else NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import per_layer_catalogue  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("feature-path", "tune", "score")
SETUP_PROBES = 2        # extra fresh processes; the worker's own set-up is one more sample
DEADLINE_S = 170        # the whole run, generation and set-up included
END_TO_END_UNITS = {"setup_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB"}


def environment() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": NPROC, "cpu": cpu or platform.processor(), "caches": caches,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _last_json(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the self-test")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "sedtk" / "__init__.py").is_file():
        print(f"error: no src/sedtk under {ROOT}; run from a sedtk checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / args.workload
    inputs, out = work / "inputs", work / "out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    py = sys.executable
    worker = [py, str(HERE / "worker.py"), "--workload", args.workload,
              "--inputs", str(inputs), "--out", str(out)]
    try:
        subprocess.run([py, str(HERE / "gen.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--size", args.size, "--out", str(inputs)],
                       check=True, timeout=max(1.0, deadline - time.monotonic()))
        setup = []
        for _ in range(SETUP_PROBES):
            probe = subprocess.run(worker + ["--setup-only"], check=True, capture_output=True,
                                   text=True, timeout=max(1.0, deadline - time.monotonic()))
            setup.append(_last_json(probe.stdout))
        run = subprocess.run(
            worker + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--spans", str(work / "spans.json")],
            capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}\n{getattr(exc, 'stderr', '') or ''}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
    if run.returncode != 0:
        print(f"error: worker exited {run.returncode}\n{run.stderr[-2000:]}", file=sys.stderr)
        return 2
    res = _last_json(run.stdout)

    setup_samples = [s["setup_s"] for s in setup] + [res["setup_s"]]
    failed = res["failed"] + sum(s["failed"] for s in setup)
    attempted = max(1, res["attempted"])
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "environment": environment(),
        "rounds": res["rounds"], "round_wall_s": res["round_wall_s"],
        "round_cpu_s": res["round_cpu_s"], "round_kernel_s": res["round_kernel_s"],
        "settle_wall_s": res["settle_wall_s"],
        "setup_samples_s": [round(s, 4) for s in setup_samples],
        "setup_wall_samples_s": [round(s["setup_wall_s"], 4) for s in [*setup, res]],
        "failed_ratio": failed / attempted, "failures": res["failures"],
    }
    for key in ("grid_psds", "traced_rounds", "missing", "missing_expected", "errors",
                "unpatched", "uncounted"):
        if key in res:
            detail[key] = res[key]

    if args.trace:
        units = per_layer_catalogue()
        metrics = {k: {"value": res["per_layer"][k], "unit": u} for k, u in units.items()}
        print(f"tracing overhead: traced wall_s {res['traced_wall_s']:.4f} s - untraced "
              f"wall_s {res['wall_s']:.4f} s = {res['per_layer']['trace.overhead_s']:.4f} s")
    else:
        values = {"setup_s": statistics.median(setup_samples), "cpu_ref_s": res["cpu_ref_s"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        figures = {"wall_s": (res["wall_s"], "s"), "cpu_s": (res["cpu_s"], "s"),
                   **res["workload_metrics"]}
        for name, (value, unit) in figures.items():
            detail[name] = {"value": value, "unit": unit}
            print(f"{name} = {value:.6g} {unit}")
    never_fired = {f"{s}.{k}" for s in res.get("missing", ()) for k in ("self_s", "calls")}
    for name, m in metrics.items():
        shown = "missing (never fired)" if name in never_fired else f"{m['value']:.6g} {m['unit']}"
        print(f"{name} = {shown}")
    print(f"failed_ratio = {failed}/{attempted} = {failed / attempted:.6g} ratio")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
