"""One benchmark process: set-up, timed rounds, output checks, a JSON result.

    python3 perfbench/worker.py --workload W --inputs DIR --out DIR \
        --seconds S --trace 0|1 [--spans FILE] [--setup-only]

Started by ``run.py``, which generates the inputs and caps the BLAS/OpenMP
threads first. Set-up is the import of ``sedtk`` and ``sedtk.cli`` from the
checkout's ``src`` plus one untimed warm-up round on the tiny inputs under
DIR/warmup. After one settling round, rounds repeat until S seconds have
passed, each between two runs of the calibration kernel (``calib.py``).
With ``--trace 1`` rounds alternate between untraced and traced, so the
tracing overhead is the difference of their median wall times. The last
stdout line is the JSON result; ``run.py`` turns it into the report.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calib
import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_sedtk():
    sys.path.insert(0, str(SRC))
    import sedtk
    import sedtk.cli  # noqa: F401

    if Path(sedtk.__file__).resolve().parent != (SRC / "sedtk").resolve():
        raise SystemExit(f"error: imported sedtk from {sedtk.__file__}, not {SRC}")


def _per_layer(tracer, plan, traced, untraced) -> dict:
    n = max(1, len(traced))
    self_s, calls = tracer.self_times()
    values = {}
    for name in spans.per_layer_catalogue():
        if name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0) / n
        elif name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0) / n
        elif name in spans.COUNTS:
            values[name] = tracer.counts.get(name, 0) / n
    clip_points = plan.get("clips", 0) * plan.get("grid_points", 1)
    detect_calls = calls.get("sebb.detect_sebbs", 0) / n
    values["sebb.detect_per_clip_point"] = detect_calls / clip_points if clip_points else 0.0
    values["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced)
    ) if traced and untraced else 0.0
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None, help="write the traced spans here")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    inputs, out = Path(args.inputs), Path(args.out)

    start, start_cpu = time.perf_counter(), time.process_time()
    _import_sedtk()
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    warm_ctx = workloads.Context()
    warm = cls(inputs / "warmup", out / "warmup", warm_ctx)
    warm.run_round()
    setup = {"setup_wall_s": time.perf_counter() - start,
             "setup_cpu_s": time.process_time() - start_cpu}
    kernel = (calib.kernel_cpu_s() + calib.kernel_cpu_s()) / 2
    setup["setup_s"] = calib.to_reference(setup["setup_cpu_s"], kernel)
    if args.setup_only:
        print(json.dumps({**setup, "failed": warm_ctx.failed}))
        return 0

    ctx = workloads.Context()
    ctx.attempted, ctx.failed = warm_ctx.attempted, warm_ctx.failed
    ctx.failures = list(warm_ctx.failures)
    tracer = spans.Tracer() if args.trace else None
    wl = cls(inputs, out, ctx)
    untraced, traced = [], []
    t0 = time.perf_counter()
    try:  # the first full-size round fills allocator and file caches; not counted
        settle = wl.run_round()
    except Exception as exc:
        ctx.fail(f"round raised {type(exc).__name__}: {exc}")
        settle = None
    kernel = calib.kernel_cpu_s()
    while settle is not None:
        use_trace = tracer is not None and len(untraced) > len(traced)
        try:
            if use_trace:
                ctx.tracer = tracer
                with tracer.installed():
                    r = wl.run_round()
                ctx.tracer = None
            else:
                r = wl.run_round()
        except Exception as exc:  # the program failed mid-round: stop timing
            ctx.fail(f"round raised {type(exc).__name__}: {exc}")
            break
        # the kernel runs on both sides of a round; their mean is its speed
        after = calib.kernel_cpu_s()
        r["kernel_s"] = (kernel + after) / 2
        r["cpu_ref_s"] = calib.to_reference(r["cpu_s"], r["kernel_s"])
        kernel = after
        (traced if use_trace else untraced).append(r)
        # stop before a round that would end past the measuring time
        done = time.perf_counter() - t0 + r["wall_s"] > args.seconds
        if done and (tracer is None or traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = json.loads((Path(__file__).parent / "reference.json").read_text(encoding="utf-8"))
    try:
        wl.check_rounds()
        wl.check(reference)
    except Exception as exc:  # unreadable or malformed output
        ctx.fail(f"output check raised {type(exc).__name__}: {exc}")

    rounds = untraced

    def median(key):
        return statistics.median(r[key] for r in rounds) if rounds else 0.0

    result = {
        **setup,
        "wall_s": median("wall_s"),
        "cpu_s": median("cpu_s"),
        "cpu_ref_s": median("cpu_ref_s"),
        "rounds": len(rounds),
        "round_wall_s": [round(r["wall_s"], 4) for r in rounds],
        "round_cpu_s": [round(r["cpu_s"], 4) for r in rounds],
        "round_kernel_s": [round(r["kernel_s"], 4) for r in rounds],
        "settle_wall_s": settle["wall_s"] if settle else None,
        "peak_rss_mb": peak_rss_mb,
        "workload_metrics": wl.summary(rounds) if rounds else {},
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "failures": ctx.failures,
    }
    if getattr(wl, "grid_values", None):
        result["grid_psds"] = wl.grid_values
    if tracer is not None:
        fired = {name for _, _, name, _, _ in tracer.spans}
        catalogue = [*spans.PATCHES, *spans.CLI_SPANS]
        result.update(
            traced_rounds=len(traced),
            traced_wall_s=statistics.median(r["wall_s"] for r in traced) if traced else 0.0,
            per_layer=_per_layer(tracer, wl.plan, traced, untraced),
            missing=[s for s in catalogue if s not in fired],
            missing_expected=[s for s in workloads.EXPECTED_SPANS[args.workload]
                              if s not in fired],
            errors={f"{m}.errors": n for m, n in sorted(tracer.errors.items())},
            unpatched=sorted(tracer.unpatched),
            uncounted=sorted(tracer.uncounted),
        )
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
