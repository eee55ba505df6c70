"""Fast self-test of the benchmark at tiny input sizes, every check on.

    python3 perfbench/selftest.py

Runs every workload untraced and traced at the tiny size and the default
seed, so the reference checks are active, and requires a correct result
that names every metric of BENCHMARK.json. It then feeds deliberately
wrong outputs to each workload's checks, which must reject them, and runs
the benchmark in a directory without ``src/sedtk``, which must fail
without printing a result. Exits 0 when every step passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(workloads.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_results(spec: dict) -> None:
    for name in gen.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_benchmark(name, trace)
            lines = proc.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
                detail = json.loads(lines[-2])["detail"]
            except (IndexError, ValueError):
                expect(False, f"{name} trace={trace}: no result ({proc.stderr[-300:]})")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            finite = all(math.isfinite(v["value"]) for v in res["metrics"].values())
            expect(proc.returncode == 0 and res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1,
                   f"{name} trace={trace}: correct, {res['attempted']} attempted, "
                   f"failures {detail.get('failures')}")
            expect(got == want and finite, f"{name} trace={trace}: every {key} metric, finite")
            if trace:
                expect(not detail["missing_expected"] and not detail["unpatched"]
                       and not detail["uncounted"],
                       f"{name}: every expected span fired, every binding patched and counted")


def tampered(name: str, work: Path, damage, reference: dict) -> bool:
    """Run one tiny round, damage its output, and report whether checks fail."""
    shutil.rmtree(work, ignore_errors=True)
    gen.generate(name, workloads.DEFAULT_SEED, "tiny", work / "inputs")
    ctx = workloads.Context()
    wl = workloads.WORKLOADS[name](work / "inputs", work / "out", ctx)
    wl.run_round()
    damage(wl)
    before = ctx.failed
    try:
        wl.check(reference)
    except Exception:
        return True
    return ctx.failed > before


def check_checks() -> None:
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    work = ROOT / ".perfbench_work" / "selftest"

    def event_past_clip_end(wl):
        path = wl.out / "events.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        clip, on, _, cls = lines[1].split("\t")
        lines[1] = f"{clip}\t{on}\t{wl.plan['clip_s'] + 1.0:.6f}\t{cls}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def other_grid_point(wl):
        wl.stdout = wl.stdout.replace("boundary_threshold=0.1", "boundary_threshold=0.2")

    def psds_off_by_1e6(wl):
        value = float(workloads.key_values(wl.psds_out)["psds"])
        wl.psds_out = f"psds={value + 1e-6:.9f}\n"

    def drop_domain_tag(wl):
        path = wl.out / "aug_0.fmt"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 1
        path.write_bytes(bytes(raw))

    def shift_features(wl):
        for name in ("desed.fmt", "maestro.fmt", "joined.fmt"):
            data, tags = workloads.read_fmt_file(wl.out / name)
            gen.write_fmt(wl.out / name, data + 0.01, tags)

    cases = [
        ("score", event_past_clip_end, "an event past its clip's end"),
        ("score", psds_off_by_1e6, "a psds value 1e-6 off the reference"),
        ("tune", other_grid_point, "a tuned config that is not the best point"),
        ("feature-path", drop_domain_tag, "an augment output with a changed domain tag"),
        ("feature-path", shift_features, "features 0.01 off the reference"),
    ]
    for name, damage, what in cases:
        expect(tampered(name, work, damage, reference), f"{name} checks reject {what}")
    shutil.rmtree(work, ignore_errors=True)


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("tune", 0, cwd=bare)
    printed_result = '"correct"' in proc.stdout
    expect(proc.returncode != 0 and not printed_result,
           f"without src/sedtk the benchmark exits {proc.returncode} and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_results(spec)
    check_checks()
    check_bare_directory()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-test steps passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
