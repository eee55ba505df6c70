"""Record the default-seed reference outputs that the benchmark checks.

    python3 perfbench/record_reference.py

Runs one round of every workload at the default seed, for the full and the
tiny input size, and writes ``reference.json`` plus one feature
fingerprint per size into this directory. Re-record only for a change
whose new outputs were reviewed: the references are the gates that keep
seeded outputs identical (events, tuned config, PSDS, mpAUC, augment
bytes) and features within the stated tolerance.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import gen  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    work = HERE.parent / ".perfbench_work" / "reference"
    reference = {}
    for size in ("full", "tiny"):
        reference[size] = {}
        for name in gen.WORKLOADS:
            shutil.rmtree(work, ignore_errors=True)
            gen.generate(name, workloads.DEFAULT_SEED, size, work / "inputs")
            ctx = workloads.Context()
            wl = workloads.WORKLOADS[name](work / "inputs", work / "out", ctx)
            wl.run_round()
            if ctx.failed:
                raise SystemExit(f"{name}/{size} failed: {ctx.failures}")
            out = work / "out"
            if name == "feature-path":
                ctx.cli(["augment", "--in", work / "inputs" / wl.plan["mix_input"],
                         "--out", out / "mix_aug.fmt", "--p", "1",
                         "--seed", wl.plan["mix_check_seed"]])
                joined, _ = workloads.read_fmt_file(out / "joined.fmt")
                fp_name = f"reference_features_{size}.npy"
                np.save(HERE / fp_name, workloads.feature_fingerprint(joined).astype(np.float32))
                entry = {"mix_augment_sha256": workloads.sha256(out / "mix_aug.fmt"),
                         "features_fingerprint": fp_name}
            elif name == "tune":
                entry = {"tuned": wl.stdout}
            else:
                kv_psds = workloads.key_values(wl.psds_out)
                kv_mpauc = workloads.key_values(wl.mpauc_out)
                entry = {"events_sha256": workloads.sha256(out / "events.tsv"),
                         "psds": float(kv_psds["psds"]), "mpauc": float(kv_mpauc["mpauc"])}
            reference[size][name] = entry
            print(size, name, entry)
    shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
