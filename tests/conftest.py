import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Allow running the suite without installing the package.
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture(scope="session")
def benchmark_inputs(tmp_path_factory):
    """The benchmark's seed-0 full tune and score inputs (``perfbench/gen.py``), by workload."""
    out = tmp_path_factory.mktemp("benchmark")
    for workload in ("tune", "score"):
        subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "gen.py"), "--workload", workload,
             "--seed", "0", "--size", "full", "--out", str(out / workload)],
            check=True, capture_output=True, timeout=300,
        )
    return {workload: out / workload for workload in ("tune", "score")}
