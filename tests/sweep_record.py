"""What the timing sweeps in this directory share: one BLAS thread, and the
JSON record of their rows with the machine's description.

Import it before numpy, so the thread pinning takes effect.  Not a test:
pytest does not collect it.
"""

import json
import os
import platform
from pathlib import Path

# one BLAS thread, as the benchmark pins it, so the timings are per core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def write_record(out: str, what: str, command: str, rows: list[dict]) -> None:
    """Write ``rows`` to ``out`` as JSON, with what they measure, the command
    that made them and the machine they were made on."""
    result = {
        "what": what,
        "command": command,
        "machine": {
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        },
        "rows": rows,
    }
    Path(out).write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
