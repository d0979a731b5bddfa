"""Time-to-ready probe: ``python3 perfbench/setup_probe.py <workload> <seed>``.

Imports critlab from the checkout's ``src/``, runs the workload's set-up
(scale functions, sampling tables) and prints ``ready``. run.py starts it
several times and times each start from spawn to that line, which is the
set-up a user pays before the first result.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    import workloads

    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), root).setup()
    print("ready", flush=True)
