"""Set-up probe: one fresh process per ``setup_s`` sample, started by run.py.

    python3 perfbench/probe.py <workload> <seed> [--small]

Imports ptflab from the checkout's ``src/`` and builds the workload's spec
while hostspeed.PassClock samples the host's speed, then prints
``ready <seconds>``: how much of this process's run the parent is to take
off the wall time it measured.  That is the benchmark's own imports and
kernel warm-up, and what the host's speed added to the import and the spec.
What is left is interpreter start-up in wall time, and ptflab's import and
the spec at the reference host speed.
"""

import time

started = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    for _ in range(50):  # let the interpreter specialise the kernel first
        hostspeed.kernel()
    sys.path.insert(0, str(ROOT / "src"))
    with hostspeed.PassClock(hostspeed.SETUP_INTERVAL_S) as clock:
        import ptflab  # noqa: F401

        workloads.build_spec(sys.argv[1], int(sys.argv[2]), "--small" in sys.argv[3:])
    own = clock.start - started + clock.wall_s - clock.reference_s
    print(f"ready {own!r}", flush=True)


if __name__ == "__main__":
    main()
