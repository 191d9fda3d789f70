"""One set-up sample: ``import keysets`` and load a workload's inputs.

Run as ``python3 perfbench/probe.py <workload> <input-dir>`` in a fresh
process; prints the elapsed seconds (see ``spans.Stopwatch``) as JSON.
Only the standard library and :mod:`spans` are imported before the clock
starts.
"""

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    workload, root = sys.argv[1], Path(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from spans import Stopwatch, plain

    watch = Stopwatch()
    import keysets  # noqa: F401
    from load import load_inputs

    load_inputs(workload, root, plain)
    print(json.dumps({"setup_s": watch.elapsed()}))
