"""Cold start in a fresh interpreter.

    python3 perfbench/cold.py CONFIG OUTDIR   run one scenario, exit with its code
    python3 perfbench/cold.py --import        time `import cpdq_lab.cli`

The second form prints {"import_s": ..., "modules": ...}; run it under
`python3 -X importtime` for the per-package breakdown on stderr.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

if sys.argv[1] == "--import":
    before = len(sys.modules)
    start = time.perf_counter()
    import cpdq_lab.cli  # noqa: E402,F401
    elapsed = time.perf_counter() - start
    added = len(sys.modules) - before
    import json  # noqa: E402
    print(json.dumps({"import_s": elapsed, "modules": added}))
else:
    import contextlib  # noqa: E402
    import os  # noqa: E402

    import cpdq_lab.cli  # noqa: E402
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        _, code = cpdq_lab.cli.run_scenario(sys.argv[1], sys.argv[2])
    sys.exit(code)
