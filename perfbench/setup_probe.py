"""Time `import semihartree` plus parsing a config, in a fresh process.

    PYTHONPATH=src:perfbench python3 perfbench/setup_probe.py '{"mode": "rescaled"}'

Prints {"import_s": ..., "parse_s": ..., "job_s": ...} as one JSON line;
job_s is the calibration job time of calibrate.py, taken after the parse.
"""

import time

t0 = time.perf_counter()
import semihartree  # noqa: E402

t1 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

semihartree.parse_config(sys.argv[1])
t2 = time.perf_counter()

import calibrate  # noqa: E402

print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "job_s": calibrate.probe_s()}))
