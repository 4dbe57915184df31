"""One cold start: import brachkit, build the workload's models, load its scenarios.

    python3 bench/setup_probe.py SRC_DIR SCENARIO.json [SCENARIO.json ...]

Prints the elapsed seconds.  ``run.py`` starts it in fresh processes and
reports the median as ``setup_s``; interpreter start-up is not included.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from brachkit.cli import load_config  # noqa: E402
from brachkit.models import ModelSpec, make_model  # noqa: E402

for path in sys.argv[2:]:
    cfg = load_config(path)
    make_model(ModelSpec(cfg["model"]["name"], cfg["model"].get("params", {})))
print(repr(time.perf_counter() - t0))
