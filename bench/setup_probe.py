"""
One set-up sample: the time a fresh interpreter takes to import
``sigmabraid`` and fill its lazy caches (the four model dictionaries and
the equation bank), then three timings of the calibration kernel.  Prints
``{"setup_s": ..., "kernel_s": [...]}``.

    python3 bench/setup_probe.py
"""

import json
import os
import sys
import time

start = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from sigmabraid import models  # noqa: E402

for model in models.ModelId:
    models.dictionary(model)
    models.equation_bank(model)
setup_s = time.perf_counter() - start

import calibrate  # noqa: E402

print(json.dumps({"setup_s": setup_s, "kernel_s": [calibrate.kernel_s() for _ in range(3)]}))
