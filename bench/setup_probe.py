"""Set-up cost of one invocation: import the CLI and ingest a config.

Run as ``python3 bench/setup_probe.py verify|bsde CONFIG`` in a fresh
process; the caller times the whole process.  Prints where ``regimelq`` was
imported from, so the caller can check that it measured the checkout.
"""

import json
import sys
from pathlib import Path

import regimelq.cli

command, config = sys.argv[1], sys.argv[2]
if command == "bsde":
    from regimelq.bsde import model_from_config as ingest
else:
    from regimelq.model import problem_from_config as ingest
ingest(json.loads(Path(config).read_bytes()))
print(regimelq.cli.__file__)
