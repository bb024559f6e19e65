"""One set-up: a fresh interpreter imports lmpcirc and parses the workload's inputs.

Usage: python3 perfbench/probe.py PLAN_JSON

run.py times this whole process, start to exit, several times per run and
reports the median as ``setup_s``.
"""

import json
import sys
from pathlib import Path

plan = json.loads(Path(sys.argv[1]).read_text())
sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402  (imports lmpcirc)

workloads.parse_inputs(plan["inputs"])
