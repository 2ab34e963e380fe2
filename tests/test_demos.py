"""The cluster walkthrough demo tells the same story, line for line."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The walkthrough's recorded stdout.  It scores both files on the planner's
# ballistic prediction, so a change here is a change of that scoring path.
WALKTHROUGH = """
requesting 20 MB (20 fragments) -> mode=direct, delivered 20 MB

requesting 120 MB (120 fragments) -> mode=clustered, delivered 120 MB
  cluster of 3 (head + 2 helpers), resource vehicle 4
  head   vehicle 0: fragments 0..52 (53 of budget 53), downloads 53 MB, keeps them
  member vehicle 1: fragments 53..113 (61 of budget 61), downloads 61 MB, forwards in time
  member vehicle 2: fragments 114..119 (6 of budget 64), downloads 6 MB, forwards in time
"""


def test_cluster_walkthrough_prints_its_recorded_story(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "cluster_walkthrough.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == WALKTHROUGH
