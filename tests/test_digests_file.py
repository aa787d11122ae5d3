"""``DIGESTS.txt`` is the output of ``tools/digests.py`` for the runs that the tool makes.

The file holds one version line and then one line per output of each run;
a run added to or dropped from ``runs()`` must be recorded in the file.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_digests():
    spec = importlib.util.spec_from_file_location("digests_tool", ROOT / "tools" / "digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_file_names_the_runs_of_the_tool_in_order():
    header, *lines = (ROOT / "DIGESTS.txt").read_text().splitlines()
    assert header.startswith("# numpy ") and header.endswith(", BLAS threads 1")
    recorded = dict.fromkeys(line.split()[0].split("/")[0] for line in lines)
    assert list(recorded) == [run for run, _, _ in load_digests().runs()]
