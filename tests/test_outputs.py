"""Every command's output on every instance of tools/outputs.py, against the
digest checked in as tests/outputs.txt.

A change that alters output on purpose regenerates the file with
``python3 tools/outputs.py --write`` and names the changed lines.  The fuzz
documents come from the installed Hypothesis and parse errors quote the json
module, so the file's header records the Python and Hypothesis versions it
was made with; under other versions only the lines of the other instances
are compared, and a warning names both.
"""

import difflib
import importlib.util
import subprocess
import sys
import warnings
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("outputs_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_checked_in_digest():
    tool = _tool()
    recorded = tool.DIGEST.read_text(encoding="utf-8").splitlines()
    made_with = [line for line in recorded if line.startswith("#")]
    want = recorded[len(made_with):]
    got = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    running = tool.header()
    if made_with != running:
        def other(lines):
            return [line for line in lines
                    if "\tfuzz/" not in line and not line.startswith("runs\t")]
        want, got = other(want), other(got)
        warnings.warn("fuzz lines of tests/outputs.txt not compared: made with "
                      f"{'; '.join(line[2:] for line in made_with[1:])}, running "
                      f"{'; '.join(line[2:] for line in running[1:])}")
    diff = list(difflib.unified_diff(want, got, "tests/outputs.txt",
                                     "tools/outputs.py", lineterm="", n=0))
    assert not diff, "\n".join(diff[:80])
