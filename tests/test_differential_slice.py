"""A fixed slice of tools/differential.py's edge cases, pinned by the outcomes in differential_slice.json.

Every STRIDE[family]-th case of each family (cli, sweep, point, search, scenario) runs
in this process, through the script's run_cases.  The help family is left out: argparse
words its help differently from one Python version to the next.  An outcome is a command's
exit code and the digests of its stdout, stderr and written file, or the
digest of a point's or a search's result, or the class and message of the
error, plus the number of records logged under `bcrbsim`.  So a change to any
of these outputs or messages fails here, naming each changed case.  When the
change is meant, re-record the file with

    PYTHONPATH=src python tests/test_differential_slice.py > tests/differential_slice.json

which writes one case a line, so that the diff names each re-recorded case.
The whole differential, against another source tree, is
`python3 tools/differential.py OTHER_TREE .`.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

RECORDED = Path(__file__).with_name("differential_slice.json")
STRIDE = {"cli": 19, "sweep": 13, "point": 131, "search": 1, "scenario": 19}


def _run_cases():
    path = Path(__file__).resolve().parents[1] / "tools" / "differential.py"
    spec = importlib.util.spec_from_file_location("differential", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.run_cases


def _slice(families) -> dict:
    # [family, case] as JSON -> outcome, for the slice's cases of the given families.
    cases = _run_cases()(lambda family, index: family in families and index % STRIDE[family] == 0)
    return {json.dumps([family, case]): outcome for family, case, outcome in cases}


@pytest.mark.parametrize("family", list(STRIDE))
def test_slice_keeps_its_recorded_outcomes(family):
    recorded = {key: outcome for key, outcome in json.loads(RECORDED.read_text()).items()
                if json.loads(key)[0] == family}
    now = _slice({family})
    changed = [key for key in {**recorded, **now} if recorded.get(key) != now.get(key)]
    assert not changed, "\n".join(f"{key}\n  recorded {recorded.get(key)}\n  now      {now.get(key)}"
                                  for key in changed[:10]) + f"\n{len(changed)} of {len(recorded)} cases changed"


if __name__ == "__main__":
    lines = [f"{json.dumps(key)}: {json.dumps(outcome)}" for key, outcome in _slice(set(STRIDE)).items()]
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
