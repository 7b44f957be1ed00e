"""`import repro` and the campaign registry load no third-party module.

numpy is used only by the Fig. 5 / Fig. 14 fetch-buffer model, and those two
experiments import it inside their ``run()``.  Every `repro run`, fleet host
and subprocess the tests start imports the package and the registry, so a
third-party import there would be paid by all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

_PROBE = """
import json, sys
from pathlib import Path

before = set(sys.modules)  # the interpreter's own startup (site .pth files)
import repro
from repro.campaign.registry import list_campaigns

assert list_campaigns()
third_party = sorted(
    name for name, module in sys.modules.items()
    if name not in before and name.split(".")[0] != "repro"
    and {"site-packages", "dist-packages"} & set(
        Path(getattr(module, "__file__", None) or "").parts)
)
print(json.dumps({"numpy": "numpy" in sys.modules, "third_party": third_party}))
"""


def test_import_and_registry_load_no_third_party_module():
    repo_root = Path(__file__).resolve().parents[1]
    pythonpath = os.pathsep.join(
        filter(None, [str(repo_root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                          text=True, cwd=repo_root,
                          env={**os.environ, "PYTHONPATH": pythonpath})
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert not loaded["numpy"]
    assert loaded["third_party"] == []
