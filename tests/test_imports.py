"""What importing the library loads, and which names the test directories
put on the module path."""

import os
import subprocess
import sys
from pathlib import Path

import bifree

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(bifree.__file__).resolve().parents[1]


def _loaded_after(statement: str) -> set[str]:
    """The module names a fresh interpreter holds after `statement`."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    script = f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"
    result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, check=True)
    return set(result.stdout.split())


def test_importing_the_cli_loads_no_introspection_modules():
    # every CLI job is a new process; `dataclasses` alone pulls in `inspect`,
    # `ast`, `dis` and `tokenize`, about half of the import.  Only what the
    # import adds counts, so a site hook that loads them itself passes.
    added = _loaded_after("import bifree.cli") - _loaded_after("pass")
    assert "bifree.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}, sorted(added)


def test_tests_and_perfbench_share_no_top_level_module_name():
    # pytest puts each of these directories on sys.path in one session, so a
    # name in two of them imports whichever was collected first
    tests = {p.stem for p in (ROOT / "tests").glob("*.py")}
    perfbench = {p.stem for d in (ROOT / "perfbench", ROOT / "perfbench" / "tests")
                 for p in d.glob("*.py")}
    assert perfbench, "perfbench/ holds no modules"
    assert not tests & perfbench
