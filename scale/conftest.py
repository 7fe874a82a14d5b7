"""At-scale checks, kept out of Tier-1 for their time:

    python -m pytest scale

They run the ``tropdiv`` console script found on PATH, and import the
``tropdiv`` package; a missing script fails them, never skips them.
Each command runs in its own temporary directory, so a ``PYTHONPATH``
given must be absolute."""
import os
import shutil
import subprocess
import sys

import pytest

# A process's ru_maxrss counts the memory it held before exec: its parent's,
# whether forked or vforked.  Read off a child of pytest, it would be pytest's
# own peak (196 MB after the genus-15 sweep's check, on Linux with Python
# 3.11), so the script is spawned by a fresh interpreter, which writes the
# script's peak in KB to the fd argv[1].
SPAWN = """import os, sys
pid = os.posix_spawnp(sys.argv[2], sys.argv[2:], os.environ)
_pid, status, usage = os.wait4(pid, 0)
os.write(int(sys.argv[1]), b"%d" % usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))"""


@pytest.fixture
def tropdiv(tmp_path):
    """Run the console script in tmp_path; returns its exit code, its
    stdout and its peak RSS in MB."""
    assert shutil.which("tropdiv"), "the tropdiv console script is not on PATH"

    def run(*args):
        r, w = os.pipe()
        proc = subprocess.Popen([sys.executable, "-c", SPAWN, str(w), "tropdiv", *map(str, args)],
                                cwd=tmp_path, stdout=subprocess.PIPE, text=True, pass_fds=(w,))
        os.close(w)
        out = proc.communicate()[0]
        with open(r) as peak:
            return proc.returncode, out, int(peak.read()) / 1024
    return run
