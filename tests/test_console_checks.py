"""The console-script checks of tests/console_checks.sh, which CI runs
against the installed package, run here against src/: a two-line
`pseudopoly` shim first on PATH runs this interpreter on it."""
import os
import shlex
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_console_checks_pass(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "pseudopoly"
    shim.write_text(
        "#!/bin/sh\n"
        f"PYTHONPATH={shlex.quote(str(SRC))} exec {shlex.quote(sys.executable)} "
        '-c "from pseudopoly.cli import main; main()" "$@"\n'
    )
    shim.chmod(0o755)
    work = tmp_path / "work"
    work.mkdir()
    # -x traces each command to stderr, so a failing `test` is named too
    result = subprocess.run(
        ["bash", "-x", str(TESTS / "console_checks.sh")],
        cwd=work,
        env={**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ['PATH']}"},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr[-6000:]
