"""Smoke tests: shipped examples must run end to end."""

import subprocess

import pytest
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_quickstart_runs():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "app-level WAF" in result.stdout
    assert "get user:1001 -> b'alice'" in result.stdout


@pytest.mark.slow
def test_io_trace_analysis_runs():
    """Streams the stack's own record stream; prints what it cost but
    asserts nothing about host time."""
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / "io_trace_analysis.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "device write commands           : 1290" in result.stdout
    assert "engine → backend → block" in result.stdout
    assert "CPU time traced / untraced" in result.stdout
