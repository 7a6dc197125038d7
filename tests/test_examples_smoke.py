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
    assert "write sequentiality             : 99.8% of writes contiguous" in result.stdout
    assert "engine → backend → block" in result.stdout
    assert "CPU time traced / untraced" in result.stdout


@pytest.mark.slow
def test_gc_hints_codesign_runs():
    """The one example that shows the §3.4 hint wiring: a store binds
    ``GcHints`` and the layer's engine drops instead of migrating."""
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / "gc_hints_codesign.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "migrate-all GC: WAF(app) 1.510" in result.stdout
    assert "migrated 160   dropped 0" in result.stdout
    assert "hint-based GC : WAF(app) 1.000" in result.stdout
    assert "migrated 0   dropped 87" in result.stdout
