"""Smoke tests: the quickstart, service-client and design-space examples.

Mirrors the CI examples job; the other examples share the same API
surface and are exercised (more cheaply) through the ``tests/api`` suite.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_quickstart_runs_on_small_scene():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "examples" / "quickstart.py"),
            "--scene",
            "lego",
            "--resolution-scale",
            "0.5",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert "PSNR vs ground truth" in completed.stdout
    assert "experiment point — lego/3dgs/streaminggs" in completed.stdout


def test_service_client_example_runs_embedded_daemon():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "examples" / "service_client.py"),
            "--scene",
            "lego",
            "--resolution-scale",
            "0.25",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert "render (warm): lego" in completed.stdout
    assert "rejected=0" in completed.stdout
    assert "daemon drained and stopped" in completed.stdout


def test_design_space_example_rerun_is_served_by_its_store(tmp_path):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable,
        str(REPO_ROOT / "examples" / "design_space_exploration.py"),
        "--jobs",
        "2",
        "--cache-dir",
        str(tmp_path / "cache"),
    ]
    runs = [
        subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
        for _ in range(2)
    ]
    for completed in runs:
        assert completed.returncode == 0, completed.stderr
    cold, warm = (completed.stdout.splitlines() for completed in runs)
    assert cold[-1].startswith("result store: 0 hits, ")
    assert warm[-1].startswith("result store: ") and " 0 misses," in warm[-1]
    # The store reproduces every table the first run computed.
    assert warm[:-1] == cold[:-1]
