import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def traced_peak():
    """peak(fn) calls fn() and returns the most memory, in bytes, that
    tracemalloc saw allocated during the call beyond what was held before."""

    def peak(fn):
        outer = tracemalloc.is_tracing()
        if not outer:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            if not outer:
                tracemalloc.stop()

    return peak


@pytest.fixture
def src_env():
    """The environment with src/ first on PYTHONPATH, for subprocesses."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def head_1(src_env):
    """head_1(*args) runs `python *args` with src/ on the path, reads one line
    of its stdout and then closes the pipe, as `| head -1` does; it returns
    the exit code, that line and stderr."""

    def run(*args):
        with subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env, text=True
        ) as child:
            line = child.stdout.readline()
            child.stdout.close()
            err = child.stderr.read()
        return child.returncode, line, err

    return run
