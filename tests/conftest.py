import contextlib
import os
import signal
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run_isolated(args: list[str], timeout: float, **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run(args, capture_output=True, text=True)`` in a new
    session, killing the child's whole process group when it returns or
    times out: the raylet, agents and workers that ``ray.init`` starts share
    the child's group, and killing only the child on a timeout leaves them
    running."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    return subprocess.CompletedProcess(args, proc.returncode, out, err)


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
            # worker/raylet log lines are forwarded to driver stdout by an
            # async monitor thread; under capsys they land in whatever test
            # is capturing at that moment and corrupt JSON-line CLI asserts
            # (observed as flaky JSONDecodeError in test_cli.py)
            log_to_driver=False,
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """Deterministic tiny transcript corpus (FIXTURES.md 'tiny': 100 convs)."""
    from engine.synth import write_corpus

    out = str(tmp_path_factory.mktemp("corpus") / "tiny")
    write_corpus(out, n_convs=100, seed=42, n_shards=4)
    return out


@pytest.fixture(scope="session")
def tiny_index(ray_session, tiny_corpus, tmp_path_factory):
    from engine.build import build_index

    idx = str(tmp_path_factory.mktemp("index") / "tiny")
    build_index(tiny_corpus, idx, n_buckets=8, n_salts=4, hot_fraction=0.05)
    return idx
