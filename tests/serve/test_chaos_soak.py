"""Chaos soak in one process: injected faults never change an answer.

A real :class:`~repro.serve.AnalysisServer` with the disk result store
mounted runs under a :class:`~repro.runtime.chaos.ChaosShim` that fails
every 7th engine dispatch, delays each dispatch by 2 ms and fails every
5th disk-cache read.  Four threads, each with its own retrying
:class:`~repro.serve.AnalysisClient`, cycle a pool of distinct
questions through it, so failed micro-batches go through the service's
solo re-dispatch as they do under real concurrent load.  Every answer
a client accepts must be bit-identical to the answer of a chaos-free
server, and after the clients' retries the residual error rate must
stay under 10%.  One sequential client, whose every micro-batch is a
batch of one, must see no failure at all: a failed solo batch gets the
same one re-run as batch-mates do.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import engine
from repro.obs import metrics as _metrics
from repro.runtime.chaos import ChaosShim, install_chaos
from repro.serve import AnalysisClient, AnalysisServer, ServeConfig
from repro.serve.client import ClientError

pytestmark = pytest.mark.chaos

REQUESTS = 200
CLIENT_THREADS = 4


@pytest.fixture(autouse=True)
def _clean_process_state():
    engine.disable_result_cache()
    _metrics.GLOBAL_REGISTRY.reset()
    yield
    engine.disable_result_cache()
    _metrics.GLOBAL_REGISTRY.reset()


def _docs():
    """Forty distinct width-16 questions, each asked five times."""
    pool = []
    for k in range(40):
        width = 16
        p_a = [((k * 37 + i) % 1009) / 1009.0 for i in range(width)]
        pool.append({"cell": "LPAA 6", "width": width, "p_a": p_a})
    return [pool[k % len(pool)] for k in range(REQUESTS)]


def _answers(config, docs, client_kwargs, threads=CLIENT_THREADS):
    """Per doc: the accepted answer document, or ``None`` on failure."""
    server = AnalysisServer(config)
    base_url = server.start()

    def ask(indices):
        answers = {}
        with AnalysisClient(base_url, **client_kwargs) as client:
            for index in indices:
                try:
                    answers[index] = client.analyze(docs[index])
                except ClientError:
                    answers[index] = None
        return answers

    shards = [range(k, len(docs), threads) for k in range(threads)]
    try:
        with ThreadPoolExecutor(threads) as pool:
            merged = {}
            for answers in pool.map(ask, shards):
                merged.update(answers)
    finally:
        server.stop()
    return [merged[index] for index in range(len(docs))]


def test_accepted_answers_match_a_chaos_free_server(tmp_path):
    docs = _docs()
    golden = _answers(ServeConfig(port=0), docs, {"total_deadline_s": 60.0})
    assert all(answer is not None for answer in golden)
    engine.disable_result_cache()

    shim = ChaosShim(engine_fail_every=7, engine_delay_s=0.002,
                     cache_read_fail_every=5)
    config = ServeConfig(port=0, cache_dir=str(tmp_path / "cache"))
    with install_chaos(shim):
        answers = _answers(config, docs, {
            "total_deadline_s": 10.0, "max_attempts": 8,
            "backoff_base_s": 0.001, "backoff_max_s": 0.02})

    assert shim.engine_faults_injected > 0
    assert shim.cache_faults_injected > 0
    accepted = [(answer, expected)
                for answer, expected in zip(answers, golden)
                if answer is not None]
    for answer, expected in accepted:
        assert answer == expected
    failed = len(docs) - len(accepted)
    assert failed / len(docs) < 0.10


def test_a_lone_client_loses_no_request_to_transient_faults():
    # Every batch is a batch of one; each failed dispatch must be
    # re-run by the service, never surface as a (non-retried) 500.
    docs = _docs()
    shim = ChaosShim(engine_fail_every=7)
    with install_chaos(shim):
        answers = _answers(ServeConfig(port=0), docs,
                           {"total_deadline_s": 10.0}, threads=1)
    assert shim.engine_faults_injected > 0
    assert sum(answer is None for answer in answers) == 0
