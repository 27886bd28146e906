"""Serving failure paths: the contracts that only matter when things break.

* one poisoned request in a micro-batch fails alone -- its batch-mates
  are re-run individually and still succeed;
* a malformed or oversized request, or an answer that cannot be
  encoded, on a keep-alive connection gets its error response *and the
  connection keeps working* for the next, well-formed request;
* every ``Retry-After`` the server emits is positive and finite;
* an open circuit breaker answers 503 with Retry-After instead of
  queueing doomed work, and closes again after the engine recovers.
"""

from __future__ import annotations

import http.client
import json
import math
import socket
import time

import numpy as np
import pytest

from repro import engine
from repro.obs import metrics as _metrics
from repro.runtime.chaos import ChaosShim, install_chaos
from repro.serve import AnalysisServer, ServeConfig
from repro.serve.http import format_retry_after


@pytest.fixture(autouse=True)
def _clean_process_state():
    engine.disable_result_cache()
    _metrics.GLOBAL_REGISTRY.reset()
    yield
    engine.disable_result_cache()
    _metrics.GLOBAL_REGISTRY.reset()


def _start(config):
    server = AnalysisServer(config)
    server.start()
    return server


def _post(conn, path, doc):
    body = json.dumps(doc).encode() if not isinstance(doc, bytes) else doc
    conn.request("POST", path, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    raw = response.read()
    return response, (json.loads(raw.decode()) if raw else None)


class TestRetryAfterFormatting:
    @pytest.mark.parametrize("value", [
        0.0, -5.0, 1e-9, float("nan"), float("inf"), -float("inf"), 1e12,
    ])
    def test_always_positive_and_finite(self, value):
        rendered = float(format_retry_after(value))
        assert math.isfinite(rendered)
        assert 0 < rendered <= 3600

    def test_normal_values_pass_through(self):
        assert format_retry_after(1.5) == "1.500"
        assert format_retry_after(0.25) == "0.250"


class TestBatchMateIsolation:
    def test_transient_batch_failure_spares_the_batch_mates(self):
        """A batch-level engine fault is retried member-by-member: a
        fault that burns out after the first call must not fail all N
        coalesced requests."""
        server = _start(ServeConfig(port=0, batch_window_s=0.05,
                                    max_batch=8))
        try:
            shim = ChaosShim(fail_engine_times=1)
            with install_chaos(shim):
                conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                                  timeout=30)
                response, doc = _post(
                    conn, "/v1/analyze_batch",
                    {"requests": [
                        {"cell": "LPAA 1", "width": 4, "p_a": 0.1 * (i + 1)}
                        for i in range(3)
                    ]})
                assert response.status == 200
                assert all("p_error" in r and "error" not in r
                           for r in doc["results"])
                conn.close()
            # the batch attempt failed once, then members ran solo
            assert shim.engine_faults_injected == 1
            assert server.service.stats()["isolated"] >= 1
        finally:
            server.stop()


class TestKeepAliveRecovery:
    def test_malformed_json_does_not_poison_the_connection(self):
        server = _start(ServeConfig(port=0, batch_window_s=0.002))
        try:
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=30)
            response, doc = _post(conn, "/v1/analyze", b"{not json")
            assert response.status == 400
            assert "JSON" in doc["error"]["message"]
            # same TCP connection, next request succeeds
            response, doc = _post(conn, "/v1/analyze",
                                  {"cell": "LPAA 1", "width": 4})
            assert response.status == 200
            assert "p_error" in doc
            conn.close()
        finally:
            server.stop()

    def test_unserialisable_answer_is_a_500(self, monkeypatch):
        # json.dumps cannot encode a numpy bool_: the answer becomes the
        # typed 500 document, counted as such, instead of a connection
        # closed without a status line.
        async def handler(self, request):
            return 200, {"exact": np.bool_(True)}, ()

        monkeypatch.setattr(AnalysisServer, "_handle_analyze", handler)
        server = _start(ServeConfig(port=0, batch_window_s=0.002))
        try:
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=30)
            response, doc = _post(conn, "/v1/analyze",
                                  {"cell": "LPAA 1", "width": 4})
            assert response.status == 500
            assert doc["error"]["code"] == 500
            assert response.getheader("X-Request-Id")
            counters = _metrics.GLOBAL_REGISTRY.snapshot()["counters"]
            assert counters.get("serve.http.status.500") == 1
            assert counters.get("serve.http.status.200", 0) == 0
            # same TCP connection, next request succeeds
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            conn.close()
        finally:
            server.stop()

    def test_oversized_body_is_drained_and_connection_survives(self):
        server = _start(ServeConfig(port=0, batch_window_s=0.002))
        try:
            from repro.serve.http import MAX_BODY_BYTES

            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=30)
            response, doc = _post(conn, "/v1/analyze",
                                  b" " * (MAX_BODY_BYTES + 1))
            assert response.status == 413
            # the declared body was read and discarded, so the same
            # connection still frames the next request correctly
            response, doc = _post(conn, "/v1/analyze",
                                  {"cell": "LPAA 1", "width": 4})
            assert response.status == 200
            conn.close()
        finally:
            server.stop()

    def test_absurd_content_length_closes_the_connection(self):
        """Past the drain cap the server refuses to read the body; it
        must say so with Connection: close instead of desyncing."""
        server = _start(ServeConfig(port=0, batch_window_s=0.002))
        try:
            sock = socket.create_connection(("127.0.0.1", server.port),
                                            timeout=30)
            sock.sendall(
                b"POST /v1/analyze HTTP/1.1\r\n"
                b"Host: x\r\nContent-Type: application/json\r\n"
                b"Content-Length: 999999999999\r\n\r\n")
            data = b""
            while b"\r\n\r\n" not in data:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                data += chunk
            head = data.decode("latin-1")
            assert " 413 " in head.splitlines()[0]
            assert "connection: close" in head.lower()
            sock.close()
        finally:
            server.stop()


class TestBreakerOverHttp:
    def test_open_breaker_answers_503_with_retry_after(self):
        server = _start(ServeConfig(port=0, batch_window_s=0.002,
                                    breaker_failures=2, breaker_reset_s=0.2))
        try:
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=30)
            # every engine call fails: two 500s trip the breaker
            with install_chaos(ChaosShim(fail_engine_times=-1)):
                statuses = []
                for _ in range(4):
                    response, doc = _post(conn, "/v1/analyze",
                                          {"cell": "LPAA 1", "width": 4})
                    statuses.append(response.status)
                    if response.status == 503:
                        retry_after = response.getheader("Retry-After")
                        assert retry_after is not None
                        assert 0 < float(retry_after) <= 3600
                assert statuses[:2] == [500, 500]
                assert 503 in statuses[2:]
                assert server.service.breaker.state == "open"
            # engine healthy again: after the reset window a half-open
            # probe succeeds and service resumes
            time.sleep(0.25)
            response, doc = _post(conn, "/v1/analyze",
                                  {"cell": "LPAA 1", "width": 4})
            assert response.status == 200
            assert server.service.breaker.state == "closed"
            snapshot = _metrics.GLOBAL_REGISTRY.snapshot()
            assert snapshot["counters"]["serve.breaker.opened"] >= 1
            conn.close()
        finally:
            server.stop()


class TestAdmissionOverHttp:
    def test_rate_limited_client_gets_finite_retry_after(self):
        server = _start(ServeConfig(port=0, batch_window_s=0.002,
                                    rate_limit_rps=0.5, rate_limit_burst=1))
        try:
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=30)
            response, _ = _post(conn, "/v1/analyze",
                                {"cell": "LPAA 1", "width": 4})
            assert response.status == 200
            response, doc = _post(conn, "/v1/analyze",
                                  {"cell": "LPAA 1", "width": 4})
            assert response.status == 429
            retry_after = float(response.getheader("Retry-After"))
            assert math.isfinite(retry_after) and retry_after > 0
            assert "rate limit" in doc["error"]["message"]
            conn.close()
        finally:
            server.stop()


class TestSupportLimitOverHttp:
    """An exact DP outgrowing its support guard is the question's fault,
    not the engine's: 422 with the guard's context, per item in a
    batch, and no breaker failure."""

    BAD = {"cell": "LPAA 5", "width": 12, "kind": "error_distribution"}

    @pytest.fixture
    def guarded_engine(self, monkeypatch):
        from repro.core.exceptions import SupportLimitError

        real = engine.run_batch

        def run_batch(requests, *args, **kwargs):
            for request in requests:
                if request.kind == "error_distribution" \
                        and request.width == 12:
                    raise SupportLimitError(
                        "error support exceeded max_entries",
                        width=12, entries=2_000_123, limit=2_000_000,
                        stage=10)
            return real(requests, *args, **kwargs)

        monkeypatch.setattr(engine, "run_batch", run_batch)

    def test_single_request_is_422_with_guard_fields(self, guarded_engine):
        server = _start(ServeConfig(port=0, batch_window_s=0.002))
        try:
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=30)
            response, doc = _post(conn, "/v1/analyze", self.BAD)
            assert response.status == 422
            error = doc["error"]
            assert error["code"] == 422
            assert (error["width"], error["entries"], error["limit"],
                    error["stage"]) == (12, 2_000_123, 2_000_000, 10)
            assert "max_entries" in error["message"]
            conn.close()
        finally:
            server.stop()

    def test_batch_item_is_422_and_batch_mates_answer(self, guarded_engine):
        server = _start(ServeConfig(port=0, batch_window_s=0.05,
                                    max_batch=8))
        try:
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=30)
            response, doc = _post(conn, "/v1/analyze_batch", {"requests": [
                {"cell": "LPAA 1", "width": 4},
                self.BAD,
                {"cell": "LPAA 2", "width": 6, "kind": "med"},
            ]})
            assert response.status == 200
            good1, bad, good2 = doc["results"]
            assert "p_error" in good1 and "med" in good2
            assert bad["error"]["code"] == 422
            assert bad["error"]["stage"] == 10
            conn.close()
        finally:
            server.stop()

    def test_too_wide_for_every_rung_is_422(self):
        # No patching: the router itself refuses a magnitude question
        # wider than the samplers' 62 bits, before any work.
        wide = [{"cell": "LPAA 1", "width": 63,
                 "kind": "error_distribution"},
                {"cell": "LPAA 1", "width": 64,
                 "kind": "error_distribution"},
                {"adder": "loa:63:8", "kind": "error_distribution"},
                {"adder": "axppa-bk:64:3", "kind": "error_distribution"}]
        server = _start(ServeConfig(port=0, batch_window_s=0.002))
        try:
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=30)
            for doc in wide:
                response, body = _post(conn, "/v1/analyze", doc)
                assert response.status == 422, doc
                error = body["error"]
                assert (error["code"], error["limit"]) == (422, 62), doc
                assert error["width"] in (63, 64), doc
            # MED and MRED have no width limit: the exact DP answers at
            # width 64.
            for doc, dp in (
                    ({"cell": "LPAA 1", "width": 64, "kind": "med"},
                     "distribution-dp"),
                    ({"cell": "LPAA 1", "width": 64, "kind": "mred"},
                     "distribution-dp"),
                    ({"adder": "axppa-bk:64:3", "kind": "mred"}, "zoo-dp")):
                response, body = _post(conn, "/v1/analyze", doc)
                assert response.status == 200, doc
                assert (body["engine"], body["exact"]) == (dp, True), doc
            response, body = _post(conn, "/v1/analyze_batch", {"requests": [
                {"cell": "LPAA 1", "width": 4}, wide[0],
                {"adder": "rca:64", "kind": "mred"},
            ]})
            assert response.status == 200
            good, bad, error_free = body["results"]
            assert "p_error" in good
            assert (bad["error"]["code"], bad["error"]["width"],
                    bad["error"]["limit"]) == (422, 63, 62)
            assert error_free["mred"] == 0.0
            conn.close()
        finally:
            server.stop()

    def test_does_not_count_toward_the_breaker(self, guarded_engine):
        server = _start(ServeConfig(port=0, batch_window_s=0.002,
                                    breaker_failures=2))
        try:
            conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                              timeout=30)
            statuses = [_post(conn, "/v1/analyze", self.BAD)[0].status
                        for _ in range(4)]
            assert statuses == [422] * 4
            assert server.service.breaker.state == "closed"
            counters = _metrics.GLOBAL_REGISTRY.snapshot()["counters"]
            assert counters.get("serve.breaker.failures", 0) == 0
            response, _ = _post(conn, "/v1/analyze",
                                {"cell": "LPAA 1", "width": 4})
            assert response.status == 200
            conn.close()
        finally:
            server.stop()
