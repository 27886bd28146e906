"""A production-shaped client for the analysis service.

``urllib.request.urlopen`` in a loop is fine for a demo and wrong for an
operator: no backoff (retries hammer an overloaded server), no jitter
(every client retries in lockstep), no deadline (a wedged server hangs
the caller forever), a fresh TCP connection per request, and no respect
for the ``Retry-After`` the server went to some trouble to compute.
:class:`AnalysisClient` is the client the serving layer's failure
semantics were designed against:

* **capped exponential backoff with full jitter** -- attempt *k* sleeps
  ``uniform(0, min(backoff_max_s, backoff_base_s * 2**k))``, so a
  thousand clients bounced by one server restart do not return as one
  synchronised thundering herd;
* **Retry-After honoured** -- a server hint (429 admission/shedding,
  503 open breaker) becomes the floor of the next sleep;
* **idempotent retries keyed by request fingerprint** -- every attempt
  of one logical request carries the same ``X-Request-Id`` (a SHA-256
  of method, path and canonical body), so server logs and traces show
  one logical request with N attempts, not N unrelated requests.
  Analysis is a pure function of the request document, which is what
  makes blind retry safe in the first place;
* **two-level deadlines** -- ``attempt_timeout_s`` bounds each socket
  operation, ``total_deadline_s`` bounds the whole retry dance; the
  client never sleeps past the total deadline;
* **connection reuse** -- one keep-alive connection per client,
  transparently re-established when the server (or its restart) drops
  it.

One client instance serves one thread; give each thread its own.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import time
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from ..core.exceptions import ReproError

#: HTTP statuses that mean "try again later" rather than "you are wrong".
RETRY_STATUSES = (429, 503, 504)

#: Hard ceiling on a single backoff sleep, whatever Retry-After says.
MAX_SLEEP_S = 30.0


class ClientError(ReproError):
    """Base class of every failure :class:`AnalysisClient` raises."""


class ServerStatusError(ClientError):
    """The server answered with a non-retryable error status."""

    def __init__(self, status: int, message: str,
                 doc: Optional[dict] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.doc = doc or {}


class RetryBudgetError(ClientError):
    """Attempts or the total deadline ran out before a success."""

    def __init__(self, message: str, attempts: int,
                 last_status: Optional[int] = None):
        super().__init__(message)
        self.attempts = attempts
        self.last_status = last_status


def request_fingerprint(method: str, path: str, doc: object) -> str:
    """Stable identity of one logical request (all retries share it)."""
    canonical = json.dumps(
        {"method": method, "path": path, "body": doc},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def parse_retry_after(value: Optional[str]) -> Optional[float]:
    """Seconds from a ``Retry-After`` header, or ``None`` if unusable."""
    if value is None:
        return None
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    if not 0 < seconds < float("inf"):
        return None
    return seconds


class AnalysisClient:
    """Retrying, deadline-aware, connection-reusing service client."""

    def __init__(
        self,
        base_url: str,
        total_deadline_s: float = 30.0,
        attempt_timeout_s: float = 10.0,
        max_attempts: int = 8,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        retry_statuses: Sequence[int] = RETRY_STATUSES,
        api_key: Optional[str] = None,
        rng: Optional[random.Random] = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if total_deadline_s <= 0 or attempt_timeout_s <= 0:
            raise ValueError("deadlines must be positive")
        parts = urlsplit(base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"base_url must be http://host:port, "
                             f"got {base_url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.total_deadline_s = total_deadline_s
        self.attempt_timeout_s = attempt_timeout_s
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.retry_statuses = frozenset(retry_statuses)
        self.api_key = api_key
        self._rng = rng or random.Random()
        self._clock = clock
        self._sleep = sleep
        self._conn: Optional[http.client.HTTPConnection] = None
        self.requests_sent = 0
        self.retries = 0

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "AnalysisClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- public API --------------------------------------------------------

    def analyze(self, doc: Dict[str, object],
                total_deadline_s: Optional[float] = None
                ) -> Dict[str, object]:
        """One ``/v1/analyze`` question, retried to completion."""
        return self._request_json("POST", "/v1/analyze", doc,
                                  total_deadline_s)

    def analyze_batch(self, docs: List[Dict[str, object]],
                      total_deadline_s: Optional[float] = None
                      ) -> List[Dict[str, object]]:
        """One ``/v1/analyze_batch`` round-trip; returns the items."""
        answer = self._request_json("POST", "/v1/analyze_batch",
                                    {"requests": list(docs)},
                                    total_deadline_s)
        return list(answer.get("results") or [])

    def healthz(self) -> Tuple[int, Dict[str, object]]:
        """One un-retried health probe: ``(status, document)``.

        A 503 here is an *observation* (draining / given up), not a
        failure, so no status is raised; network-level failures still
        raise :class:`ClientError`.
        """
        status, doc, _ = self._one_attempt("GET", "/healthz", None,
                                           self.attempt_timeout_s, None)
        return status, doc if isinstance(doc, dict) else {}

    def metrics(self) -> Dict[str, object]:
        """One un-retried ``/metrics`` snapshot scrape."""
        status, doc, _ = self._one_attempt("GET", "/metrics", None,
                                           self.attempt_timeout_s, None)
        if status != 200 or not isinstance(doc, dict):
            raise ServerStatusError(status, "metrics scrape failed",
                                    doc if isinstance(doc, dict) else None)
        return doc

    # -- retry engine ------------------------------------------------------

    def _request_json(self, method: str, path: str, doc: object,
                      total_deadline_s: Optional[float]) -> dict:
        budget = (total_deadline_s if total_deadline_s is not None
                  else self.total_deadline_s)
        deadline_at = self._clock() + budget
        request_id = "cli-" + request_fingerprint(method, path, doc)[:24]
        last_status: Optional[int] = None
        last_error = "no attempt was made"
        attempts_made = 0
        for attempt in range(self.max_attempts):
            remaining = deadline_at - self._clock()
            if remaining <= 0:
                break
            if attempt:
                self.retries += 1
            attempts_made += 1
            timeout = min(self.attempt_timeout_s, remaining)
            retry_after: Optional[float] = None
            try:
                status, answer, retry_after = self._one_attempt(
                    method, path, doc, timeout, request_id)
            except ClientError as exc:
                # Network-level failure: connection refused (server
                # restarting), reset mid-flight (server killed),
                # timeout.  All retryable for an idempotent request.
                last_status, last_error = None, str(exc)
            else:
                if status < 300:
                    if not isinstance(answer, dict):
                        raise ServerStatusError(
                            status, f"expected a JSON object, "
                                    f"got {type(answer).__name__}")
                    return answer
                message = _error_message(answer)
                if status not in self.retry_statuses:
                    raise ServerStatusError(status, message,
                                            answer if isinstance(answer, dict)
                                            else None)
                last_status, last_error = status, message
            delay = self._backoff_delay(attempt, retry_after)
            remaining = deadline_at - self._clock()
            if remaining <= 0 or attempt == self.max_attempts - 1:
                break
            self._sleep(min(delay, remaining))
        raise RetryBudgetError(
            f"request failed after {attempts_made} attempt(s) "
            f"within {budget:.3f}s: {last_error}",
            attempts=attempts_made, last_status=last_status,
        )

    def _backoff_delay(self, attempt: int,
                       retry_after: Optional[float]) -> float:
        cap = min(self.backoff_max_s, self.backoff_base_s * (2 ** attempt))
        delay = self._rng.uniform(0.0, cap)
        if retry_after is not None:
            # The server's hint is a floor, not a schedule: the jitter
            # on top keeps simultaneous retriers spread out.
            delay = max(delay, retry_after)
        return min(delay, MAX_SLEEP_S)

    # -- transport ---------------------------------------------------------

    def _one_attempt(self, method: str, path: str, doc: object,
                     timeout: float, request_id: Optional[str]
                     ) -> Tuple[int, object, Optional[float]]:
        body = (json.dumps(doc).encode()
                if method == "POST" else None)
        headers = {"Content-Type": "application/json"}
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        if self.api_key is not None:
            headers["X-API-Key"] = self.api_key
        conn = self._conn
        if conn is None:
            conn = http.client.HTTPConnection(self.host, self.port,
                                              timeout=timeout)
        else:
            conn.timeout = timeout
            if conn.sock is not None:
                conn.sock.settimeout(timeout)
        self.requests_sent += 1
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            self._conn = None
            raise ClientError(f"transport failure: {exc!r}") from exc
        self._conn = conn
        if response.will_close:
            self.close()
        retry_after = parse_retry_after(response.getheader("Retry-After"))
        try:
            answer = json.loads(raw.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError):
            answer = None
        return response.status, answer, retry_after


def _error_message(answer: object) -> str:
    if isinstance(answer, dict):
        error = answer.get("error")
        if isinstance(error, dict) and error.get("message"):
            return str(error["message"])
    return "server error"
