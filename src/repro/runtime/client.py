"""Stdlib HTTP client for the campaign service (``repro submit``).

A thin wrapper over :mod:`http.client` — the service speaks plain
HTTP/1.1 with JSON bodies and Server-Sent-Events progress streams, so
no third-party client is needed.  Maps the service's error statuses
back onto the package's exception hierarchy: 429 raises
:class:`~repro.errors.QueueFullError`, other non-2xx statuses raise
:class:`~repro.errors.ServiceError` carrying the server's message.

The client keeps **one persistent keep-alive connection** (the service
honours ``Connection: keep-alive``), so a worker's lease/heartbeat/
result traffic rides a single TCP stream instead of paying connect +
slow-start per request.  The pooled connection is lock-guarded (one
request in flight per client) and transparently replaced when the
server closes it between requests; every path — success, HTTP error,
transport error — either returns the connection to the pool or closes
it, so no socket leaks.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from urllib.parse import urlencode, urlsplit

from repro.errors import LeaseExpiredError, QueueFullError, ServiceError

#: Default service address (the ``ServiceConfig`` defaults).
DEFAULT_URL = "http://127.0.0.1:8421"

#: Transport errors that mean "the server closed the idle keep-alive
#: connection between our requests".  Only these are retried, and only
#: on a *reused* connection's first attempt — the request never reached
#: the application, so resending cannot double-execute anything.  A
#: timeout or error mid-response is NOT retried (the request may have
#: executed).
_RETRYABLE = (
    http.client.BadStatusLine,
    http.client.RemoteDisconnected,
    ConnectionResetError,
    BrokenPipeError,
)


class ServiceClient:
    """Synchronous client for one campaign-service endpoint.

    Parameters
    ----------
    url:
        Base address, e.g. ``http://127.0.0.1:8421``.
    timeout:
        Socket timeout in seconds for each request (progress streams
        use it per-read, so heartbeats keep long streams alive).
    keep_alive:
        Reuse one persistent connection across requests (the default).
        ``False`` sends ``Connection: close`` and dials per request —
        the pre-pooling behaviour, kept for the throughput benchmark's
        legacy mode and as an escape hatch for broken middleboxes.
    """

    def __init__(
        self,
        url: str = DEFAULT_URL,
        timeout: float = 60.0,
        keep_alive: bool = True,
    ) -> None:
        split = urlsplit(url if "//" in url else f"//{url}")
        if split.scheme not in ("", "http"):
            raise ServiceError(f"only http:// URLs are supported, got {url!r}")
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 8421
        self.timeout = timeout
        self.keep_alive = keep_alive
        self._lock = threading.Lock()
        self._conn: http.client.HTTPConnection | None = None

    # -- plumbing -----------------------------------------------------------

    def _exchange(
        self,
        method: str,
        path: str,
        payload: bytes | None,
        headers: dict,
    ) -> tuple[int, bytes]:
        """One request/response on the pooled connection.

        Takes the pooled connection (or dials), sends, reads the full
        body, and returns the connection to the pool when both sides
        agreed to keep it alive — otherwise closes it.  A transport
        error on a freshly *reused* connection before any response
        bytes arrived means the server reaped the idle socket; that
        one case retries once on a fresh connection.
        """
        if not self.keep_alive:
            headers.setdefault("Connection", "close")
        with self._lock:
            for attempt in (1, 2):
                conn, self._conn = self._conn, None
                reused = conn is not None
                if conn is None:
                    conn = http.client.HTTPConnection(
                        self.host, self.port, timeout=self.timeout
                    )
                try:
                    conn.request(method, path, body=payload, headers=headers)
                    response = conn.getresponse()
                    raw = response.read()
                except _RETRYABLE:
                    conn.close()
                    if reused and attempt == 1:
                        continue
                    raise
                except BaseException:
                    conn.close()
                    raise
                if self.keep_alive and not response.will_close:
                    self._conn = conn
                else:
                    conn.close()
                return response.status, raw
        raise AssertionError("unreachable")  # pragma: no cover

    def request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        headers: dict | None = None,
    ) -> tuple[int, dict]:
        """One request/response cycle; returns ``(status, json_body)``."""
        payload = json.dumps(body).encode() if body is not None else None
        sent = {"Content-Type": "application/json"} if payload else {}
        sent.update(headers or {})
        status, raw = self._exchange(method, path, payload, sent)
        return status, json.loads(raw) if raw else {}

    def request_text(self, method: str, path: str) -> tuple[int, str]:
        """One request/response cycle for a non-JSON endpoint
        (``GET /metrics``); returns ``(status, text_body)``."""
        status, raw = self._exchange(method, path, None, {})
        return status, raw.decode()

    def close(self) -> None:
        """Close the pooled connection (if any); the client stays
        usable — the next request simply dials again."""
        with self._lock:
            conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        """Context-manager entry (returns self)."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: close the pooled connection."""
        self.close()

    def _checked(self, method: str, path: str, body: dict | None = None) -> dict:
        status, parsed = self.request(method, path, body)
        if status == 429:
            raise QueueFullError(parsed.get("error", "queue full"))
        if status >= 400:
            raise ServiceError(
                f"{method} {path} -> {status}: "
                f"{parsed.get('error', 'unknown error')}"
            )
        return parsed

    # -- the API ------------------------------------------------------------

    def health(self) -> dict:
        """``GET /healthz``."""
        return self._checked("GET", "/healthz")

    def submit(self, body: dict, tenant: str | None = None) -> list[dict]:
        """``POST /jobs``; returns the accepted job records.

        ``tenant`` sets the ``X-Tenant`` header (admission quotas and
        rate limits are accounted per tenant; omitted = "default").
        """
        headers = {"X-Tenant": tenant} if tenant is not None else None
        status, parsed = self.request("POST", "/jobs", body, headers=headers)
        if status == 429:
            raise QueueFullError(parsed.get("error", "queue full"))
        if status >= 400:
            raise ServiceError(
                f"POST /jobs -> {status}: "
                f"{parsed.get('error', 'unknown error')}"
            )
        return parsed["jobs"]

    def metrics(self) -> str:
        """``GET /metrics`` — the Prometheus text exposition, verbatim.

        Parse it with :func:`repro.runtime.metrics.parse_samples`.
        """
        status, text = self.request_text("GET", "/metrics")
        if status >= 400:
            raise ServiceError(f"GET /metrics -> {status}")
        return text

    def job(self, job_id: str) -> dict:
        """``GET /jobs/{id}`` — full record, payload included when done."""
        return self._checked("GET", f"/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        """``GET /jobs`` — every record the service tracks."""
        return self._checked("GET", "/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict:
        """``DELETE /jobs/{id}`` — cancel a queued job, or preempt a
        running one into a checkpoint when the service checkpoints."""
        return self._checked("DELETE", f"/jobs/{job_id}")

    def results(self, **filters) -> list[dict]:
        """``GET /results`` with optional equality filters."""
        query = urlencode({k: v for k, v in filters.items() if v is not None})
        path = f"/results?{query}" if query else "/results"
        return self._checked("GET", path)["results"]

    def shutdown(self) -> dict:
        """``POST /shutdown`` — graceful remote stop."""
        return self._checked("POST", "/shutdown")

    # -- worker protocol (the fleet; see runtime/worker.py) ---------------

    def register_worker(self, name: str | None = None) -> dict:
        """``POST /workers`` — register this host; returns the grant
        (worker id, lease TTL, suggested heartbeat interval)."""
        body = {"name": name} if name is not None else {}
        return self._checked("POST", "/workers", body)

    def workers(self) -> dict:
        """``GET /workers`` — registered workers plus active leases."""
        return self._checked("GET", "/workers")

    def lease(
        self, worker_id: str, max_jobs: int = 1, wait_s: float = 0.0
    ) -> dict | None:
        """``POST /leases`` — claim the next queued job(s).

        Returns the grant (``lease`` plus ``jobs``, the leased job
        records in priority order) or None when the queue is empty
        (HTTP 204) — poll again later.  ``max_jobs > 1`` asks for up to
        that many jobs under one lease id and one heartbeat (the
        service clamps to its ``lease_batch_limit``).  ``wait_s > 0``
        long-polls: the service holds an empty request until a job is
        queued or ``wait_s`` runs out.
        """
        body: dict = {"worker": worker_id}
        if max_jobs != 1:
            body["max_jobs"] = max_jobs
        if wait_s > 0:
            body["wait_s"] = wait_s
        status, parsed = self.request("POST", "/leases", body)
        if status == 204:
            return None
        if status == 409:
            raise LeaseExpiredError(parsed.get("error", "lease conflict"))
        if status >= 400:
            raise ServiceError(
                f"POST /leases -> {status}: "
                f"{parsed.get('error', 'unknown error')}"
            )
        return parsed

    def _checked_lease(self, path: str, body: dict | None = None) -> dict:
        """POST to a lease sub-resource; 409 means the lease is gone."""
        status, parsed = self.request("POST", path, body)
        if status == 409:
            raise LeaseExpiredError(parsed.get("error", "lease expired"))
        if status >= 400:
            raise ServiceError(
                f"POST {path} -> {status}: "
                f"{parsed.get('error', 'unknown error')}"
            )
        return parsed

    def heartbeat(
        self, lease_id: str, checkpoints: dict[str, str] | None = None
    ) -> dict:
        """``POST /leases/{id}/heartbeat`` — extend the claim by one
        TTL.  Raises :class:`LeaseExpiredError` once the lease is gone.

        ``checkpoints`` optionally carries the latest encoded anytime
        checkpoint per job id of the lease (see
        :mod:`repro.core.checkpoint`); the service persists each into
        its store, making preemption and crash recovery lossless up to
        the last delivered snapshot.
        """
        body = {"checkpoints": checkpoints} if checkpoints else None
        return self._checked_lease(f"/leases/{lease_id}/heartbeat", body)

    def submit_results(self, lease_id: str, outcomes: list[dict]) -> dict:
        """``POST /leases/{id}/results`` — deliver a lease's results.

        The one result route; a one-job lease delivers a list of one.
        Each outcome carries the ``job_id`` it answers plus either an
        encoded payload (``payload_kind`` / ``payload`` /
        ``wall_clock_s`` / ``lut_from_cache``) or an ``{"error": ...}``
        job failure.  The response carries a per-job ``results`` status
        array and the ids of any jobs the service requeued
        (``requeued``) — one job's failure never poisons its siblings.
        Raises :class:`LeaseExpiredError` when the lease expired first
        (its jobs were requeued; discard the work).
        """
        return self._checked_lease(
            f"/leases/{lease_id}/results", {"results": outcomes}
        )

    # -- LUT shard endpoints (the fleet cache; see runtime/lutcache.py) --

    def lut_index(self) -> list[dict]:
        """``GET /luts`` — every shard entry the service advertises."""
        return self._checked("GET", "/luts")["luts"]

    def get_lut(self, platform: str, network: str, **key) -> dict | None:
        """``GET /luts/{platform}/{network}`` — the LUT JSON payload.

        ``key`` holds the remaining identity fields (``mode``, and
        optionally ``seed``/``repeats``/``version``).  Returns None on
        a 404 miss instead of raising — a miss is an answer.
        """
        query = urlencode({k: v for k, v in key.items() if v is not None})
        status, parsed = self.request("GET", f"/luts/{platform}/{network}?{query}")
        if status == 404:
            return None
        if status >= 400:
            raise ServiceError(
                f"GET /luts/{platform}/{network} -> {status}: "
                f"{parsed.get('error', 'unknown error')}"
            )
        return parsed

    def put_lut(self, platform: str, network: str, payload: dict, **key) -> dict:
        """``PUT /luts/{platform}/{network}`` — publish one LUT entry."""
        query = urlencode({k: v for k, v in key.items() if v is not None})
        status, parsed = self.request(
            "PUT", f"/luts/{platform}/{network}?{query}", payload
        )
        if status >= 400:
            raise ServiceError(
                f"PUT /luts/{platform}/{network} -> {status}: "
                f"{parsed.get('error', 'unknown error')}"
            )
        return parsed

    def wait(self, job_id: str, poll_s: float = 0.2, timeout: float = 600.0) -> dict:
        """Poll ``GET /jobs/{id}`` until the job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["state"] in ("done", "failed", "cancelled"):
                return record
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {record['state']} after {timeout}s"
                )
            time.sleep(poll_s)

    def stream_progress(self, job_id: str):
        """``GET /jobs/{id}/progress`` — yields ``(event, data)`` pairs.

        Iterates the SSE stream until the server closes it (after the
        terminal event), decoding each ``data:`` line from JSON.
        """
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request("GET", f"/jobs/{job_id}/progress")
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                parsed = json.loads(raw) if raw else {}
                raise ServiceError(
                    f"GET /jobs/{job_id}/progress -> {response.status}: "
                    f"{parsed.get('error', 'unknown error')}"
                )
            event = None
            for raw_line in response:
                line = raw_line.decode().rstrip("\n")
                if line.startswith("event: "):
                    event = line[len("event: "):]
                elif line.startswith("data: ") and event is not None:
                    yield event, json.loads(line[len("data: "):])
                elif not line:
                    event = None
        finally:
            conn.close()
