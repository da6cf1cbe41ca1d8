"""A minimal HTTP/1.1 message layer for the control API.

The paper's control API is "a simple RESTful web interface to the
router".  This module implements just enough of HTTP — request/response
parsing and serialisation with Content-Length framing — to serve that
interface over any byte transport (the in-process handler used by the
UIs, or a TCP stream in the simulator).
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Union

from ...core.errors import ServiceError

CRLF = "\r\n"

STATUS_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
}

SUPPORTED_METHODS = ("GET", "POST", "PUT", "DELETE", "PATCH", "HEAD")


class HttpError(ServiceError):
    """Carries an HTTP status for the error response."""

    def __init__(self, status: int, message: str = ""):
        super().__init__(message or STATUS_REASONS.get(status, "error"))
        self.status = status


class HttpRequest:
    """A parsed request."""

    def __init__(
        self,
        method: str,
        path: str,
        headers: Optional[Dict[str, str]] = None,
        body: bytes = b"",
    ):
        self.method = method.upper()
        # Split query string off the path.
        self.raw_path = path
        self.path, _, query = path.partition("?")
        self.query: Dict[str, str] = {}
        if query:
            for pair in query.split("&"):
                key, _, value = pair.partition("=")
                if key:
                    self.query[key] = value
        self.headers = {k.lower(): v for k, v in (headers or {}).items()}
        self.body = body

    def json(self) -> dict:
        """Decode the body as a JSON object (400 on failure)."""
        if not self.body:
            return {}
        try:
            data = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(data, dict):
            raise HttpError(400, "JSON body must be an object")
        return data

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    def serialize(self) -> bytes:
        headers = dict(self.headers)
        headers.setdefault("content-length", str(len(self.body)))
        lines = [f"{self.method} {self.raw_path} HTTP/1.1"]
        lines.extend(f"{k}: {v}" for k, v in headers.items())
        return (CRLF.join(lines) + CRLF + CRLF).encode("utf-8") + self.body

    @classmethod
    def parse(cls, raw: bytes) -> "HttpRequest":
        head, _, body = raw.partition(b"\r\n\r\n")
        try:
            text = head.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise HttpError(400, "request head is not UTF-8") from exc
        lines = text.split(CRLF)
        if not lines or not lines[0]:
            raise HttpError(400, "empty request")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise HttpError(400, f"malformed request line {lines[0]!r}")
        method, path, _version = parts
        if method.upper() not in SUPPORTED_METHODS:
            raise HttpError(405, f"method {method!r} not supported")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise HttpError(400, f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length")
        if length is not None:
            try:
                expected = int(length)
            except ValueError as exc:
                raise HttpError(400, "bad Content-Length") from exc
            if len(body) < expected:
                raise HttpError(400, "truncated body")
            body = body[:expected]
        return cls(method, path, headers, body)

    def __repr__(self) -> str:
        return f"HttpRequest({self.method} {self.raw_path})"


class HttpResponse:
    """A response, usually built via :func:`json_response`."""

    def __init__(
        self,
        status: int = 200,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
        content_type: str = "application/json",
    ):
        self.status = status
        self.body = body
        self.headers = {k.lower(): v for k, v in (headers or {}).items()}
        if body and "content-type" not in self.headers:
            self.headers["content-type"] = content_type

    def json(self) -> Union[dict, list]:
        return json.loads(self.body.decode("utf-8"))

    def serialize(self) -> bytes:
        reason = STATUS_REASONS.get(self.status, "Unknown")
        headers = dict(self.headers)
        headers["content-length"] = str(len(self.body))
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        lines.extend(f"{k}: {v}" for k, v in headers.items())
        return (CRLF.join(lines) + CRLF + CRLF).encode("utf-8") + self.body

    @classmethod
    def parse(cls, raw: bytes) -> "HttpResponse":
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode("utf-8").split(CRLF)
        parts = lines[0].split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise HttpError(400, f"malformed status line {lines[0]!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return cls(status, body, headers)

    def __repr__(self) -> str:
        return f"HttpResponse({self.status}, {len(self.body)} bytes)"


def json_response(data, status: int = 200) -> HttpResponse:
    """Build a JSON response from any JSON-serialisable value."""
    return HttpResponse(
        status, json.dumps(data, default=str, sort_keys=True).encode("utf-8")
    )


def text_response(text: str, status: int = 200) -> HttpResponse:
    """Plain-text response (metrics exposition, health probes)."""
    return HttpResponse(
        status, text.encode("utf-8"), content_type="text/plain; charset=utf-8"
    )


def error_response(status: int, message: str) -> HttpResponse:
    return json_response({"error": message, "status": status}, status)
