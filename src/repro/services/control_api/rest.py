"""Tiny REST router: path templates → handlers."""

from __future__ import annotations

import logging
import re
from typing import Callable, List, Optional, Tuple

from ...core.metrics import MetricsRegistry
from .http import HttpError, HttpRequest, HttpResponse, error_response, text_response

logger = logging.getLogger(__name__)

Handler = Callable[..., HttpResponse]


def add_metrics_route(router: "RestRouter", registry: MetricsRegistry) -> None:
    """Mount ``GET /metrics`` serving ``registry`` in text exposition format.

    Scrapers poll this endpoint the way Prometheus would; the same
    snapshot is what the flusher periodically publishes into the hwdb
    ``Metrics`` table.
    """

    def metrics_handler(request: HttpRequest) -> HttpResponse:
        return text_response(registry.render_text())

    router.add("GET", "/metrics", metrics_handler)


def _compile_template(template: str) -> re.Pattern:
    """``/devices/{mac}/permit`` → regex with named groups."""
    parts = []
    for segment in template.strip("/").split("/"):
        if segment.startswith("{") and segment.endswith("}"):
            name = segment[1:-1]
            parts.append(f"(?P<{name}>[^/]+)")
        else:
            parts.append(re.escape(segment))
    return re.compile("^/" + "/".join(parts) + "/?$")


class RestRouter:
    """Routes (method, path) to handlers with extracted path params."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._routes: List[Tuple[str, re.Pattern, str, Handler]] = []
        registry = registry if registry is not None else MetricsRegistry()
        self._m_errors = registry.counter("http.handler_error_total")

    def route(self, method: str, template: str) -> Callable[[Handler], Handler]:
        """Decorator: ``@router.route("GET", "/devices/{mac}")``."""
        pattern = _compile_template(template)

        def decorator(handler: Handler) -> Handler:
            self._routes.append((method.upper(), pattern, template, handler))
            return handler

        return decorator

    def add(self, method: str, template: str, handler: Handler) -> None:
        self._routes.append((method.upper(), _compile_template(template), template, handler))

    def dispatch(self, request: HttpRequest) -> HttpResponse:
        """Find and invoke the handler; 404/405 when nothing matches."""
        path_matched = False
        for method, pattern, _template, handler in self._routes:
            match = pattern.match(request.path)
            if match is None:
                continue
            path_matched = True
            if method != request.method:
                continue
            try:
                return handler(request, **match.groupdict())
            except HttpError as exc:
                return error_response(exc.status, str(exc))
            except Exception as exc:  # noqa: BLE001 - API must answer
                logger.exception("handler for %s %s failed", method, request.path)
                self._m_errors.inc()
                return error_response(500, f"internal error: {exc}")
        if path_matched:
            return error_response(405, f"method {request.method} not allowed")
        return error_response(404, f"no such resource {request.path}")
