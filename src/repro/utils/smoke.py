"""What the ``python -m repro.<layer> --selftest`` smoke gates share: an
assertion that survives ``python -O``, and JSON over HTTP."""

from __future__ import annotations

import json
import urllib.request


def check(condition: bool, message: str) -> None:
    """Assertion that survives ``python -O`` (the selftests are CI gates)."""
    if not condition:
        raise RuntimeError(f"selftest check failed: {message}")


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as reply:
        return json.loads(reply.read())


def post_json(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as reply:
        return json.loads(reply.read())


__all__ = ["check", "get_json", "post_json"]
