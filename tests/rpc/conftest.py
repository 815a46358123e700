"""Read-front-door suite helpers."""

from __future__ import annotations

import json

from repro.fbnet.rpc import RpcRequest, encode_message


def respelled(request: RpcRequest) -> bytes:
    """``request`` on the wire with its args spelled another way (keys in
    reverse order, indented): the same question in different bytes."""
    body = json.dumps(dict(reversed(sorted(request.args.items()))), indent=1).encode()
    head = request.to_wire()[: -len(encode_message(request.args)) - 4]
    return head + len(body).to_bytes(4, "big") + body
