"""repro.serve: the long-lived serving layer over the forwarding engine.

Everything below this package turns the run-to-completion
:class:`~repro.engine.ForwardingEngine` into a daemon (DESIGN.md 3.11):

- :mod:`repro.serve.config` -- :class:`ServeConfig`, the one knob set
  shared by the CLI, the daemon and the tests;
- :mod:`repro.serve.core` -- :class:`ServeCore`, the transport-free
  ingress/batcher/conservation core (also the conformance executor);
- :mod:`repro.serve.daemon` -- UDP ingress (read up to a budget per
  wakeup, flushed on the ``batch_max`` size trigger or the
  ``batch_timeout_ms`` deadline) and the HTTP control plane
  (``/metrics``, ``/healthz``, ``/reconfig``) on one asyncio thread;
- :mod:`repro.serve.client` -- the asyncio Zipf load generator;
- :mod:`repro.serve.state` -- the picklable content-delivery node
  state the daemon serves by default.
"""

from repro.serve.config import ServeConfig
from repro.serve.core import (
    QUARANTINED_REPLY,
    RATE_LIMITED_REPLY,
    REFUSAL_REPLIES,
    SHED_REPLY,
    ServeCore,
    decode_reply,
    encode_reply,
)
from repro.serve.state import (
    serve_content_names,
    serve_content_state_factory,
)

__all__ = [
    "QUARANTINED_REPLY",
    "RATE_LIMITED_REPLY",
    "REFUSAL_REPLIES",
    "SHED_REPLY",
    "ServeConfig",
    "ServeCore",
    "decode_reply",
    "encode_reply",
    "serve_content_names",
    "serve_content_state_factory",
]
