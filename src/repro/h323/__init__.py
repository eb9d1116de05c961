"""H.323 substrate (compact): H.225 call signalling, RAS gatekeeper,
fast-connect terminals — the second call-management protocol class the
paper says SCIDIVE handles."""

from repro.h323.h225 import H225_PORT, H225Error, H225Message, IE, MessageType, looks_like_h225
from repro.h323.ras import RAS_PORT, Gatekeeper, RasMessage, RasType

__all__ = [
    "Gatekeeper",
    "H225Error",
    "H225Message",
    "H225_PORT",
    "IE",
    "MessageType",
    "RAS_PORT",
    "RasMessage",
    "RasType",
    "looks_like_h225",
]
