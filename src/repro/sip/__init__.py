"""A from-scratch SIP stack (RFC 3261 subset + MESSAGE/RFC 3428).

Layers: URI/headers/message codecs, SDP bodies, digest authentication,
UDP transport + transaction state machines, dialogs, a full user agent,
and the proxy/registrar pair standing in for SIP Express Router (the
testbed's, imported from their modules: an engine never loads them).
"""

from repro.sip.auth import (
    DigestChallenge,
    DigestCredentials,
    answer_challenge,
    compute_response,
    verify_credentials,
)
from repro.sip.constants import DEFAULT_SIP_PORT, SIP_VERSION, reason_phrase
from repro.sip.headers import CSeq, HeaderError, HeaderTable, NameAddr, Via
from repro.sip.message import (
    SipMessage,
    SipParseError,
    SipRequest,
    SipResponse,
    looks_like_sip,
    parse_message,
)
from repro.sip.sdp import MediaDescription, SdpError, SessionDescription, audio_offer
from repro.sip.uri import SipUri, UriError

__all__ = [
    "CSeq",
    "DEFAULT_SIP_PORT",
    "DigestChallenge",
    "DigestCredentials",
    "HeaderError",
    "HeaderTable",
    "MediaDescription",
    "NameAddr",
    "SIP_VERSION",
    "SdpError",
    "SessionDescription",
    "SipMessage",
    "SipParseError",
    "SipRequest",
    "SipResponse",
    "SipUri",
    "UriError",
    "Via",
    "answer_challenge",
    "audio_offer",
    "compute_response",
    "looks_like_sip",
    "parse_message",
    "reason_phrase",
    "verify_credentials",
]
