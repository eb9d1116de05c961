"""Shared-medium hub — the paper's Figure 4 topology element.

The testbed in the paper connects clients, proxy and the IDS through an
Ethernet hub so that the IDS can observe client A's traffic passively.
Our :class:`Hub` broadcasts every transmitted frame to all other attached
interfaces, applying a per-attachment :class:`~repro.sim.link.LinkModel`
(delay / jitter / loss) on the way.

Unicast filtering happens at the receiving interface: non-promiscuous
interfaces only get frames whose destination MAC matches their own or is
broadcast, which is exactly what a NIC without promiscuous mode does.
The destination MAC is read directly from the Ethernet header bytes so
the hub stays payload-agnostic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.sim.eventloop import EventLoop
from repro.sim.link import LinkModel, lan_link
from repro.sim.node import NetworkInterface

ETHERNET_BROADCAST = "ff:ff:ff:ff:ff:ff"


def _destination_mac(frame: bytes) -> str:
    """Extract the destination MAC from the first 6 bytes of a frame."""
    if len(frame) < 6:
        return ETHERNET_BROADCAST
    return ":".join(f"{b:02x}" for b in frame[:6])


@dataclass(slots=True)
class _Attachment:
    iface: NetworkInterface
    link: LinkModel


class Hub:
    """A broadcast segment with per-port link models."""

    def __init__(self, loop: EventLoop, rng: random.Random | None = None, name: str = "hub") -> None:
        self.loop = loop
        self.name = name
        self.rng = rng if rng is not None else random.Random(0)
        self._attachments: list[_Attachment] = []
        self.frames_switched = 0
        self.frames_dropped = 0

    def attach(self, iface: NetworkInterface, link: LinkModel | None = None) -> None:
        """Plug an interface into the hub with an optional link model."""
        self._attachments.append(_Attachment(iface, link if link is not None else lan_link()))
        iface.attach(self)

    def transmit(self, sender: NetworkInterface, frame: bytes) -> None:
        """Broadcast ``frame`` to every other attached interface."""
        now = self.loop.now()
        dst_mac = _destination_mac(frame)
        self.frames_switched += 1
        for attachment in self._attachments:
            iface = attachment.iface
            if iface is sender:
                continue
            if not iface.promiscuous and dst_mac not in (iface.mac, ETHERNET_BROADCAST):
                continue
            delay = attachment.link.delivery_delay(len(frame), now, self.rng)
            if delay is None:
                self.frames_dropped += 1
                continue
            # Bind loop variables explicitly; late binding in the closure
            # would deliver the wrong frame.
            self.loop.call_later(
                delay,
                lambda i=iface, f=frame: i.deliver(f, self.loop.now()),
            )

    @property
    def ports(self) -> int:
        return len(self._attachments)
