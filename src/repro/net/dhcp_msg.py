"""DHCP wire format (RFC 2131/2132).

The Homework DHCP server is a NOX module: DHCP broadcasts reach the
controller as packet-in events, and these messages are what it parses and
emits.  BOOTP fixed fields plus the option TLVs the home deployment uses.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from .addresses import IPv4Address, MACAddress
from .packet import Packet, PacketError

BOOTREQUEST = 1
BOOTREPLY = 2

# DHCP message types (option 53).
DHCPDISCOVER = 1
DHCPOFFER = 2
DHCPREQUEST = 3
DHCPDECLINE = 4
DHCPACK = 5
DHCPNAK = 6
DHCPRELEASE = 7
DHCPINFORM = 8

MESSAGE_TYPE_NAMES = {
    DHCPDISCOVER: "DISCOVER",
    DHCPOFFER: "OFFER",
    DHCPREQUEST: "REQUEST",
    DHCPDECLINE: "DECLINE",
    DHCPACK: "ACK",
    DHCPNAK: "NAK",
    DHCPRELEASE: "RELEASE",
    DHCPINFORM: "INFORM",
}

# Option codes.
OPT_PAD = 0
OPT_SUBNET_MASK = 1
OPT_ROUTER = 3
OPT_DNS_SERVER = 6
OPT_HOSTNAME = 12
OPT_REQUESTED_IP = 50
OPT_LEASE_TIME = 51
OPT_MESSAGE_TYPE = 53
OPT_SERVER_ID = 54
OPT_PARAM_REQUEST = 55
OPT_RENEWAL_TIME = 58
OPT_REBINDING_TIME = 59
OPT_CLIENT_ID = 61
OPT_END = 255

_MAGIC_COOKIE = b"\x63\x82\x53\x63"
_FIXED_LEN = 236


class DHCPMessage(Packet):
    """A BOOTP/DHCP message with an option dictionary."""

    def __init__(
        self,
        op: int,
        xid: int,
        chaddr: Union[str, MACAddress],
        ciaddr: Union[str, IPv4Address] = "0.0.0.0",
        yiaddr: Union[str, IPv4Address] = "0.0.0.0",
        siaddr: Union[str, IPv4Address] = "0.0.0.0",
        giaddr: Union[str, IPv4Address] = "0.0.0.0",
        secs: int = 0,
        flags: int = 0,
        options: Optional[Dict[int, bytes]] = None,
    ):
        if op not in (BOOTREQUEST, BOOTREPLY):
            raise PacketError(f"bad BOOTP op: {op}")
        self.op = op
        self.xid = int(xid) & 0xFFFFFFFF
        self.chaddr = MACAddress(chaddr)
        self.ciaddr = IPv4Address(ciaddr)
        self.yiaddr = IPv4Address(yiaddr)
        self.siaddr = IPv4Address(siaddr)
        self.giaddr = IPv4Address(giaddr)
        self.secs = int(secs) & 0xFFFF
        self.flags = int(flags) & 0xFFFF
        self.options: Dict[int, bytes] = dict(options or {})
        self.payload = b""

    # -- option helpers -------------------------------------------------

    @property
    def message_type(self) -> Optional[int]:
        raw = self.options.get(OPT_MESSAGE_TYPE)
        return raw[0] if raw else None

    @property
    def message_type_name(self) -> str:
        return MESSAGE_TYPE_NAMES.get(self.message_type or 0, "UNKNOWN")

    @property
    def requested_ip(self) -> Optional[IPv4Address]:
        raw = self.options.get(OPT_REQUESTED_IP)
        return IPv4Address(raw) if raw and len(raw) == 4 else None

    @property
    def server_id(self) -> Optional[IPv4Address]:
        raw = self.options.get(OPT_SERVER_ID)
        return IPv4Address(raw) if raw and len(raw) == 4 else None

    @property
    def hostname(self) -> Optional[str]:
        raw = self.options.get(OPT_HOSTNAME)
        return raw.decode("utf-8", "replace") if raw else None

    @property
    def lease_time(self) -> Optional[int]:
        raw = self.options.get(OPT_LEASE_TIME)
        return int.from_bytes(raw, "big") if raw and len(raw) == 4 else None

    def set_option_ip(self, code: int, addr: Union[str, IPv4Address]) -> None:
        self.options[code] = IPv4Address(addr).packed

    def set_option_u32(self, code: int, value: int) -> None:
        self.options[code] = int(value).to_bytes(4, "big")

    def set_option_str(self, code: int, value: str) -> None:
        self.options[code] = value.encode("utf-8")

    # -- client message builders ----------------------------------------

    @classmethod
    def discover(
        cls, chaddr: Union[str, MACAddress], xid: int, hostname: str = ""
    ) -> "DHCPMessage":
        msg = cls(BOOTREQUEST, xid, chaddr, flags=0x8000)
        msg.options[OPT_MESSAGE_TYPE] = bytes([DHCPDISCOVER])
        if hostname:
            msg.set_option_str(OPT_HOSTNAME, hostname)
        return msg

    @classmethod
    def request(
        cls,
        chaddr: Union[str, MACAddress],
        xid: int,
        requested_ip: Union[str, IPv4Address],
        server_id: Union[str, IPv4Address],
        hostname: str = "",
    ) -> "DHCPMessage":
        msg = cls(BOOTREQUEST, xid, chaddr, flags=0x8000)
        msg.options[OPT_MESSAGE_TYPE] = bytes([DHCPREQUEST])
        msg.set_option_ip(OPT_REQUESTED_IP, requested_ip)
        msg.set_option_ip(OPT_SERVER_ID, server_id)
        if hostname:
            msg.set_option_str(OPT_HOSTNAME, hostname)
        return msg

    @classmethod
    def release(
        cls,
        chaddr: Union[str, MACAddress],
        xid: int,
        ciaddr: Union[str, IPv4Address],
        server_id: Union[str, IPv4Address],
    ) -> "DHCPMessage":
        msg = cls(BOOTREQUEST, xid, chaddr, ciaddr=ciaddr)
        msg.options[OPT_MESSAGE_TYPE] = bytes([DHCPRELEASE])
        msg.set_option_ip(OPT_SERVER_ID, server_id)
        return msg

    # -- server reply builder -------------------------------------------

    def reply(
        self,
        message_type: int,
        yiaddr: Union[str, IPv4Address],
        server_id: Union[str, IPv4Address],
    ) -> "DHCPMessage":
        """Build a BOOTREPLY (OFFER/ACK/NAK) answering this request."""
        msg = DHCPMessage(
            BOOTREPLY,
            self.xid,
            self.chaddr,
            yiaddr=yiaddr,
            siaddr=server_id,
            flags=self.flags,
        )
        msg.options[OPT_MESSAGE_TYPE] = bytes([message_type])
        msg.set_option_ip(OPT_SERVER_ID, server_id)
        return msg

    # -- wire format ------------------------------------------------------

    def pack(self) -> bytes:
        fixed = bytearray(_FIXED_LEN)
        fixed[0] = self.op
        fixed[1] = 1  # htype: Ethernet
        fixed[2] = 6  # hlen
        fixed[3] = 0  # hops
        fixed[4:8] = self.xid.to_bytes(4, "big")
        fixed[8:10] = self.secs.to_bytes(2, "big")
        fixed[10:12] = self.flags.to_bytes(2, "big")
        fixed[12:16] = self.ciaddr.packed
        fixed[16:20] = self.yiaddr.packed
        fixed[20:24] = self.siaddr.packed
        fixed[24:28] = self.giaddr.packed
        fixed[28:34] = self.chaddr.packed
        opts = bytearray(_MAGIC_COOKIE)
        for code in sorted(self.options):
            value = self.options[code]
            if len(value) > 255:
                raise PacketError(f"DHCP option {code} too long")
            opts += bytes([code, len(value)]) + value
        opts.append(OPT_END)
        return bytes(fixed) + bytes(opts)

    @classmethod
    def unpack(cls, data: bytes) -> "DHCPMessage":
        if len(data) < _FIXED_LEN + 4:
            raise PacketError(f"DHCP message too short: {len(data)} bytes")
        if data[1] != 1 or data[2] != 6:
            raise PacketError("only Ethernet chaddr supported")
        msg = cls(
            op=data[0],
            xid=int.from_bytes(data[4:8], "big"),
            chaddr=MACAddress(data[28:34]),
            ciaddr=IPv4Address(data[12:16]),
            yiaddr=IPv4Address(data[16:20]),
            siaddr=IPv4Address(data[20:24]),
            giaddr=IPv4Address(data[24:28]),
            secs=int.from_bytes(data[8:10], "big"),
            flags=int.from_bytes(data[10:12], "big"),
        )
        if data[_FIXED_LEN : _FIXED_LEN + 4] != _MAGIC_COOKIE:
            raise PacketError("missing DHCP magic cookie")
        offset = _FIXED_LEN + 4
        while offset < len(data):
            code = data[offset]
            offset += 1
            if code == OPT_PAD:
                continue
            if code == OPT_END:
                break
            if offset >= len(data):
                raise PacketError("truncated DHCP option header")
            length = data[offset]
            offset += 1
            if offset + length > len(data):
                raise PacketError(f"truncated DHCP option {code}")
            msg.options[code] = bytes(data[offset : offset + length])
            offset += length
        return msg

    def __repr__(self) -> str:
        return (
            f"DHCPMessage({self.message_type_name}, xid=0x{self.xid:08x}, "
            f"chaddr={self.chaddr}, yiaddr={self.yiaddr})"
        )


# List of options a typical home client requests (option 55 value).
DEFAULT_PARAM_REQUEST = bytes(
    [OPT_SUBNET_MASK, OPT_ROUTER, OPT_DNS_SERVER, OPT_LEASE_TIME]
)
