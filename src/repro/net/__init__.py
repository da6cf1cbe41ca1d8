"""Wire formats for the Homework router reproduction.

Ethernet, ARP, IPv4, UDP, TCP and ICMP headers are written by one
builder each, beside their constants, and read at fixed offsets in
:mod:`repro.net.rewrite`; no layer object stands for them.  DNS and
DHCP messages are codecs with symmetric pack/unpack.  Address types,
the Internet checksum and a pcap trace writer/reader complete the
package.
"""

from .addresses import AddressError, IPv4Address, IPv4Network, MACAddress
from .arp import ARP_REPLY, ARP_REQUEST
from .checksum import internet_checksum, pseudo_header, verify_checksum
from .dhcp_msg import (
    BOOTREPLY,
    BOOTREQUEST,
    DHCPACK,
    DHCPDECLINE,
    DHCPDISCOVER,
    DHCPINFORM,
    DHCPMessage,
    DHCPNAK,
    DHCPOFFER,
    DHCPRELEASE,
    DHCPREQUEST,
)
from .dns_msg import (
    CLASS_IN,
    DNSMessage,
    DNSQuestion,
    DNSRecord,
    RCODE_NOERROR,
    RCODE_NXDOMAIN,
    RCODE_REFUSED,
    RCODE_SERVFAIL,
    TYPE_A,
    TYPE_CNAME,
    TYPE_PTR,
    reverse_pointer_name,
)
from .ethernet import (
    ETH_TYPE_ARP,
    ETH_TYPE_IPV4,
    ETH_TYPE_IPV6,
    ETH_TYPE_LLDP,
    ETH_TYPE_VLAN,
)
from .ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP
from .packet import Packet, PacketError
from .pcap import PcapReader, PcapWriter
from .udp import PORT_DHCP_CLIENT, PORT_DHCP_SERVER, PORT_DNS, PORT_HWDB_RPC

__all__ = [
    "AddressError",
    "IPv4Address",
    "IPv4Network",
    "MACAddress",
    "ARP_REQUEST",
    "ARP_REPLY",
    "internet_checksum",
    "pseudo_header",
    "verify_checksum",
    "DHCPMessage",
    "BOOTREQUEST",
    "BOOTREPLY",
    "DHCPDISCOVER",
    "DHCPOFFER",
    "DHCPREQUEST",
    "DHCPDECLINE",
    "DHCPACK",
    "DHCPNAK",
    "DHCPRELEASE",
    "DHCPINFORM",
    "DNSMessage",
    "DNSQuestion",
    "DNSRecord",
    "CLASS_IN",
    "TYPE_A",
    "TYPE_CNAME",
    "TYPE_PTR",
    "RCODE_NOERROR",
    "RCODE_NXDOMAIN",
    "RCODE_REFUSED",
    "RCODE_SERVFAIL",
    "reverse_pointer_name",
    "ETH_TYPE_IPV4",
    "ETH_TYPE_ARP",
    "ETH_TYPE_VLAN",
    "ETH_TYPE_IPV6",
    "ETH_TYPE_LLDP",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "Packet",
    "PacketError",
    "PcapReader",
    "PcapWriter",
    "PORT_DNS",
    "PORT_DHCP_SERVER",
    "PORT_DHCP_CLIENT",
    "PORT_HWDB_RPC",
]
