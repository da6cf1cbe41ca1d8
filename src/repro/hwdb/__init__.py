"""hwdb — the Homework Database.

An active ephemeral stream database: fixed-size ring-buffer tables, a CQL
variant with temporal windows and relational operators, subscriptions
pushed over a UDP-style RPC, and optional persistence sinks.
"""

from .cql import ResultSet, parse
from .database import HomeworkDatabase, Subscription
from .persist import CsvSink, JsonLinesSink, MemorySink, render_table
from .rpc import (
    HwdbClient,
    LocalTransport,
    RpcServer,
    pack_resultset,
    unpack_resultset,
)
from .snapshot import database_digests, table_digest
from .udp_gateway import HwdbUdpGateway, RemoteHwdbClient
from .schema import (
    DNS_SCHEMA,
    FLOWS_SCHEMA,
    LEASES_SCHEMA,
    LINKS_SCHEMA,
    STANDARD_TABLES,
    TRACES_SCHEMA,
    install_standard_schema,
)
from .table import Column, Row, StreamTable, TS_COLUMN
from .types import (
    BOOLEAN,
    ColumnType,
    INTEGER,
    IPADDR,
    MACADDR,
    REAL,
    TIMESTAMP,
    VARCHAR,
    type_by_name,
)

__all__ = [
    "HomeworkDatabase",
    "Subscription",
    "ResultSet",
    "parse",
    "StreamTable",
    "Row",
    "Column",
    "TS_COLUMN",
    "RpcServer",
    "HwdbClient",
    "LocalTransport",
    "HwdbUdpGateway",
    "RemoteHwdbClient",
    "pack_resultset",
    "unpack_resultset",
    "CsvSink",
    "JsonLinesSink",
    "MemorySink",
    "render_table",
    "database_digests",
    "table_digest",
    "install_standard_schema",
    "STANDARD_TABLES",
    "FLOWS_SCHEMA",
    "LINKS_SCHEMA",
    "LEASES_SCHEMA",
    "DNS_SCHEMA",
    "TRACES_SCHEMA",
    "ColumnType",
    "type_by_name",
    "INTEGER",
    "REAL",
    "VARCHAR",
    "BOOLEAN",
    "TIMESTAMP",
    "MACADDR",
    "IPADDR",
]
