"""``python -m repro store`` — inspect and maintain a durable store dir.

Subcommands::

    python -m repro store stat <dir>            # manifest + WAL summary
    python -m repro store verify <dir>          # full integrity check
    python -m repro store compact <dir> --max-age 86400
    python -m repro store recover <dir>         # rebuild and report

``stat`` and ``verify`` are read-only.  ``recover`` rebuilds a scratch
database from the store (the same path the fuzzer's crash op exercises)
and reports per-table row counts; ``compact`` recovers first, then
applies the retention policy and rewrites the manifest.
"""

from __future__ import annotations

import argparse
import logging
from pathlib import Path
from typing import List, Optional

from ..core.clock import WallClock
from ..core.errors import ReproError
from ..core.logging_setup import configure_logging
from ..hwdb.database import HomeworkDatabase
from .archive import SEGMENT_DIR, WAL_NAME, read_manifest
from .compact import RetentionPolicy, compact_store
from .recover import recover_store
from .segment import SegmentInfo, read_segment
from .wal import read_wal

logger = logging.getLogger("repro.store")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro store",
        description="inspect and maintain a durable hwdb store directory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stat = sub.add_parser("stat", help="summarise manifest and WAL")
    stat.add_argument("root", type=Path)

    verify = sub.add_parser("verify", help="check every segment and the WAL")
    verify.add_argument("root", type=Path)

    compact = sub.add_parser("compact", help="apply a retention policy")
    compact.add_argument("root", type=Path)
    compact.add_argument("--max-age", type=float, default=None, metavar="SECONDS")
    compact.add_argument("--max-segments", type=int, default=None, metavar="N")
    compact.add_argument("--max-rows", type=int, default=None, metavar="N")

    recover = sub.add_parser("recover", help="rebuild a database from the store")
    recover.add_argument("root", type=Path)

    for p in (stat, verify, compact, recover):
        p.add_argument("-v", "--verbose", action="store_true")
    return parser


def _cmd_stat(root: Path) -> int:
    manifest = read_manifest(root)
    contents = read_wal(root / WAL_NAME)
    logger.info("store %s (%s)", root, manifest["format"])
    for name in sorted(manifest.get("tables", {})):
        entry = manifest["tables"][name]
        segments = entry.get("segments", [])
        logger.info(
            "  %-16s %3d segment(s), %6d sealed row(s), sealed_through=%d, "
            "cleared_through=%d, discarded=%d, expired=%d",
            name,
            len(segments),
            sum(int(s["rows"]) for s in segments),
            entry.get("sealed_through", 0),
            entry.get("cleared_through", 0),
            entry.get("discarded", 0),
            entry.get("expired_rows", 0),
        )
    wal_rows = sum(len(rows) for rows in contents.rows.values())
    logger.info(
        "  WAL: %d record(s), %d distinct row(s)%s",
        contents.records,
        wal_rows,
        f" [TORN: {contents.note}]" if contents.torn else "",
    )
    return 0


def _cmd_verify(root: Path) -> int:
    manifest = read_manifest(root)
    failures = 0
    segments_checked = 0
    for name in sorted(manifest.get("tables", {})):
        for raw in manifest["tables"][name].get("segments", []):
            info = SegmentInfo.from_dict(raw)
            try:
                rows = read_segment(root / SEGMENT_DIR / info.file, info.digest)
            except ReproError as exc:
                logger.error("segment %s: %s", info.file, exc)
                failures += 1
                continue
            segments_checked += 1
            if len(rows) != info.rows:
                logger.error(
                    "segment %s: %d row(s) on disk, manifest says %d",
                    info.file,
                    len(rows),
                    info.rows,
                )
                failures += 1
    contents = read_wal(root / WAL_NAME)
    if contents.torn:
        logger.warning("WAL is torn (%s) — recovery would truncate it", contents.note)
    logger.info(
        "verified %d segment(s), %d WAL record(s): %s",
        segments_checked,
        contents.records,
        "FAILED" if failures else "ok",
    )
    return 1 if failures else 0


def _recover_scratch(root: Path):
    db = HomeworkDatabase(WallClock())
    return recover_store(root, db)


def _cmd_compact(root: Path, policy: RetentionPolicy) -> int:
    recovered = _recover_scratch(root)
    report = compact_store(recovered.store, policy)
    for name in sorted(report):
        entry = report[name]
        logger.info(
            "%s: expired %d segment(s) (%d rows), merged %d, %d segment(s) remain",
            name,
            entry["expired_segments"],
            entry["expired_rows"],
            entry["merged_segments"],
            entry["segments_now"],
        )
    if not report:
        logger.info("nothing to compact")
    recovered.store.close()
    return 0


def _cmd_recover(root: Path) -> int:
    recovered = _recover_scratch(root)
    for name in sorted(recovered.tables):
        entry = recovered.tables[name]
        logger.info(
            "%s: total=%d ring=%d pending=%d sealed=%d discarded=%d",
            name,
            entry["total"],
            entry["ring_rows"],
            entry["pending_rows"],
            entry["sealed_rows"],
            entry["discarded"],
        )
    if recovered.torn:
        logger.warning("WAL tail was torn (%s); truncated on rewrite", recovered.note)
    logger.info("recovery %s", "ok (torn tail dropped)" if recovered.torn else "ok")
    recovered.store.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(getattr(args, "verbose", False))
    try:
        if args.command == "stat":
            return _cmd_stat(args.root)
        if args.command == "verify":
            return _cmd_verify(args.root)
        if args.command == "compact":
            policy = RetentionPolicy(
                max_age=args.max_age,
                max_segments=args.max_segments,
                max_rows=args.max_rows,
            )
            return _cmd_compact(args.root, policy)
        if args.command == "recover":
            return _cmd_recover(args.root)
    except ReproError as exc:
        logger.error("%s", exc)
        return 2
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
