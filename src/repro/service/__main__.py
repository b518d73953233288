"""``python -m repro.service`` — run the sweep-as-a-service results server.

Example::

    python -m repro.service --port 8733 --cache-dir .repro-cache --jobs 2

The server prints one ready line (``repro.service listening on
http://HOST:PORT (cache: DIR)``) once bound — with ``--port 0`` the OS
picks a free port and the ready line is how callers learn it.  See
``docs/service.md`` for the HTTP API.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from ..experiments.resilient import RetryPolicy
from .server import serve


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Async experiment-results server with a "
        "content-addressed cache (see docs/service.md).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8733,
        help="TCP port (0 = let the OS pick; the ready line names it)",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="content-addressed result store (created if missing)",
    )
    parser.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="BYTES",
        help="LRU cache budget in bytes (evict least-recently-used "
        "entries past this total; default: unbounded)",
    )
    parser.add_argument(
        "--cache-max-entries", type=int, default=None, metavar="N",
        help="LRU cache budget in entries (default: unbounded)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="default worker processes per computation "
        "(None = serial; 0 = all cores; bit-identical either way)",
    )
    parser.add_argument(
        "--max-concurrent", type=int, default=1, metavar="N",
        help="distinct fingerprints computing at once (identical "
        "requests always share one computation)",
    )
    parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="resilient-runtime retries per sweep point",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-task watchdog for the resilient runtime",
    )
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 0:
        parser.error("--jobs must be >= 0")
    if args.max_concurrent < 1:
        parser.error("--max-concurrent must be >= 1")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.cache_max_bytes is not None and args.cache_max_bytes < 0:
        parser.error("--cache-max-bytes must be >= 0")
    if args.cache_max_entries is not None and args.cache_max_entries < 1:
        parser.error("--cache-max-entries must be >= 1")

    retry = RetryPolicy(
        max_attempts=args.retries + 1, timeout_s=args.task_timeout
    )
    try:
        asyncio.run(
            serve(
                args.host,
                args.port,
                args.cache_dir,
                jobs=args.jobs,
                retry=retry,
                max_concurrent=args.max_concurrent,
                cache_max_bytes=args.cache_max_bytes,
                cache_max_entries=args.cache_max_entries,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
