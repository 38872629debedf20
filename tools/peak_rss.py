#!/usr/bin/env python3
"""Runs a command and reports the peak resident set size of that child.

    python3 tools/peak_rss.py [--max-mb N] -- COMMAND [ARG...]

Prints the child's ru_maxrss in MB (ru_maxrss / 1024, as benchmark/run.py
reports its *_rss_mb) and its wall seconds.  Exits with the child's own
exit status when that is nonzero, else 1 when the peak is above --max-mb,
else 0.

The figure is an upper bound on the command's own peak: Linux seeds a
child's ru_maxrss with its parent's resident size at exec, so it includes
this wrapper's own ~13 MB.
"""

import argparse
import os
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float, default=None,
                        help="fail (exit 1) when the child's peak RSS is "
                             "above this many MB")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the command to run, after --")
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")

    start = time.monotonic()
    pid = os.posix_spawnp(command[0], command, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.monotonic() - start
    code = os.waitstatus_to_exitcode(status)
    peak_mb = usage.ru_maxrss / 1024.0

    print(f"peak_rss: {peak_mb:.1f} MB, {wall_s:.2f} s wall, exit {code}: "
          f"{' '.join(command)}")
    if code != 0:
        return code if code > 0 else 128 - code
    if args.max_mb is not None and peak_mb > args.max_mb:
        print(f"peak_rss: FAILED — {peak_mb:.1f} MB above the "
              f"{args.max_mb:g} MB ceiling")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
