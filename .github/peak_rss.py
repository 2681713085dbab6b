"""Run a command and fail if its peak RSS is above a bound, in MB.

    python .github/peak_rss.py LIMIT_MB -- CMD...

The child's peak is its ``ru_maxrss`` from ``os.wait4``.  This launcher
loads no numpy, so its own high-water mark stays small.  It prints the peak
on stderr and exits nonzero if the command fails or its peak is above
LIMIT_MB.
"""
import os
import subprocess
import sys


def main(argv: list[str]) -> int | str:
    if len(argv) < 3 or argv[1] != "--":
        return "usage: peak_rss.py LIMIT_MB -- CMD..."
    limit_mb, command = float(argv[0]), argv[2:]
    child = subprocess.Popen(command)
    _, status, usage = os.wait4(child.pid, 0)
    peak_mb = usage.ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.0f} MB", file=sys.stderr)
    name = " ".join(command[:4])
    if os.waitstatus_to_exitcode(status):
        return f"{name} exited {os.waitstatus_to_exitcode(status)}"
    if peak_mb > limit_mb:
        return f"peak RSS {peak_mb:.0f} MB is above {limit_mb:.0f} MB"
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
