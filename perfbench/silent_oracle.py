"""Oracle stub that never replies, for the benchmark's per-job timeout check.

Usage: python3 silent_oracle.py LOCKFILE

It takes an exclusive lock on LOCKFILE and then sleeps forever without
reading its input. The lock is released only when the process is gone,
so whoever holds the other end can tell that the stub was killed.
"""

import fcntl
import sys
import time


def main() -> int:
    with open(sys.argv[1], "w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        fh.write("locked\n")
        fh.flush()
        while True:
            time.sleep(60)


if __name__ == "__main__":
    sys.exit(main())
